"""The least concave majorant of a finite point set, as hull vertices.

The hull scan is the geometric core of the Grenander fit.  Slope
comparisons are done with differences of cross products on (dx, dy)
pairs, never divided differences, so that near-collinear points do not
cancel catastrophically.

One kernel, :func:`_hull_indices`, serves the fit, which hands it the
sorted, tie-pooled ECDF points.  It prunes, then scans.  Each numpy
prune pass drops every interior point whose turn with its current
neighbours is not strictly concave: such a point lies on or under the
chord of two input points, so it is never a vertex (an exact local
filter in the spirit of Akl & Toussaint, 1978).
The survivors go through Andrew's monotone-chain stack scan (1979),
which uses the same cross-product test.  The prune stops when a pass
drops nothing, when at most ``PRUNE_FLOOR`` points remain, or when a
pass drops fewer than ``1/PRUNE_MIN_DROP`` of its points.  The last rule
bounds the cost: on a concave chain whose last point is raised, each
pass drops a single point, and pruning to the end would take quadratic
time.  A pass that drops nothing leaves only strictly concave turns, so
the survivors are then the hull and the scan is skipped.

A pass judges ``PRUNE_BLOCK`` points at a time (:func:`_strict_turns`),
and the first pass's survivors are their own indices, so a pass
allocates its mask and its survivors and no float array the size of its
input: a large fit faults in fewer fresh pages and keeps its differences
and products in cache.  A block's second product is written in place
over its dx, which the comparison no longer reads, so a block holds
three arrays, not four.  Each point's test is the same products and
comparison as on the whole arrays, so the vertices are the same.
"""

from __future__ import annotations

import numpy as np


#: the prune hands over to the scan once this few points survive
PRUNE_FLOOR = 64
#: ... or once a pass drops fewer than 1/PRUNE_MIN_DROP of its points
PRUNE_MIN_DROP = 8
#: points a prune pass judges at a time: 512 KB per difference array
PRUNE_BLOCK = 1 << 16


def _hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the canonical upper-hull vertices of at least two
    finite points with strictly increasing xs.

    The end points are always vertices.  Collinear interior points are
    dropped, so consecutive hull slopes are strictly decreasing.  The
    package's one hull kernel: :func:`grenfun.grenander.fit` calls it on
    the ECDF points.
    """
    idx = None  # where x, y sit in xs, ys; None while they are all of them
    x, y = xs, ys
    while x.size > PRUNE_FLOOR:
        sel = np.flatnonzero(_strict_turns(x, y))
        dropped = x.size - sel.size
        if dropped == 0:
            return np.arange(xs.size) if idx is None else idx
        idx = sel if idx is None else idx.take(sel)
        x, y = x.take(sel), y.take(sel)
        if dropped * PRUNE_MIN_DROP < x.size + dropped:
            break
    scan = _stack_scan(x, y)
    return np.array(scan) if idx is None else idx[scan]


def _strict_turns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the points whose turn with their neighbours is strictly
    concave, dy[i-1] dx[i] > dy[i] dx[i-1]; the end points are kept.
    Judged ``PRUNE_BLOCK`` points at a time, from differences of the
    block's points and one on either side; the right-hand product is
    written over the dx it no longer needs."""
    keep = np.empty(x.size, dtype=bool)
    keep[0] = keep[-1] = True
    last = x.size - 2  # the last interior point
    for lo in range(0, last, PRUNE_BLOCK):
        hi = min(lo + PRUNE_BLOCK, last)  # this block judges points lo+1 .. hi
        dx = x[lo + 1:hi + 2] - x[lo:hi + 1]
        dy = y[lo + 1:hi + 2] - y[lo:hi + 1]
        left = dy[:-1] * dx[1:]
        right = np.multiply(dy[1:], dx[:-1], out=dx[:-1])
        np.greater(left, right, out=keep[lo + 1:hi + 1])
    return keep


def _stack_scan(x: np.ndarray, y: np.ndarray) -> list:
    """Positions of the upper-hull vertices by Andrew's monotone-chain
    stack scan."""
    xl = x.tolist()
    yl = y.tolist()
    stack = []
    for i in range(len(xl)):
        x3 = xl[i]
        y3 = yl[i]
        while len(stack) >= 2:
            j2 = stack[-1]
            j1 = stack[-2]
            x2 = xl[j2]
            y2 = yl[j2]
            # pop the middle point unless the turn is strictly concave:
            # slope(p1,p2) > slope(p2,p3), cross-multiplied
            if (y2 - yl[j1]) * (x3 - x2) <= (y3 - y2) * (x2 - xl[j1]):
                stack.pop()
            else:
                break
        stack.append(i)
    return stack
