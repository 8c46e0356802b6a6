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
"""

from __future__ import annotations

import numpy as np


#: the prune hands over to the scan once this few points survive
PRUNE_FLOOR = 64
#: ... or once a pass drops fewer than 1/PRUNE_MIN_DROP of its points
PRUNE_MIN_DROP = 8


def _hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the canonical upper-hull vertices of at least two
    finite points with strictly increasing xs.

    The end points are always vertices.  Collinear interior points are
    dropped, so consecutive hull slopes are strictly decreasing.  The
    package's one hull kernel: :func:`grenfun.grenander.fit` calls it on
    the ECDF points.
    """
    idx = np.arange(xs.size)
    x, y = xs, ys
    while idx.size > PRUNE_FLOOR:
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        keep = np.empty(idx.size, dtype=bool)
        np.greater(dy[:-1] * dx[1:], dy[1:] * dx[:-1], out=keep[1:-1])
        keep[0] = keep[-1] = True
        sel = np.flatnonzero(keep)
        dropped = idx.size - sel.size
        if dropped == 0:
            return idx
        idx, x, y = idx[sel], x[sel], y[sel]
        if dropped * PRUNE_MIN_DROP < idx.size + dropped:
            break
    return idx[_stack_scan(x, y)]


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
