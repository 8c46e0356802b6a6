"""Least concave majorants of finite point sets.

The hull scan is the geometric core of the whole package: the Grenander
fit, and the per-interval action of the LCM derivative on simulated
paths, both reduce to it.  Slope comparisons are done with differences of
cross products on (dx, dy) pairs, never divided differences, so that
near-collinear points do not cancel catastrophically.

One kernel, :func:`_hull_indices`, serves both callers.  It prunes, then
scans.  Each numpy prune pass drops every interior point whose turn with
its current neighbours is not strictly concave: such a point lies on or
under the chord of two input points, so it is never a vertex (an exact
local filter in the spirit of Akl & Toussaint, 1978).  The survivors go
through Andrew's monotone-chain stack scan (1979), which uses the same
cross-product test.  The prune stops when a pass drops nothing, when at
most ``PRUNE_FLOOR`` points remain, or when a pass drops fewer than
``1/PRUNE_MIN_DROP`` of its points.  The last rule bounds the cost: on a
concave chain whose last point is raised, each pass drops a single
point, and pruning to the end would take quadratic time.

One call can hull many independent runs.  A boolean ``fixed`` mask marks
points that are never dropped; the points from one fixed point to the
next form a run, hulled on its own, so a fixed point is the last vertex
of one run and the first of the next.  The prune passes cover all runs
at once; a fixed point is kept whatever its turn, so no interior point
ever has a neighbour outside its run.  After the prune, only the runs
that still dropped a point in the last pass go through the scan: a run
that dropped nothing has only strictly concave turns and is its own
hull.  :func:`_upper_hull` is the one-run case (only the end points
fixed), behind :func:`lcm` and the Grenander fit.
:func:`_hull_rows` lays the rows of a path array end to end, with every
interval endpoint fixed, and hulls a block of rows per kernel call; it
serves the limit-law sampler.  It returns the vertex indices alone and
writes no hull values: the sampler sums each row on its vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


#: the prune hands over to the scan once this few points survive
PRUNE_FLOOR = 64
#: ... or once a pass drops fewer than 1/PRUNE_MIN_DROP of its points
PRUNE_MIN_DROP = 8
#: points hulled per call of the kernel by :func:`_hull_rows`
ROW_BLOCK_POINTS = 1 << 16


def _hull_indices(xs: np.ndarray, ys: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Indices of the canonical upper-hull vertices of every run of (xs, ys).

    ``fixed`` is a boolean mask of points that are always kept; they cut
    the input into runs, each running from one fixed point to the next,
    and every run is hulled on its own.  The first and last points must
    be fixed, and xs must be strictly increasing within each run; between
    runs it may fall back.  Collinear interior points are dropped, so
    consecutive hull slopes within a run are strictly decreasing.
    """
    idx = np.arange(xs.size)
    x, y, fx = xs, ys, fixed
    last = None
    while idx.size > PRUNE_FLOOR:
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        keep = np.empty(idx.size, dtype=bool)
        np.greater(dy[:-1] * dx[1:], dy[1:] * dx[:-1], out=keep[1:-1])
        keep |= fx  # the first and last points are fixed, so this sets them too
        sel = np.flatnonzero(keep)
        dropped = idx.size - sel.size
        if dropped == 0:
            return idx
        last = (fx, keep, sel)
        idx, x, y, fx = idx[sel], x[sel], y[sel], fx[sel]
        if dropped * PRUNE_MIN_DROP < idx.size + dropped:
            break
    if last is None:
        return idx[_stack_scan(x, y, fx)]
    # a run that dropped nothing in the last pass has only strictly
    # concave turns: it is its own hull, so only the others are scanned
    fx_before, keep, sel = last
    run = np.cumsum(fx_before)
    dirty = np.zeros(run[-1] + 1, dtype=bool)
    dirty[run[~keep]] = True
    scan = fx | dirty[run[sel]]
    at = np.flatnonzero(scan)
    final = ~scan
    final[at[_stack_scan(x[at], y[at], fx[at])]] = True
    return idx[final]


def _stack_scan(x: np.ndarray, y: np.ndarray, fixed: np.ndarray) -> list:
    """Positions of the upper-hull vertices of each run, by Andrew's
    monotone-chain stack scan (fixed points start a new run and are
    never popped)."""
    xl = x.tolist()
    yl = y.tolist()
    fl = fixed.tolist()
    stack = []
    base = 0  # stack position of the current run's first point
    for i in range(len(xl)):
        x3 = xl[i]
        y3 = yl[i]
        while len(stack) - base >= 2:
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
        if fl[i]:
            base = len(stack) - 1
    return stack


def _rows_per_block(width: int) -> int:
    """Rows of ``width`` points that :func:`_hull_rows` hulls per kernel
    call: as many as ``ROW_BLOCK_POINTS`` holds, and at least one."""
    return max(1, ROW_BLOCK_POINTS // width)


def _hull_rows(values: np.ndarray, xs: np.ndarray, fixed: np.ndarray) -> np.ndarray:
    """Flat indices into ``values.reshape(-1)`` of the upper-hull vertices
    of every row of ``values`` over each run of ``xs`` between fixed
    columns, in increasing order.

    ``values`` is a C-contiguous 2-D array whose rows share the abscissae
    ``xs`` (strictly increasing) and the column mask ``fixed``, whose
    first and last entries must be set, so every row starts and ends with
    a vertex.  Rows are hulled in blocks of :func:`_rows_per_block` rows,
    one kernel call per block.  ``values`` is only read: the hull
    between two consecutive vertices of a row is their chord.
    """
    rows = min(values.shape[0], _rows_per_block(xs.size))
    step = rows * xs.size
    block_x = np.tile(xs, rows)
    block_fixed = np.tile(fixed, rows)
    flat = values.reshape(-1)
    blocks = []
    for start in range(0, flat.size, step):
        chunk = flat[start:start + step]
        blocks.append(_hull_indices(block_x[:chunk.size], chunk, block_fixed[:chunk.size])
                      + start)
    return np.concatenate(blocks)


def _pool_ties(xs, ys):
    """Keep only the maximal y at each run of equal x; xs must be sorted."""
    new_x = xs[1:] != xs[:-1]
    if new_x.all():
        return xs, ys
    starts = np.flatnonzero(np.concatenate(([True], new_x)))
    return xs[starts], np.maximum.reduceat(ys, starts)


@dataclass(frozen=True)
class PiecewiseLinearConcave:
    """Knots and values of a concave piecewise-linear function.

    Linear between knots; constant beyond the last knot (and before the
    first), matching the convention that a fitted CDF equals 1 past the
    largest observation.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.size == 0 or knots.shape != values.shape:
            raise InputError("knots and values must be equal-length nonempty 1-D arrays")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise InputError("non-finite knot or value")
        if np.any(np.diff(knots) <= 0.0):
            raise InputError("knots must be strictly increasing")
        # cross-product form of slope(i) >= slope(i+1); same arithmetic as
        # the hull scan, so scan output always validates
        dx = np.diff(knots)
        dy = np.diff(values)
        if np.any(dy[:-1] * dx[1:] < dy[1:] * dx[:-1]):
            raise InputError("slopes must be nonincreasing (concavity)")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.knots)

    def __call__(self, x):
        return np.interp(x, self.knots, self.values)


def lcm(xs, ys, interval=None) -> PiecewiseLinearConcave:
    """Least concave majorant of the points (xs, ys) over ``interval``.

    Ties in x are pooled to the maximal y.  Points outside the interval
    are ignored.  The result is the upper concave hull: concave, above
    every input point, equal to the input at hull vertices, and minimal
    among concave majorants.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or xs.shape != ys.shape:
        raise InputError("need at least one (x, y) point, equal-length arrays")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise InputError("non-finite point coordinate")
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ys = ys[order]
    if interval is not None:
        a, b = float(interval[0]), float(interval[1])
        if not a < b:
            raise InputError("interval must satisfy a < b")
        keep = (xs >= a) & (xs <= b)
        xs = xs[keep]
        ys = ys[keep]
        if xs.size == 0:
            raise InputError("no points inside the interval")
    xs, ys = _pool_ties(xs, ys)
    if xs.size == 1:
        return PiecewiseLinearConcave(xs.copy(), ys.copy())
    idx = _upper_hull(xs, ys)
    return PiecewiseLinearConcave(xs[idx], ys[idx])


def _upper_hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the upper-hull vertices of at least two finite points
    with strictly increasing xs: the one-run case of the kernel, with
    only the end points fixed.  The core of :func:`lcm`, for callers
    whose points are already sorted and pooled."""
    ends = np.zeros(xs.size, dtype=bool)
    ends[0] = ends[-1] = True
    return _hull_indices(xs, ys, ends)
