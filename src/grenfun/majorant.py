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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


#: the prune hands over to the scan once this few points survive
PRUNE_FLOOR = 64
#: ... or once a pass drops fewer than 1/PRUNE_MIN_DROP of its points
PRUNE_MIN_DROP = 8


def _hull_indices(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices of the canonical upper-hull vertices of (xs, ys).

    xs must be a strictly increasing float array and ys a float array of
    the same length.  Collinear interior points are dropped, so
    consecutive hull slopes are strictly decreasing.
    """
    idx = np.arange(xs.size)
    x, y = xs, ys
    while idx.size > PRUNE_FLOOR:
        dx = x[1:] - x[:-1]
        dy = y[1:] - y[:-1]
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = keep[-1] = True
        np.greater(dy[:-1] * dx[1:], dy[1:] * dx[:-1], out=keep[1:-1])
        sel = np.flatnonzero(keep)
        dropped = idx.size - sel.size
        if dropped == 0:
            return idx
        idx, x, y = idx[sel], x[sel], y[sel]
        if dropped * PRUNE_MIN_DROP < idx.size + dropped:
            break
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
    return idx[stack]


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
    idx = _hull_indices(xs, ys)
    return PiecewiseLinearConcave(xs[idx], ys[idx])


@dataclass(frozen=True)
class GridPath:
    """Function values on a finite strictly increasing grid starting at 0."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.shape != values.shape:
            raise InputError("grid and values must be equal-length 1-D arrays, length >= 2")
        if grid[0] != 0.0:
            raise InputError("grid must start at 0")
        if np.any(np.diff(grid) <= 0.0):
            raise InputError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def _grid_index(grid: np.ndarray, x: float) -> int:
    i = int(np.searchsorted(grid, x))
    if i == grid.size or grid[i] != x:
        raise InputError(f"subinterval endpoint {x!r} is not a grid point")
    return i


def restricted_lcm(path: GridPath, a: float, b: float) -> GridPath:
    """LCM of a grid path over the grid points inside ``[a, b]``.

    Endpoints must lie on the grid.  Values outside [a, b] are untouched;
    the values at a and b themselves are extreme hull points, hence also
    unchanged.
    """
    ia = _grid_index(path.grid, float(a))
    ib = _grid_index(path.grid, float(b))
    if ia >= ib:
        raise InputError("need a < b on the grid")
    hull = lcm(path.grid[ia:ib + 1], path.values[ia:ib + 1])
    new_values = path.values.copy()
    # pointwise max with the input: chord interpolation cannot lower a
    # point that already sits on the hull (collinear points stay put)
    new_values[ia:ib + 1] = np.maximum(new_values[ia:ib + 1],
                                       hull(path.grid[ia:ib + 1]))
    return GridPath(path.grid, new_values)
