"""Sampling the limiting random variable of the plug-in estimator.

The limit is minus the Stieltjes integral of the derivative-transformed
Brownian bridge against d[gdot(f(x), x)].  Strictly concave truths leave
the bridge untouched; piecewise-affine truths apply the least concave
majorant interval by interval.  Unbounded supports are truncated where
the CDF reaches 1 - 1e-6, and the neglected tail's worst-case
contribution is reported alongside emitted samples.

The integral is taken on a grid by the trapezoid rule: on each cell the
path contributes the mean of its two end values times the increment of
psi(x) = gdot(f(x), x) there, which is the exact Stieltjes integral of
the polygonal path against the polygonal psi; the jumps of psi at the
breakpoints are added at the path's values there.  The draws follow the
grid's law, whose variance is within O(1/grid^2) of the limit's: for
exponential data and ``xz2`` it is 0.046286 at grid size 1000 and
0.046294 at 2000, against 8/27 - 1/4 = 0.046296 (quadratic forms of the
bridge covariance on each grid; a left-endpoint sum gives 0.044903 and
0.045596).

Under a piecewise-affine truth every row is hulled over every affine
interval at once: :meth:`YPlan.apply` lays blocks of rows end to end
with the interval endpoints fixed, one call of the segmented hull
kernel per block (see :mod:`grenfun.majorant`), and sums each row on
its hull vertices alone.  Between two vertices a < b the hulled path
is a chord of slope s, so summation by parts turns the grid trapezoid
of a row into h_N Psi_N - sum over its chords of s (A_b - A_a), where
Psi is the running sum of the psi increments and A the running
trapezoid integral of Psi dx.  That is exact in real arithmetic for any
psi, and costs one term per chord, not one per grid cell.  A single
path is a one-row array.

:func:`draw_y_samples` draws its paths in batches of four hull-kernel
blocks, 4 * max(1, ROW_BLOCK_POINTS // grid points) rows: 260 rows at
grid size 1000, 32 at 8000.  It allocates two buffers once, for the
normals and the paths, and fills them in place for every batch; at
grids of up to 2^16 points each holds about 2^18 points (2 MiB).  The
draws do not depend on the batch: a batch of whole blocks keeps every
hull block at the same row offset, and OpenBLAS's matrix-vector
product sums every aligned group of four rows alike and the last
(rows mod 4) rows of a product another way, so batches of a multiple
of four rows give the bytes of one product over all rows.  At those
grids they do not depend on the BLAS thread count either: a product of
2^18 points runs on one thread, where OpenBLAS 0.3.31 splits products
of about 5e5 points or more across its threads at a row that need not
be a multiple of four.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError
from .functionals import SmoothFunctional, _require_x_free
from .majorant import _hull_rows, _rows_per_block
from .samples import ScenarioSpec, _load_column

#: tail mass cut from a truth of unbounded support
_TAIL_MASS = 1e-6


def _truncation(spec: ScenarioSpec) -> float:
    """Right end of the grid: the support's end, or the 1 - _TAIL_MASS
    quantile of a strictly concave truth."""
    if spec.is_strictly_concave:
        return float(spec.quantile(1.0 - _TAIL_MASS))
    return spec.support_end


def _batch_rows(width: int) -> int:
    """Bridge rows that :func:`draw_y_samples` draws and sums at once on
    a grid of ``width`` points: four hull-kernel blocks."""
    return 4 * _rows_per_block(width)


def _fill_bridge(u: np.ndarray, root_du: np.ndarray, w: np.ndarray,
                 out: np.ndarray, stream) -> None:
    """Fill the rows of ``out`` with bridge values on the grid u (u[0] = 0),
    pinned to 0 at u = 1 exactly when the grid ends at 1.  ``root_du``
    is sqrt(diff(u)) and ``w`` scratch space of one column fewer; both
    arrays are filled in place, so no other array of their size is made."""
    stream.standard_normal(out=w)
    w *= root_du
    np.cumsum(w, axis=1, out=w)
    out[:, 0] = 0.0
    np.multiply(w[:, -1:], u[1:], out=out[:, 1:])
    np.subtract(w, out[:, 1:], out=out[:, 1:])


def _bridge_values(u: np.ndarray, draws: int, stream) -> np.ndarray:
    """Rows of bridge values on the grid u (u[0] = 0); pinned to 0 at
    u = 1 exactly when the grid ends at 1."""
    out = np.empty((draws, u.size))
    _fill_bridge(u, np.sqrt(np.diff(u)), np.empty((draws, u.size - 1)), out, stream)
    return out


def build_grid(spec: ScenarioSpec, grid_size: int) -> np.ndarray:
    """Uniform grid on [0, T] merged with all affine-interval endpoints."""
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    base = np.linspace(0.0, _truncation(spec), int(grid_size) + 1)
    if not spec.is_strictly_concave:
        base = np.union1d(base, spec.true_density().breakpoints)
    return base


def _jump_terms(G: SmoothFunctional, spec: ScenarioSpec):
    """Breakpoint locations and jumps of psi(x) = gdot(f(x), x) there."""
    d = spec.true_density()
    ts, vs = d.breakpoints, d.levels
    jumps = np.empty(ts.size)
    for i in range(ts.size):
        left = float(G.gdot(vs[i], ts[i]))
        right = float(G.gdot(vs[i + 1], ts[i])) if i + 1 < vs.size else float(G.gdot(0.0, ts[i]))
        jumps[i] = right - left
    return ts, jumps


def _psi_increments(G: SmoothFunctional, spec: ScenarioSpec, grid: np.ndarray) -> np.ndarray:
    """Within-piece increments of psi over grid cells (jumps excluded)."""
    if spec.is_strictly_concave:
        f = np.asarray(spec.density(grid), dtype=float)
        psi = np.array([float(G.gdot(z, x)) for z, x in zip(f, grid)])
        return np.diff(psi)
    if G.x_free:
        return np.zeros(grid.size - 1)
    # the level of each cell is the density at its right end, which
    # cannot cross a breakpoint because breakpoints are grid members
    lv = np.asarray(spec.density(grid[1:]), dtype=float)
    right = np.array([float(G.gdot(z, x)) for z, x in zip(lv, grid[1:])])
    left = np.array([float(G.gdot(z, x)) for z, x in zip(lv, grid[:-1])])
    return right - left


def _running_sum(terms: np.ndarray):
    """Prefix sums [0, t0, t0 + t1, ...] of ``terms`` as hi + lo: hi by
    ``np.cumsum``, lo the running total of the rounding error of each of
    its steps (Knuth's TwoSum).  A difference of two prefixes then keeps
    its digits however many steps lie between them, where the plain
    cumsum drifts by about one rounding per step."""
    hi = np.concatenate(([0.0], np.cumsum(terms)))
    step = hi[1:] - hi[:-1]
    err = (hi[:-1] - (hi[1:] - step)) + (terms - step)
    return hi, np.concatenate(([0.0], np.cumsum(err)))


class YPlan:
    """Precomputed pieces of the Stieltjes sum for one (functional, truth,
    grid) combination, applicable to many bridge paths at once."""

    def __init__(self, G: SmoothFunctional, spec: ScenarioSpec, grid: np.ndarray):
        self.grid = np.asarray(grid, dtype=float)
        self.dpsi = _psi_increments(G, spec, self.grid)
        # trapezoid weight of each grid value: half the psi increment of
        # each cell it ends
        self.weights = np.zeros(self.grid.size)
        self.weights[:-1] = 0.5 * self.dpsi
        self.weights[1:] += 0.5 * self.dpsi
        self.needs_hull = not spec.is_strictly_concave and not G.x_free
        if not spec.is_strictly_concave:
            ts, self.jumps = _jump_terms(G, spec)
            self.t_idx = np.searchsorted(self.grid, ts)
            if np.any(self.t_idx >= self.grid.size) or np.any(self.grid[self.t_idx] != ts):
                raise InputError("grid does not contain every affine-interval endpoint")
            # the affine intervals run from 0 through the breakpoints: the
            # hull runs end at the first grid point and at t_idx, and
            # nothing past the last breakpoint is hulled
            self.fixed = np.zeros(self.grid.size, dtype=bool)
            self.fixed[0] = True
            self.fixed[self.t_idx] = True
            self.fixed[self.t_idx[-1]:] = True
            # Psi_N and the running trapezoid integral A of Psi dx, both
            # as compensated running sums (see _running_sum)
            psi_hi, psi_lo = _running_sum(self.dpsi)
            psi = psi_hi + psi_lo
            self.psi_total = psi[-1]
            self.area, self.area_lo = _running_sum(0.5 * (psi[:-1] + psi[1:]) * np.diff(self.grid))
        else:
            self.jumps = None
            self.t_idx = None
            self.fixed = None

    def apply(self, paths: np.ndarray) -> np.ndarray:
        """Limit-variable realizations for rows of bridge-composed values
        on this plan's grid."""
        paths = np.atleast_2d(np.asarray(paths, dtype=float))
        if self.jumps is not None:
            jump_part = paths[:, self.t_idx] @ self.jumps
        else:
            jump_part = 0.0
        if self.needs_hull:
            cont_part = self._hulled_sum(np.ascontiguousarray(paths))
        else:
            cont_part = paths @ self.weights
        return -(cont_part + jump_part)

    def _hulled_sum(self, paths: np.ndarray) -> np.ndarray:
        """Trapezoid sum of every row's hull against psi, by parts on the
        row's hull vertices (see the module docstring)."""
        n = self.grid.size
        vi = _hull_rows(paths, self.grid, self.fixed)
        row, col = np.divmod(vi, n)
        vy = paths.reshape(-1)[vi]
        # consecutive vertices a < b of one row; a row's last column pairs
        # with the next row's first and is dropped
        chord = col[:-1] != n - 1
        a = col[:-1][chord]
        b = col[1:][chord]
        slope = np.diff(vy)[chord] / (self.grid[b] - self.grid[a])
        d_area = (self.area[b] - self.area[a]) + (self.area_lo[b] - self.area_lo[a])
        by_parts = np.bincount(row[:-1][chord], weights=slope * d_area,
                               minlength=paths.shape[0])
        return paths[:, -1] * self.psi_total - by_parts


def draw_y_samples(G: SmoothFunctional, spec: ScenarioSpec, grid_size: int,
                   draws: int, stream):
    """Monte Carlo draws of the limit variable.

    Returns ``(ys, info)`` where info carries the truncation point, the
    neglected tail's total-variation bound times the largest observed
    path magnitude, and the grid actually used.
    """
    if draws < 1:
        raise InputError("need at least one draw")
    grid = build_grid(spec, grid_size)
    u = np.asarray(spec.cdf(grid), dtype=float)
    if u[-1] < 1.0:  # truncated: the bridge runs on to u = 1
        u = np.concatenate((u, [1.0]))
    plan = YPlan(G, spec, grid)
    tail_tv = _tail_total_variation(G, spec)
    ys = np.empty(draws)
    max_abs_g = 0.0
    batch = min(draws, _batch_rows(grid.size))
    root_du = np.sqrt(np.diff(u))
    normals = np.empty((batch, u.size - 1))
    bridge = np.empty((batch, u.size))
    for done in range(0, draws, batch):
        m = min(batch, draws - done)
        _fill_bridge(u, root_du, normals[:m], bridge[:m], stream)
        paths = bridge[:m, :grid.size]
        if tail_tv > 0.0:  # no tail, no bound to scale: skip the scan
            max_abs_g = max(max_abs_g, float(paths.max()), -float(paths.min()))
        ys[done:done + m] = plan.apply(paths)
    info = {
        "model": spec.to_json(),
        "functional": G.name,
        "grid_size": int(grid_size),
        "grid_points": int(grid.size),
        "truncation": _truncation(spec),
        "tail_bound": max_abs_g * tail_tv,
        "draws": int(draws),
    }
    return ys, info


def linear_y_samples(G: SmoothFunctional, spec: ScenarioSpec, draws: int, stream) -> np.ndarray:
    """Draws from the linear breakpoint formula for x-free functionals
    under a piecewise-affine truth: minus the sum over breakpoints of the
    bridge value times the jump of h'(f), h = g(., 0)."""
    _require_x_free(G, "the linear formula")
    if spec.is_strictly_concave:
        raise InputError("linear formula requires a piecewise-affine truth")
    ts, jumps = _jump_terms(G, spec)
    u = np.concatenate(([0.0], np.asarray(spec.cdf(ts), dtype=float)))
    u[-1] = 1.0
    paths = _bridge_values(u, draws, stream)
    return -(paths[:, 1:] @ jumps)


def _tail_total_variation(G: SmoothFunctional, spec: ScenarioSpec) -> float:
    """Total variation of psi on the truncated tail, by fine sampling."""
    if not spec.is_strictly_concave:
        return 0.0
    tail_u = 1.0 - np.geomspace(_TAIL_MASS, 1e-14, 200)
    xs = np.asarray(spec.quantile(tail_u), dtype=float)
    fs = np.asarray(spec.density(xs), dtype=float)
    psi = np.array([float(G.gdot(z, x)) for z, x in zip(fs, xs)])
    tv = float(np.sum(np.abs(np.diff(psi))))
    tv += abs(float(G.gdot(0.0, xs[-1])) - psi[-1])
    return tv


def emit_y_csv(path, ys: np.ndarray, info: dict) -> None:
    """Write samples as a single-column CSV headed by a JSON metadata line."""
    lines = ["# " + json.dumps(info, sort_keys=True)]
    lines.extend(repr(float(y)) for y in ys)
    Path(path).write_text("\n".join(lines) + "\n")


def load_y_csv(path):
    """Read back samples and metadata written by :func:`emit_y_csv`."""
    with open(path) as fh:
        header = fh.readline()
    if not header.startswith("#"):
        raise InputError(f"{path}: missing JSON metadata header line")
    info = json.loads(header[1:].strip())
    return _load_column(path), info
