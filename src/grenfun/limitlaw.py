"""Sampling the limiting random variable of the plug-in estimator.

The limit is minus the Stieltjes integral of the derivative-transformed
Brownian bridge against d[gdot(f(x), x)].  Strictly concave truths leave
the bridge untouched; piecewise-affine truths apply the least concave
majorant interval by interval.  Unbounded supports are truncated where
the CDF reaches 1 - truncation_mass, and the neglected tail's worst-case
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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .functionals import ScalarFunctional, SmoothFunctional
from .majorant import _hull_rows
from .samples import ScenarioSpec, _load_column

DEFAULT_TRUNCATION_MASS = 1e-6

STRICTLY_CONCAVE = "strictly_concave"
PIECEWISE_AFFINE = "piecewise_affine"


@dataclass(frozen=True)
class TrueModel:
    """A scenario CDF together with its concavity structure."""

    spec: ScenarioSpec
    concavity_kind: str
    truncation: float
    truncation_mass: float = 0.0

    @staticmethod
    def from_scenario(spec: ScenarioSpec,
                      truncation_mass: float = DEFAULT_TRUNCATION_MASS) -> "TrueModel":
        if spec.is_strictly_concave:
            t_end = float(spec.quantile(1.0 - truncation_mass))
            return TrueModel(spec, STRICTLY_CONCAVE, t_end, truncation_mass)
        return TrueModel(spec, PIECEWISE_AFFINE, spec.support_end, 0.0)

    @property
    def breakpoints(self) -> np.ndarray:
        ts, _ = self.spec._pw_arrays()
        return ts

    @property
    def levels(self) -> np.ndarray:
        _, vs = self.spec._pw_arrays()
        return vs

    def affine_intervals(self):
        return self.spec.affine_intervals()


def _bridge_values(u: np.ndarray, draws: int, stream) -> np.ndarray:
    """Rows of bridge values on the grid u (u[0] = 0); pinned to 0 at
    u = 1 exactly when the grid ends at 1."""
    # in place: two arrays of the result's size live at once, not five,
    # so the heap is not left holding a freed one after the call
    w = stream.standard_normal((draws, u.size - 1))
    w *= np.sqrt(np.diff(u))
    np.cumsum(w, axis=1, out=w)
    out = np.empty((draws, u.size))
    out[:, 0] = 0.0
    np.multiply(w[:, -1:], u[1:], out=out[:, 1:])
    np.subtract(w, out[:, 1:], out=out[:, 1:])
    return out


def build_grid(model: TrueModel, grid_size: int) -> np.ndarray:
    """Uniform grid on [0, T] merged with all affine-interval endpoints."""
    if grid_size < 2:
        raise InputError("grid_size must be at least 2")
    base = np.linspace(0.0, model.truncation, int(grid_size) + 1)
    if model.concavity_kind == PIECEWISE_AFFINE:
        base = np.union1d(base, model.breakpoints)
    return base


def _cell_levels(model: TrueModel, grid: np.ndarray) -> np.ndarray:
    """Density level governing each grid cell (evaluated at the right
    endpoint, which cannot cross a breakpoint because breakpoints are
    grid members)."""
    return np.asarray(model.spec.density(grid[1:]), dtype=float)


def _jump_terms(G: SmoothFunctional, model: TrueModel):
    """Breakpoint locations and jumps of psi(x) = gdot(f(x), x) there."""
    ts = model.breakpoints
    vs = model.levels
    jumps = np.empty(ts.size)
    for i in range(ts.size):
        left = float(G.gdot(vs[i], ts[i]))
        right = float(G.gdot(vs[i + 1], ts[i])) if i + 1 < vs.size else float(G.gdot(0.0, ts[i]))
        jumps[i] = right - left
    return ts, jumps


def _psi_increments(G: SmoothFunctional, model: TrueModel, grid: np.ndarray) -> np.ndarray:
    """Within-piece increments of psi over grid cells (jumps excluded)."""
    if model.concavity_kind == STRICTLY_CONCAVE:
        f = np.asarray(model.spec.density(grid), dtype=float)
        psi = np.array([float(G.gdot(z, x)) for z, x in zip(f, grid)])
        return np.diff(psi)
    if G.x_free:
        return np.zeros(grid.size - 1)
    lv = _cell_levels(model, grid)
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
    """Precomputed pieces of the Stieltjes sum for one (functional, model,
    grid) combination, applicable to many bridge paths at once."""

    def __init__(self, G: SmoothFunctional, model: TrueModel, grid: np.ndarray):
        self.model = model
        self.grid = np.asarray(grid, dtype=float)
        self.dpsi = _psi_increments(G, model, self.grid)
        # trapezoid weight of each grid value: half the psi increment of
        # each cell it ends
        self.weights = np.zeros(self.grid.size)
        self.weights[:-1] = 0.5 * self.dpsi
        self.weights[1:] += 0.5 * self.dpsi
        self.needs_hull = (model.concavity_kind == PIECEWISE_AFFINE) and not G.x_free
        if model.concavity_kind == PIECEWISE_AFFINE:
            ts, self.jumps = _jump_terms(G, model)
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


def draw_y_samples(G: SmoothFunctional, model: TrueModel, grid_size: int,
                   draws: int, stream, batch: int = 4096):
    """Monte Carlo draws of the limit variable.

    Returns ``(ys, info)`` where info carries the truncation point, the
    neglected tail's total-variation bound times the largest observed
    path magnitude, and the grid actually used.
    """
    if draws < 1:
        raise InputError("need at least one draw")
    grid = build_grid(model, grid_size)
    u = np.asarray(model.spec.cdf(grid), dtype=float)
    truncated = u[-1] < 1.0
    if truncated:
        u_ext = np.concatenate((u, [1.0]))
    else:
        u_ext = u
    plan = YPlan(G, model, grid)
    tail_tv = _tail_total_variation(G, model)
    ys = np.empty(draws)
    max_abs_g = 0.0
    done = 0
    while done < draws:
        m = min(batch, draws - done)
        paths = _bridge_values(u_ext, m, stream)
        if truncated:
            paths = paths[:, :-1]
        if tail_tv > 0.0:  # no tail, no bound to scale: skip the scan
            max_abs_g = max(max_abs_g, float(paths.max()), -float(paths.min()))
        ys[done:done + m] = plan.apply(paths)
        done += m
    info = {
        "model": model.spec.to_json(),
        "functional": G.name,
        "grid_size": int(grid_size),
        "grid_points": int(grid.size),
        "truncation": float(model.truncation),
        "tail_bound": max_abs_g * tail_tv,
        "draws": int(draws),
    }
    return ys, info


def linear_y_samples(h: ScalarFunctional, model: TrueModel, draws: int, stream) -> np.ndarray:
    """Draws from the linear breakpoint formula for x-free functionals
    under a piecewise-affine truth: minus the sum over breakpoints of the
    bridge value times the jump of h'(f)."""
    if model.concavity_kind != PIECEWISE_AFFINE:
        raise InputError("linear formula requires a piecewise-affine truth")
    ts, jumps = _jump_terms(h.as_smooth(), model)
    u = np.concatenate(([0.0], np.asarray(model.spec.cdf(ts), dtype=float)))
    u[-1] = 1.0
    paths = _bridge_values(u, draws, stream)
    return -(paths[:, 1:] @ jumps)


def _tail_total_variation(G: SmoothFunctional, model: TrueModel) -> float:
    """Total variation of psi on the truncated tail, by fine sampling."""
    if model.concavity_kind != STRICTLY_CONCAVE or model.truncation_mass <= 0.0:
        return 0.0
    spec = model.spec
    tail_u = 1.0 - np.geomspace(model.truncation_mass, 1e-14, 200)
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
