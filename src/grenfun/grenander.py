"""The Grenander estimator: left-hand slope of the LCM of the ECDF."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, _finite
from .majorant import _hull_indices
from .samples import Sample, ecdf

MASS_TOL = 1e-10


@dataclass(frozen=True)
class StepDensity:
    """Nonincreasing piecewise-constant density.

    Value ``levels[i]`` on ``(breakpoints[i-1], breakpoints[i]]`` with an
    implicit left edge at 0, and 0 beyond the last breakpoint.  Levels are
    strictly decreasing and positive; total mass is 1 (within 1e-10).
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.breakpoints, dtype=float)
        vs = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breakpoints", ts)
        object.__setattr__(self, "levels", vs)
        if ts.ndim != 1 or ts.size == 0 or ts.shape != vs.shape:
            raise InputError("breakpoints and levels must be equal-length nonempty arrays")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise InputError("breakpoints and levels must be finite")
        if ts[0] <= 0.0 or np.any(np.diff(ts) <= 0.0):
            raise InputError("breakpoints must be strictly increasing and positive")
        if vs[-1] <= 0.0 or np.any(np.diff(vs) >= 0.0):
            raise InputError("levels must be strictly decreasing and positive")
        if abs(self.mass - 1.0) > MASS_TOL:
            raise InputError(f"density mass {self.mass!r} differs from 1 beyond {MASS_TOL}")

    @property
    def mass(self) -> float:
        return float(np.sum(self.levels * self.piece_widths))

    @property
    def piece_widths(self) -> np.ndarray:
        return np.diff(self.breakpoints, prepend=0.0)

    @property
    def support_end(self) -> float:
        return float(self.breakpoints[-1])

    def _cumulative(self):
        """Left edges of the pieces and the mass below each edge, the last
        entry being the total mass."""
        edges = np.concatenate(([0.0], self.breakpoints))
        return edges, np.concatenate(([0.0], np.cumsum(self.levels * self.piece_widths)))

    def cdf(self, x):
        """Integral of the density from 0 to x: exactly 1.0 from the end of
        the support, where the sum of the piece masses may be 1 +- 1 ulp."""
        x = np.asarray(x, dtype=float)
        edges, cum = self._cumulative()
        xc = np.clip(x, 0.0, self.support_end)
        i = np.searchsorted(self.breakpoints, xc, side="left")
        out = cum[i] + self.levels[np.minimum(i, self.levels.size - 1)] * (xc - edges[i])
        out = np.where(x >= self.support_end, 1.0, out)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse of :meth:`cdf` on [0, 1); u * support_end on one piece."""
        u = np.asarray(u, dtype=float)
        if self.levels.size == 1:
            out = u * self.support_end
        else:
            edges, cum = self._cumulative()
            i = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, self.levels.size - 1)
            out = edges[i] + (u - cum[i]) / self.levels[i]
        return out if out.ndim else float(out)


def fit(s: Sample) -> StepDensity:
    """Grenander estimator of a nonincreasing density from a sample.

    Levels are exactly the left-hand slopes of the LCM of the empirical
    CDF; breakpoints are the hull knots (equal consecutive slopes merged
    by the hull scan), the last one being the largest observation.  The
    scan orders slopes by cross products; where two consecutive slopes
    still round to levels that do not strictly decrease (nearly
    collinear ECDF points), the knot between them is dropped and the
    pooled piece takes the slope across it.

    Observations at exactly 0 are pooled into the first slope segment
    (the hull is anchored at height 0 at the origin), which keeps the
    estimate a proper density with unit mass and no point mass.
    """
    xs, ys = ecdf(s)
    if xs[-1] == 0.0:
        raise NumericError("all observations are 0: degenerate support")
    ys[0] = 0.0
    # the ECDF points are sorted, tie-pooled and finite, so the hull
    # kernel takes them as they are; StepDensity checks its output
    idx = _hull_indices(xs, ys)
    # the first level is the largest; past the float range it is inf
    # (a subnormal smallest observation), which no density can carry
    _finite(lambda: ys[idx[1]] / xs[idx[1]], "the first density level",
            f"{float(ys[idx[1]])!r}/{float(xs[idx[1]])!r} overflows; "
            "the smallest positive observation is too close to 0")
    while True:
        knots = xs[idx]
        levels = np.diff(ys[idx]) / np.diff(knots)
        flat = levels[1:] >= levels[:-1]
        if not flat.any():
            return StepDensity(knots[1:], levels)
        idx = np.delete(idx, 1 + np.flatnonzero(flat))


def evaluate(d: StepDensity, x):
    """Density value at x: ``levels[i]`` on ``(t_{i-1}, t_i]``, the first
    level at x = 0, and 0 beyond the support."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise InputError("density evaluation requires x >= 0")
    i = np.searchsorted(d.breakpoints, arr, side="left")
    out = np.where(i < d.levels.size, d.levels[np.minimum(i, d.levels.size - 1)], 0.0)
    return out if out.ndim else float(out)
