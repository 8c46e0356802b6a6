"""The Grenander estimator: left-hand slope of the LCM of the ECDF."""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .majorant import _upper_hull
from .samples import Sample, ecdf

MASS_TOL = 1e-10


@dataclass(frozen=True)
class StepDensity:
    """Nonincreasing piecewise-constant density.

    Value ``levels[i]`` on ``(breakpoints[i-1], breakpoints[i]]`` with an
    implicit left edge at 0, and 0 beyond the last breakpoint.  Levels are
    strictly decreasing and positive; total mass is 1 (within 1e-10)
    unless validation is bypassed for internal perturbation tests.
    """

    breakpoints: np.ndarray
    levels: np.ndarray
    validate: bool = True

    def __post_init__(self):
        ts = np.asarray(self.breakpoints, dtype=float)
        vs = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "breakpoints", ts)
        object.__setattr__(self, "levels", vs)
        if not self.validate:
            return
        if ts.ndim != 1 or ts.size == 0 or ts.shape != vs.shape:
            raise InputError("breakpoints and levels must be equal-length nonempty arrays")
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

    def cdf(self, x):
        """Integral of the density from 0 to x."""
        x = np.asarray(x, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(self.levels * self.piece_widths)))
        edges = np.concatenate(([0.0], self.breakpoints))
        xc = np.clip(x, 0.0, self.support_end)
        i = np.searchsorted(self.breakpoints, xc, side="left")
        out = cum[i] + self.levels[np.minimum(i, self.levels.size - 1)] * (xc - edges[i])
        out = np.where(x >= self.support_end, cum[-1], out)
        return out if out.ndim else float(out)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"breakpoints": self.breakpoints.tolist(),
                "levels": self.levels.tolist()}

    @staticmethod
    def from_json(obj: dict) -> "StepDensity":
        try:
            return StepDensity(np.asarray(obj["breakpoints"], dtype=float),
                               np.asarray(obj["levels"], dtype=float))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad StepDensity JSON: {exc}") from None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("breakpoint,level\n")
        for t, v in zip(self.breakpoints, self.levels):
            buf.write(f"{float(t)!r},{float(v)!r}\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "StepDensity":
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        ts = np.array([float(r[0]) for r in rows])
        vs = np.array([float(r[1]) for r in rows])
        return StepDensity(ts, vs)


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
    idx = _upper_hull(xs, ys)
    # the first level is the largest; past the float range it is inf
    # (a subnormal smallest observation), which no density can carry
    with np.errstate(over="ignore"):
        top = ys[idx[1]] / xs[idx[1]]
    if np.isinf(top):
        raise NumericError(
            f"first density level {float(ys[idx[1]])!r}/{float(xs[idx[1]])!r} overflows: "
            "the smallest positive observation is too close to 0"
        )
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
