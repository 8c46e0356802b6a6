"""Efficient-variance estimation, confidence intervals, and the
uniform-density standardized statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .functionals import ScalarFunctional, SmoothFunctional, _apply, mu_plugin, tau_plugin
from .grenander import StepDensity, evaluate, fit
from .samples import Sample

# Acklam's rational approximation to the standard normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Standard normal quantile, rational approximation plus one Halley
    refinement step; absolute error well below 1e-8, no dependencies."""
    if not 0.0 < p < 1.0:
        raise InputError("quantile argument must lie strictly in (0, 1)")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # one Halley step against the exact CDF (erfc)
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def normal_cdf(x):
    """Standard normal CDF (vectorized via math.erf)."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat])
    out = out.reshape(arr.shape)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Normal-theory interval: estimate +- z * sigma_hat / sqrt(n).

    ``degenerate`` flags a zero estimated variance (uniform-type truths),
    where the interval collapses to a point.  Validity is pointwise in
    the underlying density, not uniform; reports carry that note.
    """

    estimate: float
    lower: float
    upper: float
    level: float
    sigma_hat: float
    n: int
    degenerate: bool = False

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise InputError("confidence level must lie in (0, 1)")
        if not self.lower <= self.estimate <= self.upper:
            raise InputError("interval must contain its estimate")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate, "lower": self.lower, "upper": self.upper,
            "level": self.level, "sigma_hat": self.sigma_hat, "n": self.n,
            "degenerate": self.degenerate, "validity": "pointwise",
        }


def sigma_eff_mu(h: ScalarFunctional, d: StepDensity) -> float:
    """Plug-in estimate of the efficient variance Var(h'(f(X))).

    Integrates z h'(z)^2 and z h'(z) against the step density (both
    vanish at z = 0, so no tail condition is needed); clamped at 0
    against floating-point cancellation.
    """
    hp = _apply(h.hprime, d.levels)
    w = d.piece_widths
    m1 = float(np.dot(d.levels * hp * hp, w))
    m2 = float(np.dot(d.levels * hp, w))
    return max(m1 - m2 * m2, 0.0)


def sigma_eff_nu(h: ScalarFunctional, d: StepDensity) -> float:
    """Plug-in efficient variance for the carrier-weighted functional:
    Var(h'(f(X)) f(X) + h(f(X))).  Coincides with :func:`sigma_eff_mu`
    applied to z h(z) by the chain rule."""
    wv = d.levels * _apply(h.hprime, d.levels) + _apply(h.h, d.levels)
    w = d.piece_widths
    m1 = float(np.dot(wv * wv * d.levels, w))
    m2 = float(np.dot(wv * d.levels, w))
    return max(m1 - m2 * m2, 0.0)


def sigma_eff_tau(G: SmoothFunctional, s: Sample, d: StepDensity) -> float:
    """Empirical variance of gdot(f(X_i), X_i) under the fitted density."""
    fitted = evaluate(d, s.values)
    vals = np.asarray(G.gdot(fitted, s.values), dtype=float)
    if vals.shape != s.values.shape:
        vals = np.array([float(G.gdot(z, x)) for z, x in zip(fitted, s.values)])
    m = float(np.mean(vals))
    return max(float(np.mean(vals * vals)) - m * m, 0.0)


def normal_interval(estimate: float, sigma_hat: float, n: int,
                    level: float) -> ConfidenceInterval:
    """Normal-theory interval estimate +- z sigma_hat / sqrt(n) at ``level``."""
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    z = normal_quantile(0.5 + level / 2.0)
    half = z * sigma_hat / math.sqrt(n)
    return ConfidenceInterval(
        estimate=estimate, lower=estimate - half, upper=estimate + half,
        level=level, sigma_hat=sigma_hat, n=n, degenerate=(sigma_hat == 0.0),
    )


def efficient_interval(fn, s: Sample, level: float,
                       d: StepDensity | None = None) -> ConfidenceInterval:
    """Asymptotically valid interval for a functional of either kind: the
    plug-in estimate +- z sigma_hat / sqrt(n), with sigma_hat^2 the
    plug-in efficient variance (:func:`sigma_eff_mu` for a
    :class:`ScalarFunctional`, :func:`sigma_eff_tau` otherwise).

    ``d`` is the Grenander fit of ``s``; it is computed when not given.
    """
    if d is None:
        d = fit(s)
    if isinstance(fn, ScalarFunctional):
        return normal_interval(mu_plugin(fn, d), math.sqrt(sigma_eff_mu(fn, d)), s.n, level)
    return normal_interval(tau_plugin(fn, d), math.sqrt(sigma_eff_tau(fn, s, d)), s.n, level)


#: the interval for the integral of h(f), a functional of the density alone
ci_mu = efficient_interval


def uniform_clt_statistic(h: ScalarFunctional, s: Sample) -> float:
    """Standardized statistic for Uniform[0, 1] truth (caller asserts).

    (n (mu_hat - h(1)) - b log n) / sqrt(3 b^2 log n) with b = h''(1)/2;
    for h(z) = z^2 this is exactly (n * integral(fhat^2 - 1) - log n)
    / sqrt(3 log n).

    The limit N(0, 1) holds in distribution only.  The first Grenander
    piece contributes a term distributed like the reciprocal of an Exp(1)
    variable, so the statistic has a Cauchy-type upper tail and no finite
    mean or variance at any n; sample means and variances of replicated
    statistics are spike-dominated, and quantiles are the measures to
    compare with the limit.
    """
    b = 0.5 * float(h.hdoubleprime(1.0))
    if b == 0.0:
        raise NumericError("degenerate normalization: h''(1) = 0")
    d = fit(s)
    if d.support_end > 1.0:
        raise InputError("observations exceed 1; truth must be Uniform[0, 1]")
    mu_hat = mu_plugin(h, d, domain=(0.0, 1.0))
    n = s.n
    logn = math.log(n)
    return (n * (mu_hat - float(h.h(1.0))) - b * logn) / math.sqrt(3.0 * b * b * logn)
