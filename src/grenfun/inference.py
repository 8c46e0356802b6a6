"""Efficient-variance estimation, confidence intervals, the truths, and
the uniform-density standardized statistic.

Truths follow the plug-in principle: each is the functional's own g or
gdot integrated against the scenario's density by the plug-in's
quadrature (:func:`_truth`); no functional has a closed form of its own.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, _finite, _significant
from .functionals import (_QUAD_ORDER, SmoothFunctional, _converged, _evaluate, _g_at_zero,
                          _quadrature, _require_vanishing, _require_x_free, _step_integral,
                          tau_plugin)
from .grenander import StepDensity, fit
from .samples import Sample, ScenarioSpec


def normal_quantile(p: float) -> float:
    """Standard normal quantile by :meth:`statistics.NormalDist.inv_cdf`
    (Wichura 1988, Algorithm AS 241): relative error under 1e-15 against
    scipy's ``ndtri`` for p in [1e-300, 1 - 1e-15]."""
    if not 0.0 < p < 1.0:
        raise InputError("quantile argument must lie strictly in (0, 1)")
    # imported here: statistics pulls in fractions and decimal, a cost every CLI start would pay
    from statistics import NormalDist
    return NormalDist().inv_cdf(p)


def normal_cdf(x):
    """Standard normal CDF (vectorized via math.erf)."""
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat.tolist()])
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


def _efficient_variance(integral, G: SmoothFunctional, top: float) -> float:
    """Var psi(X) with psi(x) = gdot(f(x), x) and X ~ f, where
    ``integral(phi, x_free)`` integrates phi(f(x), x) dx: the centered
    second moment, each moment divided by the integral of f, so that a
    constant psi gets exactly 0.  A variance of 0 or a subnormal whose
    uncentered moment underflows too, while f's top level ``top`` does
    not, raises :class:`NumericError` (:func:`grenfun.errors._significant`)."""
    mass = integral(lambda z, x: z, True)
    mean = integral(lambda z, x: G.gdot(z, x) * z, G.x_free) / mass
    var = integral(lambda z, x: (G.gdot(z, x) - mean) ** 2 * z, G.x_free) / mass
    if var < sys.float_info.min:
        _significant(integral(lambda z, x: G.gdot(z, x) ** 2 * z, G.x_free) / mass, top,
                     "the second moment of gdot(f(X), X)")
    return var


#: cells of an exponential truth, cut at the quantiles 1 - 2^-k
_EXP_CELLS = 64


def _true_integral(spec: ScenarioSpec, phi, x_free: bool) -> float:
    """Integral of phi(f(x), x) dx at the scenario's density f, with
    phi(0, .) = 0: the step-density integral of :func:`tau_plugin` for a
    piecewise truth, or its quadrature over the cells
    [(k-1) ln2 / rate, k ln2 / rate], k <= 64, of an exponential truth,
    which leave out the mass 2^-64.  The cut is safe only when phi decays
    with f: a last cell that moves the total by more than the quadrature's
    tolerance raises :class:`NumericError`, and so does a rate so small
    that the cells' last edge overflows."""
    if not spec.is_strictly_concave:
        return _step_integral(phi, spec.true_density(), x_free)
    rate = spec.params["rate"]
    width = math.log(2.0) / rate
    _finite(lambda: _EXP_CELLS * width,
            f"the end of the truth's {_EXP_CELLS} cells of width ln 2 / rate = {width!r}",
            f"it overflows at the rate {rate!r}, which is too small")
    edges = np.arange(_EXP_CELLS + 1) * width

    def integral(a, b):
        # the levels are placeholders: f is evaluated at the nodes
        return _finite(lambda: _quadrature(lambda _, x: phi(spec.density(x), x),
                                           np.zeros(a.size), a, b, _QUAD_ORDER),
                       "the integral",
                       f"the integrand overflows at the density, which reaches {rate!r}")

    total = integral(edges[:-1], edges[1:])
    last = integral(edges[-2:-1], edges[-1:])
    if not _converged(total - last, total):
        raise NumericError(f"truncated tail: the last cell [{float(edges[-2])!r}, "
                           f"{float(edges[-1])!r}] holds {last!r} of the integral {total!r}: "
                           "the integrand does not decay with the density")
    return total


def _true_variance(spec: ScenarioSpec, G: SmoothFunctional) -> float:
    """sigma^2 = Var psi(X) with psi(x) = gdot(f(x), x) and X ~ f at the
    scenario's density f, by the arithmetic of the plug-in estimate."""
    return _efficient_variance(lambda phi, x_free: _true_integral(spec, phi, x_free), G,
                               float(spec.density(0.0)))


def _truth(spec: ScenarioSpec, G: SmoothFunctional) -> tuple:
    """(tau, sigma^2) of a functional at the scenario's density f:
    tau = integral of g(f(x), x) dx, and sigma^2 of
    :func:`_true_variance`.  A tau that underflows to 0 or a subnormal
    raises :class:`NumericError` (:func:`grenfun.errors._significant`)."""
    _require_vanishing(G)
    tau = _significant(_true_integral(spec, G.g, G.x_free), float(spec.density(0.0)), "the truth")
    return tau, _true_variance(spec, G)


def sigma_eff_tau(G: SmoothFunctional, s: Sample, d: StepDensity) -> float:
    """Plug-in estimate of the efficient variance Var(gdot(f(X), X)) at
    the Grenander fit ``d`` of the sample ``s``.

    For an x-free G it is the variance under ``d`` by exact step sums, the
    arithmetic of the truths (:func:`_efficient_variance`); otherwise the
    empirical variance of gdot(d(X_i), X_i) over the sample.  The two
    agree for an x-free G by the carrier identity of the Grenander fit.
    A variance that is not finite raises :class:`NumericError`.
    """
    if G.x_free:
        return _efficient_variance(lambda phi, _: _step_integral(phi, d, True), G,
                                   float(d.levels[0]))

    def variance():
        # the fit at the sorted sample, piece by piece: the observations up
        # to each breakpoint take its level, those past the last take 0
        # (the values of grenfun.grenander.evaluate, by counts)
        ends = np.searchsorted(s.values, d.breakpoints, side="right")
        fhat = np.repeat(np.append(d.levels, 0.0), np.diff(ends, prepend=0, append=s.n))
        vals = _evaluate(G.gdot, fhat, s.values)
        m = float(np.mean(vals))
        return float(np.mean(vals * vals)) - m * m

    var = _finite(variance, "the efficient variance",
                  "gdot(fhat(x), x) or its square overflows; the fit's top level is "
                  f"{float(d.levels[0])!r} and the largest observation {float(s.values[-1])!r}")
    return max(var, 0.0)


def efficient_interval(G: SmoothFunctional, s: Sample, level: float,
                       d: StepDensity | None = None) -> ConfidenceInterval:
    """The plug-in estimate +- z sigma_hat / sqrt(n) at ``level``, with
    sigma_hat^2 from :func:`sigma_eff_tau`.

    The interval assumes that sqrt(n) (estimate - truth) is normal with
    the efficient variance, which holds when
    :func:`grenfun.limitlaw._limit_is_normal` does: for an x-free
    functional or a strictly concave truth.  Elsewhere the limit is not
    normal and the interval can undercover (0.65-0.72 measured for
    ``xz2`` under ``paper_pwa``).  ``d`` is the Grenander fit of ``s``;
    it is computed when not given.
    """
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    if d is None:
        d = fit(s)
    estimate = tau_plugin(G, d)
    sigma_hat = math.sqrt(sigma_eff_tau(G, s, d))
    half = normal_quantile(0.5 + level / 2.0) * sigma_hat / math.sqrt(s.n)
    return ConfidenceInterval(
        estimate=estimate, lower=estimate - half, upper=estimate + half,
        level=level, sigma_hat=sigma_hat, n=s.n, degenerate=(sigma_hat == 0.0),
    )


def _uniform_clt_scale(G: SmoothFunctional, n: int) -> float:
    """b = h''(1)/2 of the uniform CLT statistic at sample size n, once
    the statistic is known to be defined there: h = g(., 0) of an x-free
    functional with h''(1) != 0, and n >= 2, so that log n > 0."""
    _require_x_free(G, "the uniform CLT statistic")
    b = 0.5 * float(G.gddot(1.0, 0.0))
    if b == 0.0:
        raise NumericError("degenerate normalization: h''(1) = 0")
    if n < 2:
        raise InputError(f"the uniform CLT statistic needs n >= 2 (log n > 0), got n = {n}")
    return b


def uniform_clt_statistic(G: SmoothFunctional, s: Sample) -> float:
    """Standardized statistic for Uniform[0, 1] truth (caller asserts).

    (n (mu_hat - h(1)) - b log n) / sqrt(3 b^2 log n) with h = g(., 0) of
    an x-free functional and b = h''(1)/2; for h(z) = z^2 this is exactly
    (n * integral(fhat^2 - 1) - log n) / sqrt(3 log n).

    The limit N(0, 1) holds in distribution only.  The first Grenander
    piece contributes a term distributed like the reciprocal of an Exp(1)
    variable, so the statistic has a Cauchy-type upper tail and no finite
    mean or variance at any n; sample means and variances of replicated
    statistics are spike-dominated, and quantiles are the measures to
    compare with the limit.
    """
    b = _uniform_clt_scale(G, s.n)
    d = fit(s)
    if d.support_end > 1.0:
        raise InputError("observations exceed 1; truth must be Uniform[0, 1]")
    # over [0, 1]: the tail past X_(n) at density 0 adds h(0) (1 - X_(n))
    h0 = _g_at_zero(G, "the uniform CLT statistic needs h(0)")
    mu_hat = _step_integral(lambda z, x: G.g(z, x) - h0, d, True) + h0
    n = s.n
    logn = math.log(n)
    return (n * (mu_hat - float(G.g(1.0, 0.0))) - b * logn) / math.sqrt(3.0 * b * b * logn)
