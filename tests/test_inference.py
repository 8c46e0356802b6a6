import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from grenfun import (
    ConfidenceInterval,
    InputError,
    NumericError,
    ScenarioSpec,
    SmoothFunctional,
    by_name,
    default_stream,
    derive_seed,
    draw,
    evaluate,
    fit,
    ingest,
    normal_cdf,
    normal_quantile,
    sigma_eff_tau,
    tau_plugin,
    uniform_clt_statistic,
)
from grenfun.inference import _truth, efficient_interval

from oracles import EDGE_FLOATS, unchecked_density
from test_functionals import SCALAR_ONLY

Z2 = by_name("power:2")
Z1 = by_name("identity")
Z3 = by_name("power:3")
XZ2 = by_name("xz2")

PWA = ScenarioSpec.paper_pwa()
EXP1 = ScenarioSpec.exponential(1.0)


class TestNormalQuantile:
    def test_against_scipy_grid(self):
        # relative, to the last few digits: a quantile refined through the
        # CDF loses digits to cancellation near p = 1 and misses it by 1e-9
        ps = np.concatenate((np.geomspace(1e-300, 0.02, 300),
                             np.linspace(0.021, 0.979, 200),
                             1.0 - np.geomspace(1e-12, 0.02, 50)))
        for p in ps:
            want = float(ndtri(p))
            assert abs(normal_quantile(float(p)) - want) <= 1e-13 * abs(want)

    def test_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)

    def test_symmetry(self):
        for p in (0.01, 0.3, 0.77):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InputError):
                normal_quantile(p)

    def test_cdf_inverts_quantile(self):
        for p in (0.001, 0.25, 0.5, 0.99):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


class TestNormalCdf:
    def test_same_bits_as_per_scalar_erf(self):
        # the erf of each element, taken as a numpy scalar or a Python float
        values = np.array(EDGE_FLOATS + [-40.0, -1.0, 1.0, 8.5]).reshape(2, 7)
        per_scalar = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                               for v in values.reshape(-1)]).reshape(values.shape)
        got = normal_cdf(values)
        assert got.shape == values.shape and got.tobytes() == per_scalar.tobytes()
        assert all(normal_cdf(v) == 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                   for v in EDGE_FLOATS)


def _fit(spec, n, seed):
    s = draw(spec, n, default_stream(seed))
    return s, fit(s)


class TestSigmaEffMu:
    """sigma_eff_tau of a functional of the density alone: the plug-in
    variance under the fitted step density."""

    def test_exponential_analytic_oracle(self):
        # closed form 4 (int f^3 - (int f^2)^2) evaluated analytically
        oracle = 4.0 * (1.0 / 3.0 - 0.25)
        assert oracle == pytest.approx(4.0 / 12.0, abs=1e-15)
        # the plug-in at a large fitted sample approaches it
        s, d = _fit(EXP1, 100_000, 8)
        assert sigma_eff_tau(Z2, s, d) == pytest.approx(oracle, abs=0.03)

    def test_benchmark_truth_value(self):
        got = sigma_eff_tau(Z2, None, PWA.true_density())
        assert got == pytest.approx(3.314, abs=5e-4)
        assert got == pytest.approx(4.0 * (7.0 - 2.0 * math.sqrt(2.0)
                                           - (2.0 * math.sqrt(2.0) - 1.0) ** 2), rel=1e-12)

    def test_identity_functional_degenerate(self):
        assert sigma_eff_tau(Z1, None, PWA.true_density()) == 0.0

    def test_continuity_in_levels(self):
        d = PWA.true_density()
        base = sigma_eff_tau(Z2, None, d)
        for bump in (1e-8, -1e-8):
            levels = d.levels.copy()
            levels[0] += bump
            moved = sigma_eff_tau(Z2, None, unchecked_density(d.breakpoints, levels))
            assert abs(moved - base) <= 1e-6


EXP_MINUS_1 = SmoothFunctional(
    g=lambda z, x: np.expm1(z), gdot=lambda z, x: np.exp(z), gddot=lambda z, x: np.exp(z),
    x_free=True, vanishes_at_zero=True, name="expm1")
#: h(z) = sqrt(z): gdot(0) is inf, and the efficient variance under an
#: exponential truth, the integral of gdot^2 f = 1/4 over [0, inf), diverges
SQRT = SmoothFunctional(
    g=lambda z, x: np.sqrt(z), gdot=lambda z, x: 0.5 / np.sqrt(z),
    gddot=lambda z, x: -0.25 / np.sqrt(z) ** 3, x_free=True, name="sqrt")
#: h(z) = z^2 + 1: h(0) = 1, so its integral over [0, inf) diverges
Z2_PLUS_1 = SmoothFunctional(
    g=lambda z, x: np.asarray(z, dtype=float) ** 2 + 1.0, gdot=lambda z, x: 2.0 * z,
    gddot=lambda z, x: 2.0 + 0.0 * np.asarray(z, dtype=float), x_free=True, name="z2+1")
#: h(z) = z log z, the entropy integrand: its limit at 0 is 0, but not its value
XLOGX = SmoothFunctional(
    g=lambda z, x: z * np.log(z), gdot=lambda z, x: np.log(z) + 1.0,
    gddot=lambda z, x: 1.0 / z, x_free=True, name="xlogx")
XLOGX_MATH = SmoothFunctional(
    g=lambda z, x: z * math.log(z), gdot=lambda z, x: math.log(z) + 1.0,
    gddot=lambda z, x: 1.0 / z, x_free=True, name="xlogx-math")


class TestSigmaEffTau:
    @pytest.mark.parametrize("fn", [Z1, Z2, Z3, by_name("power:4"), EXP_MINUS_1],
                             ids=lambda fn: fn.name)
    @pytest.mark.parametrize("spec", [EXP1, ScenarioSpec.uniform(2.0), PWA], ids=lambda s: s.kind)
    def test_x_free_matches_the_empirical_variance(self, spec, fn):
        # by the carrier identity of the Grenander fit, the variance under
        # the fitted density is the variance of gdot(fhat(X_i)) over the
        # sample, the form the benchmark's oracle takes
        s, d = _fit(spec, 3000, 41)
        vals = fn.gdot(evaluate(d, s.values), s.values)
        empirical = float(np.mean(vals * vals)) - float(np.mean(vals)) ** 2
        got = sigma_eff_tau(fn, s, d)
        assert abs(got - empirical) <= 1e-12 * abs(empirical)

    def test_constant_gdot_gives_zero(self):
        g = SmoothFunctional(
            g=lambda z, x: 5.0 * np.asarray(z, dtype=float),
            gdot=lambda z, x: 5.0 + 0.0 * np.asarray(z, dtype=float),
            gddot=lambda z, x: 0.0 * np.asarray(z, dtype=float),
            x_free=True, vanishes_at_zero=True)
        s = draw(EXP1, 2000, default_stream(1))
        d = fit(s)
        assert sigma_eff_tau(g, s, d) == 0.0

    def test_exponential_quadratic(self):
        s = draw(EXP1, 100_000, default_stream(21))
        d = fit(s)
        assert sigma_eff_tau(Z2, s, d) == pytest.approx(1.0 / 3.0, abs=0.03)

    def test_xz2_benchmark(self):
        # Var(2 X f(X)) with piecewise-polynomial closed form
        c = 1.0 - 1.0 / math.sqrt(2.0)
        v1, v2 = math.sqrt(2.0) + 1.0, math.sqrt(2.0) - 1.0
        first = 2.0 * (v1 ** 2 * c ** 2 + v2 ** 2 * (1.0 - c ** 2)) / 2.0
        second = 4.0 * (v1 ** 3 * c ** 3 + v2 ** 3 * (1.0 - c ** 3)) / 3.0
        analytic = second - first ** 2
        s = draw(PWA, 100_000, default_stream(31))
        d = fit(s)
        assert sigma_eff_tau(XZ2, s, d) == pytest.approx(analytic, abs=0.05)

    def test_overflowing_gdot_is_a_numeric_failure(self):
        # g = (x z)^2 is about 1 at x = 1e308 and z = 1e-308, but its
        # gdot 2 x^2 z is about 2e308, past the float range
        x2z2 = SmoothFunctional(
            g=lambda z, x: (np.asarray(x, dtype=float) * z) ** 2,
            gdot=lambda z, x: 2.0 * np.asarray(x, dtype=float) ** 2 * z,
            gddot=lambda z, x: 2.0 * np.asarray(x, dtype=float) ** 2,
            vanishes_at_zero=True, name="x2z2")
        s = ingest([1e308])
        d = fit(s)
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(NumericError, match="efficient variance"):
                sigma_eff_tau(x2z2, s, d)

    @pytest.mark.parametrize("fitted", ["all", "first half"])
    def test_fit_read_by_counts_equals_evaluate(self, fitted):
        # data rounded to 0.01 tie on the knots; a fit of the first half
        # of the sample ends below its last observations, which take 0
        s = ingest(np.round(draw(PWA, 4000, default_stream(47)).values, 2))
        d = fit(s if fitted == "all" else ingest(s.values[:2000]))
        assert np.isin(s.values, d.breakpoints).sum() > d.breakpoints.size
        vals = XZ2.gdot(evaluate(d, s.values), s.values)
        m = float(np.mean(vals))
        assert sigma_eff_tau(XZ2, s, d) == max(float(np.mean(vals * vals)) - m * m, 0.0)

    def test_scalar_only_functional(self):
        # g written with math takes no arrays: gdot is taken one
        # observation at a time, with the arithmetic of the array case
        s, d = _fit(PWA, 2000, 43)
        pairs = zip(evaluate(d, s.values).tolist(), s.values.tolist())
        vals = np.array([SCALAR_ONLY.gdot(z, x) for z, x in pairs])
        m = float(np.mean(vals))
        assert sigma_eff_tau(SCALAR_ONLY, s, d) == float(np.mean(vals * vals)) - m * m


class TestTailRule:
    """The plug-in and the truths share one rule for the tail past the
    support: g(0, 0) == 0 for an x-free g, the declaration otherwise."""

    @pytest.mark.parametrize("G,accepted", [
        (dataclasses.replace(EXP_MINUS_1, vanishes_at_zero=False), True),
        (Z2_PLUS_1, False),
        (dataclasses.replace(XZ2, vanishes_at_zero=False), False),
    ], ids=["undeclared-expm1", "z2+1", "undeclared-xz2"])
    def test_plugin_and_truth_agree(self, G, accepted):
        d = PWA.true_density()
        if accepted:
            assert _truth(PWA, G)[0] == tau_plugin(G, d)
        else:
            for call in (lambda: tau_plugin(G, d), lambda: _truth(PWA, G)):
                with pytest.raises(NumericError, match="divergent tail"):
                    call()

    @pytest.mark.parametrize("G,found", [(XLOGX, "is nan"), (XLOGX_MATH, "raises ValueError")],
                             ids=["numpy", "math"])
    @pytest.mark.filterwarnings("error")
    def test_undefined_at_zero_is_one_numeric_failure(self, G, found):
        # z log z tends to 0 at 0 but is undefined there: numpy gives nan
        # (with warnings, here errors), math raises
        d = PWA.true_density()
        for call in (lambda: tau_plugin(G, d), lambda: _truth(PWA, G)):
            with pytest.raises(NumericError, match=rf"^divergent tail: .*: g\(0, 0\) {found}"):
                call()
        s = draw(ScenarioSpec.uniform(1.0), 200, default_stream(7))
        with pytest.raises(NumericError,
                           match=rf"^the uniform CLT statistic needs h\(0\): g\(0, 0\) {found}"):
            uniform_clt_statistic(G, s)

    def test_truncated_tail_refused(self):
        # sqrt(f) decays with f, but gdot^2 f = 1/4 does not: each of the
        # 64 cells adds (ln 2)/4, and the tail left out is infinite
        with pytest.raises(NumericError, match=r"truncated tail: the last cell \[43\.6"):
            _truth(EXP1, SQRT)
        # a compact support cuts nothing: tau = sum sqrt(v) w, and
        # sigma^2 = 1/4 - (tau / 2)^2 with mass 1 on [0, 1]
        d = PWA.true_density()
        tau = float(np.dot(np.sqrt(d.levels), d.piece_widths))
        assert _truth(PWA, SQRT) == pytest.approx((tau, 0.25 * (1.0 - tau * tau)), rel=1e-12)


class TestConfidenceIntervals:
    def test_degenerate_flagged(self):
        s = ingest([1.0, 1.0, 1.0, 2.0])
        # constant functional: h' constant so the variance is exactly 0
        ci = efficient_interval(Z1, s, 0.95)
        assert ci.degenerate
        assert ci.lower == ci.estimate == ci.upper

    def test_identity_interval_is_degenerate(self):
        # h' = 1 is constant, so the centered variance is exactly 0; the
        # uncentered m1 - m2^2 left 1.1e-16 here and a 1.3e-9 wide interval
        ci = efficient_interval(Z1, draw(EXP1, 1000, default_stream(2)), 0.95)
        assert (ci.sigma_hat, ci.degenerate, ci.width) == (0.0, True, 0.0)

    def test_width_scales_as_inverse_root_n(self):
        z = normal_quantile(0.975)
        a = ConfidenceInterval(1.0, 1.0 - z * 0.5 / 10.0, 1.0 + z * 0.5 / 10.0,
                               0.95, 0.5, 100)
        b = ConfidenceInterval(1.0, 1.0 - z * 0.5 / 20.0, 1.0 + z * 0.5 / 20.0,
                               0.95, 0.5, 400)
        assert a.width == pytest.approx(2.0 * b.width, rel=1e-12)

    def test_json_fields(self):
        s = draw(EXP1, 100, default_stream(0))
        blob = json.dumps(efficient_interval(Z2, s, 0.9).to_json())
        back = json.loads(blob)
        assert set(back) == {"estimate", "lower", "upper", "level", "sigma_hat",
                             "n", "degenerate", "validity"}
        assert back["lower"] <= back["estimate"] <= back["upper"]

    def test_scalar_only_functional(self):
        s, d = _fit(PWA, 2000, 43)
        ci = efficient_interval(SCALAR_ONLY, s, 0.95)
        assert ci.estimate == tau_plugin(SCALAR_ONLY, d)
        assert ci.sigma_hat == math.sqrt(sigma_eff_tau(SCALAR_ONLY, s, d))
        assert ci.lower < ci.estimate < ci.upper

    def test_infinite_gdot_at_zero_density(self):
        # gdot(0) f at f = 0 is inf * 0 = nan: no integral evaluates it,
        # since each is a step sum over the levels of the fit
        s = draw(EXP1, 1000, default_stream(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ci = efficient_interval(SQRT, s, 0.95)
        assert ci.estimate == tau_plugin(SQRT, fit(s))
        assert ci.lower < ci.estimate < ci.upper

    def test_bad_level_rejected(self):
        s = draw(EXP1, 100, default_stream(0))
        with pytest.raises(InputError):
            efficient_interval(Z2, s, 1.5)

    @pytest.mark.slow
    def test_coverage_exponential(self):
        # nominal 95%; band allows for the documented finite-n bias
        hits = 0
        reps = 1000
        for rep in range(reps):
            s = draw(EXP1, 10_000, default_stream(derive_seed(314, rep)))
            ci = efficient_interval(Z2, s, 0.95)
            hits += int(ci.lower <= 0.5 <= ci.upper)
        assert 0.91 <= hits / reps <= 0.97

    @pytest.mark.slow
    def test_coverage_benchmark_pwa(self):
        truth = 2.0 * math.sqrt(2.0) - 1.0
        hits = 0
        reps = 1000
        for rep in range(reps):
            s = draw(PWA, 20_000, default_stream(derive_seed(2718, rep)))
            ci = efficient_interval(Z2, s, 0.95)
            hits += int(ci.lower <= truth <= ci.upper)
        assert 0.92 <= hits / reps <= 0.97


class TestUniformCltStatistic:
    def test_quadratic_reduces_to_classic_form(self):
        s = draw(ScenarioSpec.uniform(1.0), 5000, default_stream(5))
        d = fit(s)
        n = s.n
        raw = n * (tau_plugin(Z2, d) - 1.0)
        expected = (raw - math.log(n)) / math.sqrt(3.0 * math.log(n))
        assert uniform_clt_statistic(Z2, s) == pytest.approx(expected, rel=1e-12)

    def test_cubic_uses_half_hpp(self):
        s = draw(ScenarioSpec.uniform(1.0), 3000, default_stream(6))
        d = fit(s)
        n = s.n
        b = 3.0  # h''(1)/2 for z^3
        raw = n * (tau_plugin(Z3, d) - 1.0)
        expected = (raw - b * math.log(n)) / math.sqrt(3.0 * b * b * math.log(n))
        assert uniform_clt_statistic(Z3, s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_constant_shift_is_the_statistic_of_its_root(self, seed):
        # the shift of h(z) = z^2 + 1 adds 1 over [0, 1], past X_(n) at
        # density 0 included; h(1) takes it out again, and b is unchanged
        s = draw(ScenarioSpec.uniform(1.0), 5000, default_stream(seed))
        assert uniform_clt_statistic(Z2_PLUS_1, s) == pytest.approx(
            uniform_clt_statistic(Z2, s), rel=1e-9)

    def test_linear_rejected(self):
        s = draw(ScenarioSpec.uniform(1.0), 100, default_stream(7))
        with pytest.raises(NumericError, match="degenerate normalization"):
            uniform_clt_statistic(Z1, s)

    def test_x_dependent_functional_rejected(self):
        s = draw(ScenarioSpec.uniform(1.0), 100, default_stream(7))
        with pytest.raises(InputError, match="density alone"):
            uniform_clt_statistic(XZ2, s)

    def test_out_of_range_observations_rejected(self):
        with pytest.raises(InputError, match="Uniform"):
            uniform_clt_statistic(Z2, ingest([0.5, 1.5]))
