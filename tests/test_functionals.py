import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from grenfun import functionals
from grenfun import (
    InputError,
    NumericError,
    ScenarioSpec,
    SmoothFunctional,
    StepDensity,
    by_name,
    default_stream,
    derive_seed,
    draw,
    empirical_average,
    evaluate,
    fit,
    ingest,
    nu_plugin,
    one_step_correction,
    tau_plugin,
)

from oracles import tau_plugin_by_piece

Z2 = by_name("power:2")
Z1 = by_name("identity")
XZ2 = by_name("xz2")

EXP_MINUS_1 = SmoothFunctional(
    g=lambda z, x: np.expm1(z), gdot=lambda z, x: np.exp(z), gddot=lambda z, x: np.exp(z),
    x_free=True, name="expm1")

PWA_TRUTH = ScenarioSpec.paper_pwa().true_density()


def flat(level, width):
    return StepDensity(np.array([width]), np.array([level]))


def _x_free(h, hprime, hdoubleprime):
    """The x-free functional g(z, x) = h(z)."""
    return SmoothFunctional(g=lambda z, x: h(z), gdot=lambda z, x: hprime(z),
                            gddot=lambda z, x: hdoubleprime(z), x_free=True)


class TestMuPlugin:
    """mu(f) = integral of h(f(x)) dx: tau_plugin of an x-free functional."""

    def test_identity_gives_total_mass(self):
        d = fit(draw(ScenarioSpec.exponential(1.0), 500, default_stream(0)))
        assert tau_plugin(Z1, d) == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_on_flat_density(self):
        assert tau_plugin(Z2, flat(1.0 / 3.0, 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_paper_value_on_benchmark_truth(self):
        val = tau_plugin(Z2, PWA_TRUTH)
        assert val == pytest.approx(1.828, abs=5e-4)
        assert val == pytest.approx(2.0 * math.sqrt(2.0) - 1.0, rel=1e-14)

    def test_divergent_tail_rejected(self):
        bad = _x_free(lambda z: np.asarray(z) + 1.0,
                      lambda z: np.ones_like(np.asarray(z, dtype=float)),
                      lambda z: np.zeros_like(np.asarray(z, dtype=float)))
        with pytest.raises(NumericError, match="divergent tail"):
            tau_plugin(bad, PWA_TRUTH)
        # a compact domain makes it integrable
        got = tau_plugin(bad, PWA_TRUTH, domain=(0.0, 2.0))
        assert got == pytest.approx(tau_plugin(Z1, PWA_TRUTH) + 2.0, abs=1e-12)

    def test_domain_must_cover_support(self):
        with pytest.raises(InputError, match="inside the density's support"):
            tau_plugin(Z2, PWA_TRUTH, domain=(0.0, 0.5))

    def test_split_step_invariance(self):
        # splitting a piece into two equal-level halves cannot change the sum
        d = StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        split = StepDensity(np.array([0.5, 1.0, 3.0]), np.array([0.5, 0.5, 0.25]),
                            validate=False)
        for h in (Z1, Z2, EXP_MINUS_1):
            assert tau_plugin(h, split) == pytest.approx(tau_plugin(h, d), rel=1e-15)


class TestTauPlugin:
    def test_x_free_reduces_to_mu(self):
        # the step sum of an x-free g is the quadrature of the same g
        # declared x-dependent
        d = fit(draw(ScenarioSpec.paper_pwa(), 2000, default_stream(3)))
        z2 = SmoothFunctional(Z2.g, Z2.gdot, Z2.gddot, z_max=Z2.z_max, vanishes_at_zero=True)
        assert tau_plugin(z2, d) == pytest.approx(tau_plugin(Z2, d), abs=1e-10)

    def test_xz2_on_unit_flat(self):
        assert tau_plugin(XZ2, flat(1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_quadrature_matches_closed_form_on_benchmark(self):
        got = tau_plugin(XZ2, PWA_TRUTH)
        edges = np.concatenate(([0.0], PWA_TRUTH.breakpoints))
        expected = float(np.dot(PWA_TRUTH.levels ** 2, np.diff(edges ** 2) / 2.0))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_quadrature_orders_agree(self):
        for order in (2, 4, 16):
            got = tau_plugin(XZ2, PWA_TRUTH, order=order)
            assert got == pytest.approx(tau_plugin(XZ2, PWA_TRUTH, order=32), abs=1e-10)

    def test_unbounded_domain_needs_vanishing_integrand(self):
        g = SmoothFunctional(
            g=lambda z, x: np.asarray(z, dtype=float) ** 2 + 1.0,
            gdot=lambda z, x: 2.0 * np.asarray(z, dtype=float),
            gddot=lambda z, x: 2.0 + 0.0 * np.asarray(z, dtype=float),
        )
        with pytest.raises(NumericError, match="divergent tail"):
            tau_plugin(g, PWA_TRUTH)

    def test_vanishes_at_zero_declaration_checked(self):
        with pytest.raises(InputError, match="vanishes_at_zero"):
            SmoothFunctional(
                g=lambda z, x: np.asarray(z, dtype=float) + 1.0,
                gdot=lambda z, x: 1.0 + 0.0 * np.asarray(z, dtype=float),
                gddot=lambda z, x: 0.0 * np.asarray(z, dtype=float),
                vanishes_at_zero=True,
            )


def _step_at(x, cut=0.3):
    return (np.asarray(x, dtype=float) > cut).astype(float)


#: g(z, x) = z^2 1{x > 0.3}: a jump in x that no bisection resolves
STEP_IN_X = SmoothFunctional(
    g=lambda z, x: z * z * _step_at(x),
    gdot=lambda z, x: 2.0 * z * _step_at(x),
    gddot=lambda z, x: 2.0 * _step_at(x) + 0.0 * z,
    vanishes_at_zero=True,
)


def _ramp_at(x, mid=0.5, width=0.01):
    return 1.0 + np.tanh((np.asarray(x, dtype=float) - mid) / width)


#: g(z, x) = z^2 (1 + tanh((x - 0.5) / 0.01)): smooth, but 16 and 32
#: nodes disagree on the piece holding the ramp until it is bisected
STEEP_IN_X = SmoothFunctional(
    g=lambda z, x: z * z * _ramp_at(x),
    gdot=lambda z, x: 2.0 * z * _ramp_at(x),
    gddot=lambda z, x: 2.0 * _ramp_at(x) + 0.0 * z,
    vanishes_at_zero=True,
)
#: g(z, x) = z^2 log(1 + x) through ``math``: scalar arguments only
SCALAR_ONLY = SmoothFunctional(
    g=lambda z, x: z * z * math.log1p(x),
    gdot=lambda z, x: 2.0 * z * math.log1p(x),
    gddot=lambda z, x: 2.0 * math.log1p(x),
    vanishes_at_zero=True,
)
#: g(z, x) = (z^2 + 1) x: g(0, x) = x does not vanish, so the tail counts
TAILED = SmoothFunctional(
    g=lambda z, x: (z * z + 1.0) * np.asarray(x, dtype=float),
    gdot=lambda z, x: 2.0 * z * np.asarray(x, dtype=float),
    gddot=lambda z, x: 2.0 * np.asarray(x, dtype=float) + 0.0 * z,
)
_TRUTHS = {"exponential": ScenarioSpec.exponential(1.0),
           "paper_pwa": ScenarioSpec.paper_pwa(),
           "uniform": ScenarioSpec.uniform(1.0)}


@pytest.fixture
def piece_calls(monkeypatch):
    """Depths of the calls tau_plugin makes to the one-piece quadrature."""
    depths = []
    one_piece = functionals._integrate_piece

    def counted(fn, a, b, order, depth=0):
        depths.append(depth)
        return one_piece(fn, a, b, order, depth)

    monkeypatch.setattr(functionals, "_integrate_piece", counted)
    return depths


class TestBatchedQuadrature:
    """tau_plugin evaluates all pieces in one batch per order; it must
    return the same float as the one-piece-at-a-time loop."""

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000, 1_000_000])
    @pytest.mark.parametrize("truth", sorted(_TRUTHS))
    def test_ecdf_fits_byte_equal(self, truth, n, piece_calls):
        d = fit(draw(_TRUTHS[truth], n, default_stream(derive_seed(606, n))))
        assert tau_plugin(XZ2, d) == tau_plugin_by_piece(XZ2, d)
        assert piece_calls == []  # every piece took the batched path

    def test_split_step_density(self):
        d = StepDensity(np.array([0.25, 0.5, 1.0]), np.array([1.2, 1.2, 0.8]), validate=False)
        assert tau_plugin(XZ2, d) == tau_plugin_by_piece(XZ2, d)

    @pytest.mark.parametrize("density", ["paper_pwa", "fit"])
    def test_compact_domain_with_tail(self, density, piece_calls):
        d = (PWA_TRUTH if density == "paper_pwa"
             else fit(draw(ScenarioSpec.exponential(1.0), 5_000, default_stream(17))))
        domain = (0.0, d.support_end + 1.5)
        got = tau_plugin(TAILED, d, domain=domain)
        assert got == tau_plugin_by_piece(TAILED, d, domain=domain)
        assert got != tau_plugin(TAILED, d, domain=(0.0, d.support_end))
        assert piece_calls == [0]  # the tail alone

    @pytest.mark.parametrize("density", ["paper_pwa", "fit"])
    def test_bisected_pieces(self, density, piece_calls):
        d = (PWA_TRUTH if density == "paper_pwa"
             else fit(draw(ScenarioSpec.exponential(1.0), 10_000, default_stream(23))))
        assert tau_plugin(STEEP_IN_X, d) == tau_plugin_by_piece(STEEP_IN_X, d)
        assert max(piece_calls) > 0

    def test_scalar_only_integrand_falls_back(self, piece_calls):
        d = fit(draw(ScenarioSpec.paper_pwa(), 1_000, default_stream(29)))
        assert tau_plugin(SCALAR_ONLY, d) == tau_plugin_by_piece(SCALAR_ONLY, d)
        assert piece_calls.count(0) == d.levels.size

    def test_unresolved_piece_raises(self):
        # the jump at x = 0.3 leaves an error of about 3e-7 at the depth cap
        with pytest.raises(NumericError, match=r"unresolved on 1 piece.*piece 1 on \[.*error 3"):
            tau_plugin(STEP_IN_X, PWA_TRUTH)


class TestNuPlugin:
    def test_constant_gives_total_mass(self):
        one = _x_free(lambda z: np.ones_like(np.asarray(z, dtype=float)),
                      lambda z: np.zeros_like(np.asarray(z, dtype=float)),
                      lambda z: np.zeros_like(np.asarray(z, dtype=float)))
        assert nu_plugin(one, PWA_TRUTH) == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_flat(self):
        assert nu_plugin(Z1, flat(1.0 / 3.0, 3.0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_no_vanishing_requirement(self):
        shifted = _x_free(lambda z: np.asarray(z, dtype=float) + 2.0,
                          lambda z: np.ones_like(np.asarray(z, dtype=float)),
                          lambda z: np.zeros_like(np.asarray(z, dtype=float)))
        assert nu_plugin(shifted, PWA_TRUTH) > 0.0

    def test_x_dependent_functional_rejected(self):
        s = ingest([2.0, 3.0])
        d = fit(s)
        for call in (lambda: nu_plugin(XZ2, d), lambda: empirical_average(XZ2, s, d),
                     lambda: one_step_correction(XZ2, s, d)):
            with pytest.raises(InputError, match="density alone"):
                call()


class TestCarrierIdentity:
    def test_hand_example(self):
        s = ingest([2.0, 3.0])
        d = fit(s)
        assert empirical_average(Z1, s, d) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert nu_plugin(Z1, d) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @given(st.integers(min_value=0, max_value=3_000))
    def test_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        spec = [ScenarioSpec.exponential(1.0), ScenarioSpec.uniform(2.0),
                ScenarioSpec.paper_pwa()][seed % 3]
        n = int(rng.integers(1, 2000))
        s = draw(spec, n, default_stream(derive_seed(1234, seed)))
        d = fit(s)
        h = [Z1, Z2, EXP_MINUS_1][seed % 3 if seed % 2 else 0]
        if float(np.max(d.levels)) > h.z_max:
            h = Z2  # spiked level left the declared domain of exp(z)-1
        lhs = nu_plugin(h, d)
        rhs = empirical_average(h, s, d)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(st.integers(min_value=0, max_value=3_000))
    @example(seed=2354)
    def test_one_step_correction_vanishes(self, seed):
        rng = np.random.default_rng(seed + 777)
        n = int(rng.integers(2, 2000))
        s = draw(ScenarioSpec.exponential(1.0), n, default_stream(derive_seed(99, seed)))
        d = fit(s)
        # the correction is a difference of two sums that agree exactly
        # in real arithmetic, so bound it by their size: at seed 2354 both
        # are near 6.6e5, and one rounding step of them is 2^-33 ~ 1.2e-10

        def w(z):
            return Z2.g(z, 0.0) + z * Z2.gdot(z, 0.0)

        scale = (float(np.mean(np.abs(w(evaluate(d, s.values)))))
                 + abs(float(np.dot(w(d.levels) * d.levels, d.piece_widths))))
        assert abs(one_step_correction(Z2, s, d)) <= 1e-14 * scale


class TestFunctionalValidation:
    def test_wrong_derivative_rejected(self):
        with pytest.raises(InputError, match="gdot"):
            _x_free(lambda z: np.asarray(z, dtype=float) ** 2,
                    lambda z: 3.0 * np.asarray(z, dtype=float),
                    lambda z: 2.0 + 0.0 * np.asarray(z, dtype=float))

    def test_wrong_second_derivative_rejected(self):
        with pytest.raises(InputError, match="gddot"):
            _x_free(lambda z: np.asarray(z, dtype=float) ** 2,
                    lambda z: 2.0 * np.asarray(z, dtype=float),
                    lambda z: 7.0 + 0.0 * np.asarray(z, dtype=float))

    def test_wrong_gdot_rejected(self):
        with pytest.raises(InputError, match="gdot"):
            SmoothFunctional(g=lambda z, x: x * z * z,
                             gdot=lambda z, x: x * z,
                             gddot=lambda z, x: 2.0 * x)

    def test_wrong_gddot_rejected_at_probe_point(self):
        with pytest.raises(InputError, match=r"gddot disagrees .* at \(z=.*, x=.*\)"):
            SmoothFunctional(g=lambda z, x: x * z * z,
                             gdot=lambda z, x: 2.0 * x * z,
                             gddot=lambda z, x: 3.0 * x)

    @given(p=st.floats(1.5, 4.0), z_max=st.floats(1e-5, 0.05), x_free=st.booleans())
    @example(p=1.5, z_max=1e-3, x_free=False)
    @example(p=1.5, z_max=1e-4, x_free=True)
    def test_exact_power_accepted_near_zero(self, p, z_max, x_free):
        # every probe lies in (0, z_max], where the central difference steps
        # by 6e-6 z; exact derivatives of c z^p must pass there.  Probes
        # above a z_max under 1e-3, with a fixed step of 6e-6, rejected
        # z^1.5 at z_max = 1e-4 ("gddot disagrees")
        c = (lambda x: 1.0) if x_free else (lambda x: 1.0 + x)
        fn = SmoothFunctional(g=lambda z, x: c(x) * z ** p,
                              gdot=lambda z, x: c(x) * p * z ** (p - 1.0),
                              gddot=lambda z, x: c(x) * p * (p - 1.0) * z ** (p - 2.0),
                              z_max=z_max, x_free=x_free, vanishes_at_zero=True)
        assert fn.z_max == z_max


class TestRegistry:
    def test_power_names(self):
        for p in (1, 2, 3, 5):
            fn = by_name(f"power:{p}")
            assert isinstance(fn, SmoothFunctional) and fn.x_free and fn.vanishes_at_zero
            assert fn.g(2.0, 5.0) == pytest.approx(2.0 ** p)

    def test_identity_alias(self):
        assert by_name("identity").g(3.5, 0.0) == pytest.approx(3.5)

    def test_xz2_is_smooth_functional(self):
        assert isinstance(by_name("xz2"), SmoothFunctional)
        assert by_name("xz2").g(2.0, 3.0) == pytest.approx(12.0)

    @pytest.mark.parametrize("bad", ["power:0", "power:x", "entropy", "z^2"])
    def test_unknown_names_listed(self, bad):
        with pytest.raises(InputError, match="valid names"):
            by_name(bad)
