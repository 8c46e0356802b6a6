import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    evaluate,
    fit,
    ingest,
    tau_plugin,
)
from grenfun.functionals import _QUAD_ORDER, _gl_rows, _quadrature

from oracles import (empirical_average, nu_plugin, one_step_correction, tau_plugin_by_piece,
                     unchecked_density)

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

    def test_overflowing_integral_raises(self):
        # one observation at 7.6e-194 fits the level 1.3e193, whose square
        # overflows: the estimate was inf, printed as Infinity with exit 0
        x = 7.6267246987481e-194
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="integral is inf"):
            tau_plugin(Z2, fit(ingest([x])))

    def test_underflowing_integral_raises(self):
        # every level's square underflows to 0: the estimate has no digits
        for level in (1e-300, 1e-170):
            with pytest.raises(NumericError, match="is 0.0: the integrand underflows"):
                tau_plugin(Z2, flat(level, 1.0 / level))

    def test_small_terms_may_underflow(self):
        # z^200 underflows on the second piece only, which adds nothing
        two_steps = StepDensity(np.array([0.25, 0.25 + 1e6]), np.array([2.0, 5e-7]))
        z200 = by_name("power:200")
        assert tau_plugin(z200, two_steps) == 0.25 * 2.0 ** 200

    def test_split_step_invariance(self):
        # splitting a piece into two equal-level halves cannot change the sum
        d = StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        split = unchecked_density([0.5, 1.0, 3.0], [0.5, 0.5, 0.25])
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
        edges = np.concatenate(([0.0], PWA_TRUTH.breakpoints))

        def at(order):
            return _quadrature(XZ2.g, PWA_TRUTH.levels, edges[:-1], edges[1:], order)

        for order in (2, 4, 16):
            assert at(order) == pytest.approx(at(32), abs=1e-10)
        assert tau_plugin(XZ2, PWA_TRUTH) == at(_QUAD_ORDER)

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


def _step_at(x):
    return (np.asarray(x, dtype=float) > 0.3).astype(float)


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
_TRUTHS = {"exponential": ScenarioSpec.exponential(1.0),
           "paper_pwa": ScenarioSpec.paper_pwa(),
           "uniform": ScenarioSpec.uniform(1.0)}


def _counted(G):
    """G with a g that records the shape of the x of every call, and that
    record (emptied of the calls that validated the copy)."""
    calls = []

    def g(z, x):
        calls.append(np.shape(x))
        return G.g(z, x)

    copy = dataclasses.replace(G, g=g)
    calls.clear()
    return copy, calls


class TestBatchedQuadrature:
    """tau_plugin evaluates g once per order and bisection round, on all
    pieces at once; it must return the same float as the one-piece-at-a-
    time recursion of the oracle."""

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000, 1_000_000])
    @pytest.mark.parametrize("truth", sorted(_TRUTHS))
    def test_ecdf_fits_byte_equal(self, truth, n):
        d = fit(draw(_TRUTHS[truth], n, default_stream(derive_seed(606, n))))
        xz2, calls = _counted(XZ2)
        assert tau_plugin(xz2, d) == tau_plugin_by_piece(XZ2, d)
        k = d.levels.size
        assert calls == [(k, 16), (k, 32)]  # one batch per order, no bisection

    def test_split_step_density(self):
        d = unchecked_density([0.25, 0.5, 1.0], [1.2, 1.2, 0.8])
        assert tau_plugin(XZ2, d) == tau_plugin_by_piece(XZ2, d)

    @pytest.mark.parametrize("density", ["paper_pwa", "fit"])
    def test_bisected_pieces(self, density):
        d = (PWA_TRUTH if density == "paper_pwa"
             else fit(draw(ScenarioSpec.exponential(1.0), 10_000, default_stream(23))))
        steep, calls = _counted(STEEP_IN_X)
        assert tau_plugin(steep, d) == tau_plugin_by_piece(STEEP_IN_X, d)
        # one pair of calls per round: all pieces, then the halves of the
        # pieces the round before left unresolved
        assert len(calls) > 2 and calls[0] == (d.levels.size, 16)
        assert calls[0::2] == [(rows, 16) for rows, _ in calls[1::2]]
        assert all(rows % 2 == 0 for rows, _ in calls[2:])

    def test_bisection_rounds_are_batched(self):
        # the ramp at x = 0.5 lies in piece 1 of PWA_TRUTH, [0.29, 1.0];
        # 16 and 32 nodes agree once it has been halved 4 times.  One
        # round evaluates g once per order, however many halves it holds
        steep, calls = _counted(STEEP_IN_X)
        tau_plugin(steep, PWA_TRUTH)
        rounds = 4
        assert len(calls) == 2 * (rounds + 1)

    def test_scalar_only_integrand_falls_back(self):
        d = fit(draw(ScenarioSpec.paper_pwa(), 1_000, default_stream(29)))
        scalar_only, calls = _counted(SCALAR_ONLY)
        assert tau_plugin(scalar_only, d) == tau_plugin_by_piece(SCALAR_ONLY, d)
        # the node matrix is refused once per order, then g is taken one
        # node at a time, with no call on a row in between
        k = d.levels.size
        assert calls == [(k, 16)] + [()] * (16 * k) + [(k, 32)] + [()] * (32 * k)

    @pytest.mark.parametrize("order", [16, 32])
    @pytest.mark.parametrize("rows", [1, 7, 400])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_rows_reduce_as_one_dot_each(self, layout, rows, order):
        # _gl_rows reduces all rows in one stacked product, and each row
        # must sum as np.dot of that row alone, whatever layout g returns
        # it in: a matrix-vector product would sum in another order
        rng = default_stream(derive_seed(707, rows * order))
        levels = 10.0 ** rng.uniform(-8.0, 8.0, rows)
        a = rng.uniform(0.0, 5.0, rows)
        b = a + rng.uniform(1e-3, 2.0, rows)

        def values(z, x):
            return z * np.cos(7.0 * x) * (1.0 + x)

        def g(z, x):
            return values(z, x) if layout == "C" else np.asfortranarray(values(z, x))

        nodes, weights = np.polynomial.legendre.leggauss(order)
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * nodes
        alone = [float(np.dot(weights, row)) for row in values(levels[:, None], x)]
        assert _gl_rows(g, levels, a, b, order).tolist() == (half * np.array(alone)).tolist()

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
