import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from grenfun import (
    InputError,
    NumericError,
    ScenarioSpec,
    StepDensity,
    default_stream,
    derive_seed,
    draw,
    ecdf,
    evaluate,
    fit,
    ingest,
    lcm,
)

from oracles import grenander_levels_by_pava

SCENARIOS = [ScenarioSpec.exponential(1.0), ScenarioSpec.uniform(2.0),
             ScenarioSpec.paper_pwa()]


class TestFit:
    def test_single_observation(self):
        d = fit(ingest([1.0]))
        assert np.array_equal(d.breakpoints, [1.0])
        assert np.array_equal(d.levels, [1.0])

    def test_pooled_violator(self):
        d = fit(ingest([2.0, 3.0]))
        assert np.array_equal(d.breakpoints, [3.0])
        assert d.levels == pytest.approx([1.0 / 3.0])

    def test_already_concave_ecdf(self):
        d = fit(ingest([1.0, 3.0]))
        assert np.array_equal(d.breakpoints, [1.0, 3.0])
        assert d.levels == pytest.approx([0.5, 0.25])

    def test_all_zero_rejected(self):
        with pytest.raises(NumericError, match="degenerate"):
            fit(ingest([0.0, 0.0]))

    def test_subnormal_first_level_is_numeric_failure(self):
        # 1/n over a subnormal first knot overflows the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows"):
                fit(ingest([2.2250738585e-313]))

    def test_interior_zeros_pooled_into_first_piece(self):
        # zeros carry no width; their mass folds into the first slope so
        # the estimate stays a proper unit-mass density
        d = fit(ingest([0.0, 1.0]))
        assert np.array_equal(d.breakpoints, [1.0])
        assert np.array_equal(d.levels, [1.0])
        assert d.mass == pytest.approx(1.0, abs=1e-12)

    def test_last_breakpoint_is_max_observation(self):
        s = draw(ScenarioSpec.exponential(1.0), 500, default_stream(1))
        d = fit(s)
        assert d.breakpoints[-1] == s.values[-1]
        assert set(d.breakpoints).issubset(set(s.values))

    @pytest.mark.parametrize("spec", SCENARIOS, ids=[s.kind for s in SCENARIOS])
    @pytest.mark.parametrize("n", [1, 2, 17, 1000, 10_000])
    def test_mass_is_one(self, spec, n):
        d = fit(draw(spec, n, default_stream(derive_seed(99, n))))
        assert abs(d.mass - 1.0) <= 1e-10

    def test_levels_equal_hull_slopes_exactly(self):
        s = draw(ScenarioSpec.paper_pwa(), 2000, default_stream(4))
        xs, ys = ecdf(s)
        hull = lcm(xs, ys, interval=(0.0, float(xs[-1])))
        d = fit(s)
        assert np.array_equal(d.levels, hull.slopes)
        assert np.array_equal(d.breakpoints, hull.knots[1:])

    def test_refit_on_own_cdf_knots_is_idempotent(self):
        s = draw(ScenarioSpec.exponential(1.0), 300, default_stream(12))
        d = fit(s)
        knots = np.concatenate(([0.0], d.breakpoints))
        heights = d.cdf(knots)
        hull = lcm(knots, heights)
        assert np.array_equal(hull.knots, knots)
        assert np.array_equal(hull.slopes, d.levels)


class TestPavaEquivalence:
    @given(st.integers(min_value=0, max_value=2_000))
    def test_levels_match_pava_oracle(self, seed):
        rng = np.random.default_rng(seed)
        spec = SCENARIOS[seed % 3]
        n = int(rng.integers(1, 400))
        s = draw(spec, n, default_stream(derive_seed(7, seed)))
        d = fit(s)
        fitted = evaluate(d, s.values)
        oracle = grenander_levels_by_pava(s.values)
        np.testing.assert_allclose(fitted, oracle, rtol=1e-12, atol=1e-13)


def _lcm_route(s):
    """The hull of the Grenander fit through the public ``lcm``: sort,
    filter to [0, max], pool ties, hull, validate."""
    xs, ys = ecdf(s)
    ys[0] = 0.0
    return lcm(xs, ys, interval=(0.0, float(xs[-1])))


_WIDE = st.floats(min_value=1e-300, max_value=1e300)
_ADVERSARIAL = st.one_of(
    # any magnitude from 1e-300 to 1e300, with exact zeros mixed in
    st.lists(st.one_of(_WIDE, st.just(0.0)), min_size=1, max_size=60),
    # heavy ties on a few values
    st.lists(st.sampled_from([0.0, 1e-300, 0.5, 1.0, 3.0, 1e300]), min_size=1, max_size=80),
    # near-collinear ECDF runs: an evenly spaced grid, some points one ulp up
    st.builds(
        lambda start, step, nudges: [
            float(np.nextafter(start + step * i, np.inf) if nudge and i else start + step * i)
            for i, nudge in enumerate(nudges)
        ],
        st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1e3)),
        st.floats(min_value=1e-12, max_value=10.0),
        st.lists(st.booleans(), min_size=1, max_size=200),
    ),
)


class TestFitProperties:
    """The fit goes to the hull kernel directly; it must match the
    public ``lcm`` route bit for bit and stay a proper density."""

    @given(_ADVERSARIAL)
    @example([1.0])
    @example([0.0, 0.0, 2.0])
    @example([1e-300, 1e300])
    @example([0.0, 5.5, 11.0, 16.5, 22.000000000000004, 27.500000000000004, 33.00000000000001])
    def test_direct_fit_matches_lcm_route_and_pava(self, raw):
        assume(max(raw) > 0.0)
        s = ingest(raw)
        d = fit(s)
        hull = _lcm_route(s)
        if np.all(np.diff(hull.slopes) < 0.0):
            assert d.breakpoints.tobytes() == hull.knots[1:].tobytes()
            assert d.levels.tobytes() == hull.slopes.tobytes()
        else:
            # hull slopes that round to non-decreasing levels are pooled
            assert set(d.breakpoints.tolist()) < set(hull.knots[1:].tolist())
        assert abs(d.mass - 1.0) <= 1e-10
        assert np.all(np.diff(d.levels) < 0.0)
        np.testing.assert_allclose(evaluate(d, s.values),
                                   grenander_levels_by_pava(s.values), rtol=1e-12, atol=0.0)


class TestEvaluate:
    @pytest.fixture
    def density(self):
        return StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))

    def test_boundary_owned_by_left_piece(self, density):
        assert evaluate(density, 1.0) == 0.5

    def test_beyond_support_is_zero(self, density):
        assert evaluate(density, 4.0) == 0.0

    def test_density_at_zero_is_first_level(self, density):
        assert evaluate(density, 0.0) == 0.5

    def test_negative_rejected(self, density):
        with pytest.raises(InputError):
            evaluate(density, -0.1)

    def test_vectorized(self, density):
        out = evaluate(density, np.array([0.0, 1.0, 2.0, 3.0, 10.0]))
        assert np.array_equal(out, [0.5, 0.5, 0.25, 0.25, 0.0])


class TestStepDensityType:
    def test_mass_must_be_one(self):
        with pytest.raises(InputError, match="mass"):
            StepDensity(np.array([1.0]), np.array([0.5]))

    def test_levels_must_decrease(self):
        with pytest.raises(InputError, match="strictly decreasing"):
            StepDensity(np.array([0.5, 1.0]), np.array([1.0, 1.0]))

    def test_breakpoints_positive_increasing(self):
        with pytest.raises(InputError):
            StepDensity(np.array([-1.0, 1.0]), np.array([0.6, 0.4]))

    def test_json_round_trip(self):
        d = ScenarioSpec.paper_pwa().true_density()
        back = StepDensity.from_json(d.to_json())
        assert np.array_equal(back.breakpoints, d.breakpoints)
        assert np.array_equal(back.levels, d.levels)

    def test_csv_round_trip(self):
        d = StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        back = StepDensity.from_csv(d.to_csv())
        assert np.array_equal(back.breakpoints, d.breakpoints)
        assert np.array_equal(back.levels, d.levels)

    def test_cdf(self):
        d = StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.5)
        assert d.cdf(2.0) == pytest.approx(0.75)
        assert d.cdf(99.0) == pytest.approx(1.0)
