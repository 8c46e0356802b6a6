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
)

from oracles import grenander_levels_by_pava, stack_scan_hull_indices

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
        knots, slopes = _full_scan_hull(s)
        d = fit(s)
        assert d.levels.tobytes() == slopes.tobytes()
        assert d.breakpoints.tobytes() == knots[1:].tobytes()

    def test_refit_on_own_cdf_knots_is_idempotent(self):
        s = draw(ScenarioSpec.exponential(1.0), 300, default_stream(12))
        d = fit(s)
        knots = np.concatenate(([0.0], d.breakpoints))
        heights = d.cdf(knots)
        assert stack_scan_hull_indices(knots, heights) == list(range(knots.size))
        assert np.array_equal(np.diff(heights) / np.diff(knots), d.levels)


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


def _full_scan_hull(s):
    """Knots and slopes of the LCM of the sample's ECDF, anchored at 0 at
    the origin, with vertices by the oracle's unpruned scan."""
    xs, ys = ecdf(s)
    ys[0] = 0.0
    idx = stack_scan_hull_indices(xs, ys)
    return xs[idx], np.diff(ys[idx]) / np.diff(xs[idx])


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
    """The fit goes through the pruned hull kernel; it must match the
    unpruned scan of the ECDF points bit for bit and stay a proper
    density."""

    @given(_ADVERSARIAL)
    @example([1.0])
    @example([0.0, 0.0, 2.0])
    @example([1e-300, 1e300])
    @example([0.0, 5.5, 11.0, 16.5, 22.000000000000004, 27.500000000000004, 33.00000000000001])
    def test_direct_fit_matches_lcm_route_and_pava(self, raw):
        assume(max(raw) > 0.0)
        s = ingest(raw)
        d = fit(s)
        knots, slopes = _full_scan_hull(s)
        if np.all(np.diff(slopes) < 0.0):
            assert d.breakpoints.tobytes() == knots[1:].tobytes()
            assert d.levels.tobytes() == slopes.tobytes()
        else:
            # hull slopes that round to non-decreasing levels are pooled
            assert set(d.breakpoints.tolist()) < set(knots[1:].tolist())
        assert abs(d.mass - 1.0) <= 1e-10
        assert np.all(np.diff(d.levels) < 0.0)
        np.testing.assert_allclose(evaluate(d, s.values),
                                   grenander_levels_by_pava(s.values), rtol=1e-12, atol=0.0)


class TestUniformPieceCount:
    """Under Uniform[0, 1] the pieces of the fit are the cycles of a
    uniform random permutation of n, so their count has mean H_n and
    variance H_n - sum 1/k^2 (Stirling numbers of the first kind): an
    exact check of draw, ECDF and hull kernel at scale.  The bands are
    4 SE: over 40 runs of each size the mean stayed within 3.1 SE and the
    variance within 2.4 SE, and at this seed within 1.6 and 0.3 SE."""

    @pytest.mark.parametrize("n,reps", [(1000, 2000), (10_000, 1000)])
    def test_mean_and_variance(self, n, reps):
        stream = default_stream(derive_seed(0, n))
        counts = np.array([fit(draw(ScenarioSpec.uniform(1.0), n, stream)).levels.size
                           for _ in range(reps)])
        k = np.arange(1, n + 1, dtype=float)
        mean = np.sum(1.0 / k)
        var = mean - np.sum(1.0 / k**2)
        assert abs(counts.mean() - mean) <= 4.0 * np.sqrt(var / reps)
        # the SE of a sample variance is about sqrt(2 / reps) of it
        assert abs(counts.var(ddof=1) / var - 1.0) <= 4.0 * np.sqrt(2.0 / reps)


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

    @pytest.mark.parametrize("breakpoints,levels", [
        ([np.nan], [1.0]), ([1.0], [np.nan]), ([0.5, np.inf], [1.5, 0.5]),
        ([1.0, 2.0], [np.inf, 0.0]),
    ], ids=["nan-breakpoint", "nan-level", "inf-breakpoint", "inf-level"])
    def test_non_finite_rejected(self, breakpoints, levels):
        # comparisons cannot see NaN: [nan], [1.0] passed with mass nan
        with pytest.raises(InputError, match="must be finite"):
            StepDensity(breakpoints, levels)

    def test_cdf(self):
        d = StepDensity(np.array([1.0, 3.0]), np.array([0.5, 0.25]))
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == pytest.approx(0.5)
        assert d.cdf(2.0) == pytest.approx(0.75)
        assert d.cdf(99.0) == pytest.approx(1.0)
