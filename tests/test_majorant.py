import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grenfun import (
    InputError,
    PiecewiseLinearConcave,
    ScenarioSpec,
    default_stream,
    draw,
    ecdf,
    lcm,
)
from grenfun.limitlaw import _bridge_values
from grenfun.majorant import PRUNE_FLOOR, _hull_indices

from oracles import brute_force_hull_indices, fill_chords, stack_scan_hull_indices


def random_point_set(rng, max_n=200, dyadic=False):
    n = int(rng.integers(2, max_n + 1))
    if dyadic:
        xs = np.sort(rng.integers(0, 257, n)) / 128.0
        ys = rng.integers(0, 513, n) / 256.0
    else:
        xs = np.sort(rng.random(n)) * 10.0
        ys = rng.random(n)
    return xs, ys


class TestLcmBasics:
    def test_already_concave_collinear_dropped(self):
        # equal slopes: the interior point is not a vertex of the
        # canonical minimal knot set, but the hull IS the polyline
        hull = lcm([0.0, 1.0, 2.0], [0.0, 0.5, 1.0], interval=(0.0, 2.0))
        assert np.array_equal(hull.knots, [0.0, 2.0])
        assert np.array_equal(hull.values, [0.0, 1.0])
        assert hull(1.0) == 0.5

    def test_convexity_violation_pooled(self):
        hull = lcm([0.0, 2.0, 3.0], [0.0, 0.5, 1.0], interval=(0.0, 3.0))
        assert np.array_equal(hull.knots, [0.0, 3.0])
        assert hull.slopes == pytest.approx([1.0 / 3.0])

    def test_single_point(self):
        hull = lcm([1.0], [2.0])
        assert hull(0.0) == 2.0 and hull(5.0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            lcm([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            lcm([0.0, 1.0], [0.0, float("inf")])

    def test_ties_pooled_to_max(self):
        hull = lcm([0.0, 0.0, 1.0], [0.3, 0.1, 0.2])
        assert hull(0.0) == 0.3

    def test_constant_extension_beyond_last_knot(self):
        hull = lcm([0.0, 1.0], [0.0, 1.0])
        assert hull(2.5) == 1.0

    def test_interval_filters_points(self):
        hull = lcm([0.0, 1.0, 2.0, 50.0], [0.0, 0.9, 1.0, 0.0], interval=(0.0, 2.0))
        assert hull.knots[-1] == 2.0


class TestOracleAgreement:
    @pytest.mark.parametrize("dyadic", [False, True], ids=["continuous", "dyadic"])
    def test_matches_brute_force(self, dyadic):
        rng = np.random.default_rng(101 if dyadic else 100)
        for _ in range(150):
            xs, ys = random_point_set(rng, max_n=120, dyadic=dyadic)
            xs_u, inv = np.unique(xs, return_inverse=True)
            ys_u = np.full(xs_u.size, -np.inf)
            np.maximum.at(ys_u, inv, ys)
            hull = lcm(xs, ys)
            idx = brute_force_hull_indices(xs_u, ys_u)
            assert np.array_equal(hull.knots, xs_u[idx])
            assert np.array_equal(hull.values, ys_u[idx])


def _concave_chain(n):
    # integer coordinates: every cross product is exact
    xs = np.arange(n, dtype=float)
    return xs, -((xs - n // 2) ** 2)


class TestPrunedKernel:
    """The prune runs only above PRUNE_FLOOR points, so these inputs are
    larger than that; the kernel must return exactly the vertices of an
    unpruned scan and of the chord oracle."""

    @pytest.mark.parametrize("kind", ["continuous", "dyadic", "bridge"])
    def test_matches_brute_force_above_floor(self, kind):
        rng = np.random.default_rng({"continuous": 200, "dyadic": 201, "bridge": 202}[kind])
        for _ in range(40):
            n = int(rng.integers(PRUNE_FLOOR + 1, 401))
            if kind == "continuous":
                xs = np.unique(rng.random(n)) * 10.0
                ys = rng.random(xs.size)
            elif kind == "dyadic":
                # coarse dyadic values: exact arithmetic, long collinear runs
                xs = np.arange(n) / 64.0
                ys = rng.integers(0, 9, n) / 8.0
            else:
                xs = np.linspace(0.0, 1.0, n)
                ys = _bridge_values(xs, 1, rng)[0]
            idx = _hull_indices(xs, ys)
            assert np.array_equal(idx, brute_force_hull_indices(xs, ys))

    @pytest.mark.parametrize("spec", [ScenarioSpec.exponential(1.0), ScenarioSpec.paper_pwa(),
                                      ScenarioSpec.uniform(1.0)], ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_ecdf_hulls_match_full_scan(self, spec, n):
        xs, ys = ecdf(draw(spec, n, default_stream(n)))
        expected = stack_scan_hull_indices(xs, ys)
        assert np.array_equal(_hull_indices(xs, ys), expected)
        assert np.array_equal(lcm(xs, ys).knots, xs[expected])

    def test_concave_chain_with_raised_end(self):
        # each prune pass drops one point here; the stop rule hands the
        # rest to the scan
        xs, ys = _concave_chain(5000)
        ys[-1] = 1e9
        idx = _hull_indices(xs, ys)
        assert np.array_equal(idx, stack_scan_hull_indices(xs, ys))
        assert idx[0] == 0 and idx[-1] == xs.size - 1

    def test_strictly_concave_chain_keeps_every_point(self):
        xs, ys = _concave_chain(1000)
        assert np.array_equal(_hull_indices(xs, ys), np.arange(xs.size))

    def test_strictly_convex_chain_keeps_endpoints(self):
        xs, ys = _concave_chain(1000)
        assert np.array_equal(_hull_indices(xs, -ys), [0, xs.size - 1])

    def test_collinear_keeps_endpoints(self):
        xs = np.arange(1000, dtype=float)
        assert np.array_equal(_hull_indices(xs, 3.0 * xs - 7.0), [0, xs.size - 1])

    def test_constant_keeps_endpoints(self):
        xs = np.arange(1000, dtype=float)
        assert np.array_equal(_hull_indices(xs, np.full(xs.size, 2.5)),
                              [0, xs.size - 1])

    def test_two_points(self):
        assert np.array_equal(_hull_indices(np.array([0.0, 1.0]), np.array([5.0, -1.0])),
                              [0, 1])


class TestHullInvariants:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_majorant_idempotent_monotone_slopes(self, seed):
        rng = np.random.default_rng(seed)
        xs, ys = random_point_set(rng, max_n=80)
        hull = lcm(xs, ys)
        # majorant property at every input point (1-ulp slack at chords)
        at_inputs = hull(xs)
        assert np.all(at_inputs >= ys - 1e-13 * np.maximum(1.0, np.abs(ys)))
        # hull touches input values exactly at its knots
        knot_pos = np.searchsorted(xs, hull.knots)
        assert np.array_equal(hull(hull.knots), ys[knot_pos])
        # slopes strictly decreasing between canonical knots
        if hull.slopes.size > 1:
            assert np.all(np.diff(hull.slopes) < 0)
        # idempotence on the knot set
        again = lcm(hull.knots, hull.values)
        assert np.array_equal(again.knots, hull.knots)
        assert np.array_equal(again.values, hull.values)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_minimality_at_vertices(self, seed):
        # lowering any interior vertex breaks the majorant property for
        # the point that sat there
        rng = np.random.default_rng(seed)
        xs, ys = random_point_set(rng, max_n=50)
        hull = lcm(xs, ys)
        knots, values = hull.knots, hull.values
        for i in range(1, knots.size - 1):
            lowered = values.copy()
            lowered[i] -= 1e-9
            chord = np.interp(knots[i], [knots[i - 1], knots[i + 1]],
                              [lowered[i - 1], lowered[i + 1]])
            # the vertex is essential: dropping it cannot stay above
            assert max(lowered[i], chord) < values[i] + 1e-12


class TestPiecewiseLinearConcaveType:
    def test_convex_values_rejected(self):
        with pytest.raises(InputError, match="concavity"):
            PiecewiseLinearConcave(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.1, 1.0]))

    def test_duplicate_knots_rejected(self):
        with pytest.raises(InputError):
            PiecewiseLinearConcave(np.array([0.0, 0.0]), np.array([0.0, 1.0]))

    def test_equal_slopes_allowed(self):
        plc = PiecewiseLinearConcave(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert plc.slopes == pytest.approx([0.5, 0.5])


class TestRestrictedLcm:
    """The LCM of a path over one span of its grid: the kernel on the
    span's points, and the span filled to its hull by the oracle's chord
    fill; the rest of the path is left as it is."""

    @staticmethod
    def _restricted(values, grid, ia, ib):
        row = np.array(values, dtype=float)
        span = row[None, ia:ib + 1].copy()
        fill_chords(span, grid[ia:ib + 1], _hull_indices(grid[ia:ib + 1], span[0]))
        row[ia:ib + 1] = span[0]
        return row

    def test_affine_path_unchanged(self):
        # dyadic slope and grid: every value is exactly representable,
        # so "its own LCM" holds bit for bit
        grid = np.arange(17) / 16.0
        out = self._restricted(3.0 * grid, grid, 0, 16)
        assert np.array_equal(out, 3.0 * grid)

    def test_generic_affine_path_unchanged_to_ulp(self):
        values = np.linspace(0.0, 3.0, 11)
        out = self._restricted(values, np.linspace(0.0, 1.0, 11), 0, 10)
        np.testing.assert_allclose(out, values, rtol=1e-15, atol=0.0)

    def test_single_dip_replaced_by_chord(self):
        values = np.array([0.0, 1.0, 0.0, 3.0, 4.0])
        out = self._restricted(values, np.array([0.0, 0.25, 0.5, 0.75, 1.0]), 0, 4)
        assert out[2] == pytest.approx(2.0)  # chord of (0.25,1) and (0.75,3)

    def test_outside_values_untouched_endpoints_kept(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(0.0, 1.0, 21)
        values = rng.standard_normal(21)
        out = self._restricted(values, grid, 5, 15)
        assert np.array_equal(out[:5], values[:5])
        assert np.array_equal(out[16:], values[16:])
        assert out[5] == values[5]
        assert out[15] == values[15]
        assert np.all(out[5:16] >= values[5:16] - 1e-12)

    def test_bridge_paths_match_oracle(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 200)
        for _ in range(25):
            values = np.cumsum(rng.standard_normal(200)) * 0.05
            out = self._restricted(values, grid, 0, 199)
            idx = brute_force_hull_indices(grid, values)
            expected = np.interp(grid, grid[idx], values[idx])
            assert np.array_equal(out, expected)
