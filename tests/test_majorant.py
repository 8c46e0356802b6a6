from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grenfun import ScenarioSpec, default_stream, draw, ecdf, fit, ingest
from grenfun.limitlaw import _bridge_values
from grenfun import majorant
from grenfun.majorant import PRUNE_FLOOR, _hull_indices, _strict_turns

from oracles import brute_force_hull_indices, fill_chords, pool_ties, stack_scan_hull_indices


def random_point_set(rng, max_n=200, dyadic=False):
    n = int(rng.integers(2, max_n + 1))
    if dyadic:
        xs = np.sort(rng.integers(0, 257, n)) / 128.0
        ys = rng.integers(0, 513, n) / 256.0
    else:
        xs = np.sort(rng.random(n)) * 10.0
        ys = rng.random(n)
    return xs, ys


def exact_hull_indices(xs, ys):
    """Vertex indices by the brute-force oracle's chord domination, in
    exact rational arithmetic."""
    x = [Fraction(v) for v in xs.tolist()]
    y = [Fraction(v) for v in ys.tolist()]
    n = len(x)
    return [i for i in range(n) if i in (0, n - 1) or all(
        y[i] * (x[k] - x[j]) > y[j] * (x[k] - x[i]) + y[k] * (x[i] - x[j])
        for j in range(i) for k in range(i + 1, n))]


class TestLcmBasics:
    def test_already_concave_collinear_dropped(self):
        # equal slopes: the interior point is not a vertex of the
        # canonical minimal knot set, but the hull IS the polyline
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0])
        idx = _hull_indices(xs, ys)
        assert np.array_equal(idx, [0, 2])
        assert np.interp(1.0, xs[idx], ys[idx]) == 0.5

    def test_convexity_violation_pooled(self):
        xs, ys = np.array([0.0, 2.0, 3.0]), np.array([0.0, 0.5, 1.0])
        idx = _hull_indices(xs, ys)
        assert np.array_equal(idx, [0, 2])
        assert np.diff(ys[idx]) / np.diff(xs[idx]) == [1.0 / 3.0]


class TestOracleAgreement:
    @pytest.mark.parametrize("dyadic", [False, True], ids=["continuous", "dyadic"])
    def test_matches_brute_force(self, dyadic):
        rng = np.random.default_rng(101 if dyadic else 100)
        for _ in range(150):
            xs_u, ys_u = pool_ties(*random_point_set(rng, max_n=120, dyadic=dyadic))
            assert np.array_equal(_hull_indices(xs_u, ys_u), brute_force_hull_indices(xs_u, ys_u))

    def test_vertex_the_brute_force_oracle_rounds_away(self):
        # the ECDF of [0, 1 + 2^-52, 2, 3], anchored at the origin: point 2
        # has slopes 0.25 / (1 - 2^-52) before it and 0.25 after, so it is
        # a vertex, but the oracle's three-term chord sum rounds it onto
        # the chord of points 1 and 3
        s = ingest([0.0, 1.0 + 2.0**-52, 2.0, 3.0])
        xs, ys = ecdf(s)
        ys[0] = 0.0
        assert exact_hull_indices(xs, ys) == [0, 1, 2, 3]
        assert _hull_indices(xs, ys).tolist() == [0, 1, 2, 3]
        assert stack_scan_hull_indices(xs, ys) == [0, 1, 2, 3]
        assert np.array_equal(fit(s).breakpoints, xs[1:])
        assert brute_force_hull_indices(xs, ys) == [0, 1, 3]


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
        assert np.array_equal(_hull_indices(xs, ys), stack_scan_hull_indices(xs, ys))

    @pytest.mark.parametrize("block", [1, 2, 3, 64, 1 << 16])
    def test_blocks_judge_points_as_one_pass(self, block, monkeypatch):
        # the blockwise turn test gives the mask of one pass over the whole
        # arrays, bit for bit, at and around every block edge
        monkeypatch.setattr(majorant, "PRUNE_BLOCK", block)
        rng = np.random.default_rng(300)
        for n in (2, 3, 4, 5, 65, 66, 67, 130, 1000):
            xs = np.sort(rng.random(n)) * 10.0
            ys = rng.random(n)
            dx, dy = np.diff(xs), np.diff(ys)
            whole = np.ones(n, dtype=bool)
            whole[1:-1] = dy[:-1] * dx[1:] > dy[1:] * dx[:-1]
            assert np.array_equal(_strict_turns(xs, ys), whole)
        xs, ys = ecdf(draw(ScenarioSpec.exponential(1.0), 5000, default_stream(block)))
        assert np.array_equal(_hull_indices(xs, ys), stack_scan_hull_indices(xs, ys))

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
        xs, ys = pool_ties(*random_point_set(rng, max_n=80))
        idx = _hull_indices(xs, ys)
        knots, values = xs[idx], ys[idx]
        # majorant property at every input point (1-ulp slack at chords)
        assert np.all(np.interp(xs, knots, values) >= ys - 1e-13 * np.maximum(1.0, np.abs(ys)))
        # the hull touches the input exactly at its knots
        assert np.array_equal(np.interp(knots, knots, values), values)
        # slopes strictly decreasing between canonical knots
        assert np.all(np.diff(np.diff(values) / np.diff(knots)) < 0)
        # idempotence on the knot set
        assert np.array_equal(_hull_indices(knots, values), np.arange(idx.size))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_minimality_at_vertices(self, seed):
        # lowering any interior vertex breaks the majorant property for
        # the point that sat there
        rng = np.random.default_rng(seed)
        xs, ys = pool_ties(*random_point_set(rng, max_n=50))
        idx = _hull_indices(xs, ys)
        knots, values = xs[idx], ys[idx]
        for i in range(1, knots.size - 1):
            lowered = values.copy()
            lowered[i] -= 1e-9
            chord = np.interp(knots[i], [knots[i - 1], knots[i + 1]],
                              [lowered[i - 1], lowered[i + 1]])
            # the vertex is essential: dropping it cannot stay above
            assert max(lowered[i], chord) < values[i] + 1e-12


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
