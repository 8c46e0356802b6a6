from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from grenfun import majorant
from grenfun.majorant import PRUNE_FLOOR, _hull_indices, _hull_rows

from oracles import (
    brute_force_hull_indices,
    fill_chords,
    hull_rows_by_row,
    stack_scan_hull_indices,
)


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


def _per_run_reference(values, xs, fixed):
    """Each row hulled one run at a time by the oracle, and the flat
    indices of its vertices."""
    ref = values.copy()
    return ref, hull_rows_by_row(ref, xs, fixed)


def _hull_in_place(values, xs, fixed):
    """The kernel's vertices of every row, with the rows filled to their
    hull by the oracle's chord fill; returns the vertices."""
    vertices = _hull_rows(values, xs, fixed)
    fill_chords(values, xs, vertices)
    return vertices


def _ends(n):
    """The fixed mask of a single run: only its end points."""
    fixed = np.zeros(n, dtype=bool)
    fixed[0] = fixed[-1] = True
    return fixed


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
            idx = _hull_indices(xs, ys, _ends(xs.size))
            assert np.array_equal(idx, brute_force_hull_indices(xs, ys))

    @pytest.mark.parametrize("spec", [ScenarioSpec.exponential(1.0), ScenarioSpec.paper_pwa(),
                                      ScenarioSpec.uniform(1.0)], ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_ecdf_hulls_match_full_scan(self, spec, n):
        xs, ys = ecdf(draw(spec, n, default_stream(n)))
        expected = stack_scan_hull_indices(xs, ys)
        assert np.array_equal(_hull_indices(xs, ys, _ends(xs.size)), expected)
        assert np.array_equal(lcm(xs, ys).knots, xs[expected])

    def test_concave_chain_with_raised_end(self):
        # each prune pass drops one point here; the stop rule hands the
        # rest to the scan
        xs, ys = _concave_chain(5000)
        ys[-1] = 1e9
        idx = _hull_indices(xs, ys, _ends(xs.size))
        assert np.array_equal(idx, stack_scan_hull_indices(xs, ys))
        assert idx[0] == 0 and idx[-1] == xs.size - 1

    def test_strictly_concave_chain_keeps_every_point(self):
        xs, ys = _concave_chain(1000)
        assert np.array_equal(_hull_indices(xs, ys, _ends(xs.size)), np.arange(xs.size))

    def test_strictly_convex_chain_keeps_endpoints(self):
        xs, ys = _concave_chain(1000)
        assert np.array_equal(_hull_indices(xs, -ys, _ends(xs.size)), [0, xs.size - 1])

    def test_collinear_keeps_endpoints(self):
        xs = np.arange(1000, dtype=float)
        assert np.array_equal(_hull_indices(xs, 3.0 * xs - 7.0, _ends(xs.size)), [0, xs.size - 1])

    def test_constant_keeps_endpoints(self):
        xs = np.arange(1000, dtype=float)
        assert np.array_equal(_hull_indices(xs, np.full(xs.size, 2.5), _ends(xs.size)),
                              [0, xs.size - 1])

    def test_two_points(self):
        assert np.array_equal(_hull_indices(np.array([0.0, 1.0]), np.array([5.0, -1.0]), _ends(2)),
                              [0, 1])


class TestSegmentedKernel:
    """One kernel call hulls many runs, cut by fixed points; every run
    must come out as if hulled on its own."""

    @pytest.mark.parametrize("seed", [300, 301, 302])
    def test_runs_match_per_run_oracle(self, seed):
        # runs of 2 to 150 points, many at or under PRUNE_FLOOR; each
        # run has its own abscissae, so xs falls back between runs
        rng = np.random.default_rng(seed)
        xs, ys, fixed, offsets = [], [], [], []
        start = 0
        for _ in range(60):
            m = int(rng.integers(2, 151))
            run_x = np.unique(rng.random(m + 5))[:m] * 10.0
            m = run_x.size
            run_y = (_bridge_values(np.linspace(0.0, 1.0, m), 1, rng)[0]
                     if rng.random() < 0.5 else rng.random(m))
            xs.append(run_x)
            ys.append(run_y)
            fixed.append(_ends(m))
            offsets.append(start)
            start += m
        got = _hull_indices(np.concatenate(xs), np.concatenate(ys), np.concatenate(fixed))
        expected = np.concatenate([off + np.asarray(brute_force_hull_indices(x, y))
                                   for off, x, y in zip(offsets, xs, ys)])
        assert np.array_equal(got, expected)

    def test_shared_fixed_point_splits_one_row(self):
        # a dip at the fixed point: the whole row's hull would drop it
        xs = np.arange(200, dtype=float)
        ys = -np.abs(xs - 100.0)
        ys[100] = -50.0
        fixed = np.zeros(200, dtype=bool)
        fixed[[0, 100, 199]] = True
        got = _hull_indices(xs, ys, fixed)
        assert 100 in got
        expected = list(brute_force_hull_indices(xs[:101], ys[:101]))
        expected += [100 + i for i in brute_force_hull_indices(xs[100:], ys[100:])[1:]]
        assert np.array_equal(got, expected)

    def test_rows_that_drop_nothing_are_left_alone(self):
        xs, ys = _concave_chain(300)
        values = np.tile(ys, (40, 1))
        fixed = np.zeros(xs.size, dtype=bool)
        fixed[[0, 120, xs.size - 1]] = True
        flat_x = np.tile(xs, 40)
        flat_fixed = np.tile(fixed, 40)
        assert np.array_equal(_hull_indices(flat_x, values.reshape(-1), flat_fixed),
                              np.arange(values.size))
        before = values.copy()
        vertices = _hull_in_place(values, xs, fixed)
        assert vertices.tobytes() == np.arange(values.size).tobytes()
        assert values.tobytes() == before.tobytes()

    def test_stall_scans_only_runs_that_dropped(self, monkeypatch):
        # bridge rows, one concave chain with a raised last point (drops one
        # point per pass, so the prune stalls), and strictly concave rows
        # lifted to 9e6..1e7 that never drop a point
        n = 2000
        xs, chain = _concave_chain(n)
        chain[-1] = 1e9
        concave = -((xs - n // 2) ** 2) + 1e7
        rng = np.random.default_rng(303)
        rows = [_bridge_values(np.linspace(0.0, 1.0, n), 1, rng)[0] for _ in range(8)]
        values = np.array(rows + [chain] + [concave] * 8)
        fixed = _ends(n)
        scanned = []
        scan = majorant._stack_scan

        def recording_scan(x, y, fx):
            scanned.append(y[~fx].copy())
            return scan(x, y, fx)

        monkeypatch.setattr(majorant, "_stack_scan", recording_scan)
        expected, expected_vertices = _per_run_reference(values, xs, fixed)
        assert _hull_in_place(values, xs, fixed).tobytes() == expected_vertices.tobytes()
        assert values.tobytes() == expected.tobytes()
        (interior,) = scanned
        assert np.any(interior < -1e5)      # the chain is scanned
        assert not np.any(interior > 1e6)   # the concave rows are not

    @pytest.mark.parametrize("rows", [1, 3, 4, 100])
    def test_block_edges(self, rows, monkeypatch):
        # three rows per block: the last column of each block's last row,
        # a partial last block, a single row
        monkeypatch.setattr(majorant, "ROW_BLOCK_POINTS", 3 * 257 + 7)
        # not a dyadic grid: chords through its points round, so a chord
        # evaluated at a vertex need not return the vertex's value
        xs = np.linspace(0.0, 1.0, 257) ** 1.1
        fixed = np.zeros(xs.size, dtype=bool)
        fixed[[0, 100, 256]] = True
        values = _bridge_values(xs, rows, np.random.default_rng(304 + rows))
        values[:, -1] += np.linspace(-0.5, 0.5, rows)   # end values off zero
        expected, expected_vertices = _per_run_reference(values, xs, fixed)
        assert _hull_in_place(values, xs, fixed).tobytes() == expected_vertices.tobytes()
        assert values.tobytes() == expected.tobytes()
        last_rows = np.append(np.arange(2, rows, 3), rows - 1)
        assert values[last_rows, -1].tobytes() == expected[last_rows, -1].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           runs=st.lists(st.integers(2, 300), min_size=1, max_size=6),
           dyadic=st.booleans(),
           rows_per_block=st.integers(1, 4),
           rows=st.integers(1, 13),
           slack=st.floats(0.0, 0.99))
    def test_random_layouts_match_per_row_oracle(self, seed, runs, dyadic,
                                                 rows_per_block, rows, slack):
        # runs of the drawn lengths (a fixed point ends one and starts the
        # next); each row is bridge-like, affine or coarse dyadic; the block
        # size is cut so that the rows cross block boundaries.  Affine rows
        # are exact (dyadic grid, slope and intercept): on a grid whose
        # chords round, an affine row is only nearly collinear, and there
        # the pruned kernel's vertices depend on how many prune passes its
        # block ran (a defect recorded in CHANGES.md), so no per-row oracle
        # can match it.
        cols = sum(runs) - len(runs) + 1
        fixed = np.zeros(cols, dtype=bool)
        fixed[np.cumsum([0] + [m - 1 for m in runs])] = True
        xs = np.arange(cols) / 64.0 if dyadic else np.linspace(0.0, 1.0, cols) ** 1.1
        rng = np.random.default_rng(seed)
        values = np.empty((rows, cols))
        for row in values:
            kind = rng.integers(3 if dyadic else 2)
            if kind == 0:
                row[:] = _bridge_values(np.linspace(0.0, 1.0, cols), 1, rng)[0]
            elif kind == 1:
                row[:] = rng.integers(0, 9, cols) / 8.0
            else:
                row[:] = rng.integers(-8, 9) / 4.0 + rng.integers(-8, 9) / 4.0 * xs
        expected, expected_vertices = _per_run_reference(values, xs, fixed)
        block = rows_per_block * cols + int(slack * cols)
        with mock.patch.object(majorant, "ROW_BLOCK_POINTS", block):
            vertices = _hull_in_place(values, xs, fixed)
        assert vertices.tobytes() == expected_vertices.tobytes()
        assert values.tobytes() == expected.tobytes()


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
    """The LCM of a path over one span of its grid: ``_hull_rows`` on one
    row, with the span's interior free and every other point fixed, and
    the row filled to its hull by the oracle's chord fill."""

    @staticmethod
    def _restricted(values, grid, ia, ib):
        fixed = np.ones(grid.size, dtype=bool)
        fixed[ia + 1:ib] = False
        row = np.array(values, dtype=float, ndmin=2)
        _hull_in_place(row, grid, fixed)
        return row[0]

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
