import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grenfun
from grenfun import (
    InputError,
    ScenarioSpec,
    SmoothFunctional,
    by_name,
    default_stream,
    draw_y_samples,
    ks_distance,
    linear_y_samples,
)
from grenfun import majorant
from grenfun.limitlaw import (YPlan, _batch_rows, _bridge_values, build_grid, emit_y_csv,
                              load_y_csv)
from grenfun.majorant import _hull_rows

from oracles import brute_force_hull_indices, fill_chords, hull_rows_by_row

Z2 = by_name("power:2")
XZ2 = by_name("xz2")
PWA = ScenarioSpec.paper_pwa()
EXP = ScenarioSpec.exponential(1.0)
UNIF = ScenarioSpec.uniform(1.0)
THREE = ScenarioSpec.piecewise([0.5, 1.0, 2.0], [1.0, 0.6, 0.2])
# psi = 2 x^2 f(x) is not affine in x within a piece
X2Z2 = SmoothFunctional(g=lambda z, x: x * x * z * z, gdot=lambda z, x: 2.0 * x * x * z,
                        gddot=lambda z, x: 2.0 * x * x + 0.0 * z, vanishes_at_zero=True,
                        name="x2z2")


def lcm_derivative(spec, grid, paths):
    """Rows of ``paths`` through the LCM derivative as YPlan.apply takes
    it: under a piecewise-affine truth, hulled over each affine interval
    on the kernel's vertices and filled by the oracle's chord fill; under
    a strictly concave one, left as they are."""
    plan = YPlan(XZ2, spec, grid)
    hat = np.array(paths, dtype=float, ndmin=2)
    if plan.needs_hull:
        fill_chords(hat, plan.grid, _hull_rows(hat, plan.grid, plan.fixed))
    return hat


def interval_mask(spec, grid):
    """The columns a hull keeps: the ends of every affine interval, and
    every column past the last one, where nothing is hulled."""
    ends = np.searchsorted(grid, np.ravel(spec.affine_intervals()))
    fixed = np.zeros(grid.size, dtype=bool)
    fixed[ends] = True
    fixed[ends[-1]:] = True
    return fixed


def trapezoid_weights(dpsi):
    """c_j = (dpsi_{j-1} + dpsi_j) / 2, with dpsi zero past either end."""
    padded = np.concatenate(([0.0], dpsi, [0.0]))
    return (padded[:-1] + padded[1:]) / 2


def trapezoid_reference(plan, hat, paths):
    """Minus the grid trapezoid sum of the hulled rows ``hat``,
    sum_i (h_i + h_(i+1)) / 2 dpsi_i, plus the jumps of psi at the
    breakpoint values of ``paths``; and the sum of the absolute values of
    those terms, per row."""
    terms = (hat[:, :-1] + hat[:, 1:]) / 2 * plan.dpsi
    jumps = paths[:, plan.t_idx] * plan.jumps
    return (-(terms.sum(axis=1) + jumps.sum(axis=1)),
            np.abs(terms).sum(axis=1) + np.abs(jumps).sum(axis=1))


def var_with_se(ys):
    """Sample variance and its empirical standard error."""
    v = float(np.var(ys, ddof=1))
    centered = ys - np.mean(ys)
    return v, math.sqrt((float(np.mean(centered ** 4)) - v * v) / ys.size)


class TestBridgePath:
    def test_pinned_exactly(self):
        grid = np.linspace(0.0, 1.0, 257)
        vals = _bridge_values(grid, 5, default_stream(0))
        assert np.all(vals[:, 0] == 0.0)
        assert np.all(vals[:, -1] == 0.0)

    def test_variance_at_half(self):
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vals = _bridge_values(grid, 100_000, default_stream(10))
        assert float(np.var(vals[:, 2])) == pytest.approx(0.25, abs=0.005)

    def test_covariance_quarters(self):
        grid = np.array([0.0, 0.25, 0.75, 1.0])
        vals = _bridge_values(grid, 100_000, default_stream(11))
        cov = float(np.mean(vals[:, 1] * vals[:, 2]))
        assert cov == pytest.approx(0.0625, abs=0.005)

    def test_in_place_values_match_direct_formula(self):
        # the formula before the in-place rewrite, kept as the reference
        def direct(u, draws, stream):
            incr = stream.standard_normal((draws, u.size - 1)) * np.sqrt(np.diff(u))
            w = np.cumsum(incr, axis=1)
            out = np.empty((draws, u.size))
            out[:, 0] = 0.0
            out[:, 1:] = w - np.outer(w[:, -1], u[1:])
            return out

        for u, draws, seed in ((np.linspace(0.0, 1.0, 1001), 300, 20),
                               (np.linspace(0.0, 0.9, 77), 1000, 21),
                               (np.array([0.0, 1.0]), 5, 22)):
            got = _bridge_values(u, draws, default_stream(seed))
            assert np.array_equal(got, direct(u, draws, default_stream(seed)))


class TestHadamardDerivative:
    """The LCM derivative that YPlan.apply applies to every row."""

    def test_strictly_concave_identity_bit_exact(self):
        grid = np.linspace(0.0, 1.0, 101)
        paths = np.sin(7.0 * np.outer([1.0, 2.0, 3.0], grid))
        plan = YPlan(XZ2, EXP, grid)
        assert not plan.needs_hull and plan.fixed is None
        assert lcm_derivative(EXP, grid, paths).tobytes() == paths.tobytes()
        expected = -(paths @ trapezoid_weights(plan.dpsi) + 0.0)
        assert plan.apply(paths).tobytes() == expected.tobytes()

    def test_single_interval_affine_unchanged(self):
        grid = np.arange(33) / 32.0
        out = lcm_derivative(UNIF, grid, 2.0 * grid)
        assert np.array_equal(out[0], 2.0 * grid)

    def test_values_past_the_last_interval_stay_fixed(self):
        # the grid runs past the uniform truth's support [0, 1]
        grid = np.arange(65) / 32.0
        values = np.sin(5.0 * grid)  # not concave past 1: a hull would move it
        out = lcm_derivative(UNIF, grid, values)[0]
        inside = lcm_derivative(UNIF, grid[:33], values[:33])[0]
        assert out[:33].tobytes() == inside.tobytes()
        assert np.array_equal(out[33:], values[33:])

    def test_misaligned_grid_rejected(self):
        grid = np.linspace(0.0, 1.0, 100)  # does not contain the kink
        with pytest.raises(InputError):
            YPlan(XZ2, PWA, grid)

    def test_per_interval_hulls_match_oracle(self):
        grid = build_grid(PWA, 200)
        u = PWA.cdf(grid)
        rng = default_stream(42)
        paths = _bridge_values(u, 20, rng)
        out = lcm_derivative(PWA, grid, paths)
        for vals, hulled in zip(paths, out):
            expected = vals.copy()
            for a, b in PWA.affine_intervals():
                ia = int(np.searchsorted(grid, a))
                ib = int(np.searchsorted(grid, b))
                idx = brute_force_hull_indices(grid[ia:ib + 1], vals[ia:ib + 1])
                seg = np.interp(grid[ia:ib + 1], grid[ia:ib + 1][idx],
                                vals[ia:ib + 1][idx])
                expected[ia:ib + 1] = np.maximum(vals[ia:ib + 1], seg)
            assert np.array_equal(hulled, expected)

    def test_majorizes_input_with_endpoint_equality(self):
        grid = build_grid(PWA, 300)
        u = PWA.cdf(grid)
        rng = default_stream(9)
        paths = _bridge_values(u, 10, rng)
        out = lcm_derivative(PWA, grid, paths)
        assert np.all(out >= paths)
        for a, b in PWA.affine_intervals():
            for endpoint in (a, b):
                i = int(np.searchsorted(grid, endpoint))
                assert np.array_equal(out[:, i], paths[:, i])


class TestPlanRowHulls:
    """YPlan.apply hulls all rows and intervals in blocks through one
    kernel and sums each row on its vertices; the vertices must be those
    of hulling each row one interval at a time, and the sum the grid
    trapezoid of the filled rows."""

    @pytest.mark.parametrize("spec", [PWA, THREE], ids=["paper_pwa", "three"])
    @pytest.mark.parametrize("grid_size,rows", [(50, 400), (1000, 70), (3000, 25)])
    def test_apply_matches_per_row_reference(self, spec, grid_size, rows):
        grid = build_grid(spec, grid_size)
        paths = _bridge_values(np.asarray(spec.cdf(grid), dtype=float), rows,
                               default_stream(grid_size + rows))
        hat = paths.copy()
        vertices = hull_rows_by_row(hat, grid, interval_mask(spec, grid))
        plan = YPlan(XZ2, spec, grid)
        assert _hull_rows(paths, plan.grid, plan.fixed).tobytes() == vertices.tobytes()
        expected, scale = trapezoid_reference(plan, hat, paths)
        assert np.all(np.abs(plan.apply(paths) - expected) <= 1e-12 * scale)
        # the last row hulled on its own: the same kernel, the same bytes
        out = lcm_derivative(spec, grid, paths[-1])
        assert out.tobytes() == hat[-1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from([PWA, THREE]),
           G=st.sampled_from([XZ2, X2Z2]),
           grid_size=st.integers(2, 1500),
           uniform=st.booleans(),
           rows=st.integers(1, 12),
           rows_per_block=st.integers(1, 4),
           slack=st.floats(0.0, 0.99))
    def test_vertex_sum_matches_filled_trapezoid(self, seed, spec, G, grid_size, uniform,
                                                  rows, rows_per_block, slack):
        # summation by parts needs no psi affine within a piece (X2Z2) and
        # no uniform grid; the block size is cut so that rows cross blocks,
        # and each bridge row is shifted so that rows do not end at 0
        rng = np.random.default_rng(seed)
        if uniform:
            grid = build_grid(spec, grid_size)
        else:
            grid = np.union1d(rng.random(grid_size) * spec.support_end,
                              np.concatenate(([0.0], spec.true_density().breakpoints)))
        paths = _bridge_values(np.asarray(spec.cdf(grid), dtype=float), rows, rng)
        paths += rng.standard_normal((rows, 1))
        hat = paths.copy()
        vertices = hull_rows_by_row(hat, grid, interval_mask(spec, grid))
        plan = YPlan(G, spec, grid)
        block = rows_per_block * grid.size + int(slack * grid.size)
        with mock.patch.object(majorant, "ROW_BLOCK_POINTS", block):
            assert _hull_rows(paths, plan.grid, plan.fixed).tobytes() == vertices.tobytes()
            got = plan.apply(paths)
        expected, scale = trapezoid_reference(plan, hat, paths)
        assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    def test_vertex_sum_keeps_its_digits_on_a_fine_grid(self):
        # at grid 19601 the kink of paper_pwa lies 9.2e-10 from a grid
        # point; plain running sums of psi and of its integral drift by
        # about 1e-12 of the sum over the 19602 cells, compensated ones
        # stay at rounding level
        grid = build_grid(PWA, 19601)
        assert np.diff(grid).min() < 1e-9
        paths = _bridge_values(np.asarray(PWA.cdf(grid), dtype=float), 20,
                               default_stream(19601))
        hat = paths.copy()
        hull_rows_by_row(hat, grid, interval_mask(PWA, grid))
        plan = YPlan(XZ2, PWA, grid)
        expected, scale = trapezoid_reference(plan, hat, paths)
        assert np.all(np.abs(plan.apply(paths) - expected) <= 1e-14 * scale)


class TestSampleY:
    def test_single_draw_is_finite_float(self):
        ys, _ = draw_y_samples(Z2, EXP, 500, 1, default_stream(0))
        assert ys.shape == (1,) and ys.dtype == float and math.isfinite(ys[0])

    def test_uniform_truth_quadratic_is_degenerate(self):
        ys, _ = draw_y_samples(Z2, UNIF, 200, 50, default_stream(3))
        assert np.array_equal(ys, np.zeros(50))

    def test_y_from_path_matches_batch_logic(self):
        # a 1-D path is a one-row batch; in a larger batch the matrix
        # product may sum in another order, so rows agree to rounding
        grid = build_grid(PWA, 100)
        u = PWA.cdf(grid)
        paths = _bridge_values(u, 7, default_stream(5))
        plan = YPlan(XZ2, PWA, grid)
        batch = plan.apply(paths)
        for k in (0, 3, 6):
            one = plan.apply(paths[k])
            assert one.tobytes() == plan.apply(paths[k:k + 1]).tobytes()
            assert one[0] == pytest.approx(batch[k], rel=1e-12, abs=1e-15)

    def test_metadata_reports_truncation_and_tail(self):
        ys, info = draw_y_samples(Z2, EXP, 300, 20, default_stream(1))
        assert info["truncation"] == pytest.approx(-math.log(1e-6), rel=1e-9)
        assert 0.0 < info["tail_bound"] < 1e-4
        assert info["draws"] == 20
        # no tail past a piecewise-affine truth's support
        _, info = draw_y_samples(XZ2, PWA, 300, 20, default_stream(1))
        assert info["truncation"] == 1.0 and info["tail_bound"] == 0.0

    @pytest.mark.parametrize("spec", [EXP, PWA], ids=["exponential", "paper_pwa"])
    def test_draws_do_not_depend_on_the_batch(self, spec, monkeypatch):
        # 4099 draws: not a multiple of 4, and past the 4096-row batch
        # the sampler once drew
        width = build_grid(spec, 1000).size
        apply = YPlan.apply
        digests = set()
        for points in (1 << 12, 1 << 14, 1 << 16):
            monkeypatch.setattr(majorant, "ROW_BLOCK_POINTS", points)
            batch = _batch_rows(width)
            assert batch % 4 == 0 and batch % majorant._rows_per_block(width) == 0
            assert batch * width <= 4 * points
            rows = []
            monkeypatch.setattr(YPlan, "apply",
                                lambda plan, paths: rows.append(len(paths)) or apply(plan, paths))
            ys, _ = draw_y_samples(XZ2, spec, 1000, 4099, default_stream(7))
            assert rows == [batch] * (4099 // batch) + [4099 % batch]
            digests.add(ys.tobytes())
        assert len(digests) == 1

    @pytest.mark.parametrize("name,grid_size", [("xz2", 1000), ("power:2", 8000)])
    def test_draws_do_not_depend_on_blas_threads(self, name, grid_size):
        # the thread count is read when numpy loads, so each count gets a
        # fresh interpreter; a product split across threads at a row that
        # is not a multiple of four sums those rows another way
        script = ("import hashlib, sys\n"
                  "import grenfun as gf\n"
                  "ys, _ = gf.draw_y_samples(gf.by_name(sys.argv[1]), gf.ScenarioSpec.exponential(1.0),"
                  " int(sys.argv[2]), 1001, gf.default_stream(3))\n"
                  "print(hashlib.sha1(ys.tobytes()).hexdigest())\n")
        src = str(Path(grenfun.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script, name, str(grid_size)],
                                 env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_linear_formula_needs_an_x_free_functional(self):
        with pytest.raises(InputError, match="density alone"):
            linear_y_samples(XZ2, PWA, 10, default_stream(0))

    def test_emit_and_load_round_trip(self, tmp_path):
        ys, info = draw_y_samples(Z2, PWA, 100, 10_000, default_stream(2))
        path = tmp_path / "y.csv"
        emit_y_csv(path, ys, info)
        back, meta = load_y_csv(path)
        assert back.dtype == ys.dtype and back.tobytes() == ys.tobytes()
        assert meta["model"]["kind"] == "paper_pwa"
        assert "tail_bound" in meta and "grid_size" in meta


@pytest.mark.slow
class TestDistributionalInvariants:
    def test_variance_matches_the_limit_at_grid_1000(self):
        # exponential/xz2: the trapezoid sum's exact variance at grid 1000
        # is 0.046286 against the limit's 8/27 - 1/4 = 0.046296, well
        # inside 3 SEs (about 0.0006) at 1e5 draws; a left-endpoint sum
        # (0.044903) misses by about 7 SEs
        ys, _ = draw_y_samples(XZ2, EXP, 1000, 100_000, default_stream(500))
        v, se = var_with_se(ys)
        assert abs(v - (8.0 / 27.0 - 0.25)) < 3.0 * se

    def test_linear_formula_agrees_with_path_sampler(self):
        # x-free functional, piecewise-affine truth: the two samplers
        # share one law (KS < 0.01 at 1e5 draws)
        ys_path, _ = draw_y_samples(Z2, PWA, 1000, 100_000,
                                    default_stream(100))
        ys_lin = linear_y_samples(Z2, PWA, 100_000, default_stream(200))
        assert ks_distance(ys_path, ys_lin) < 0.01
        target = 8.0 * math.sqrt(2.0) - 8.0
        assert float(np.var(ys_lin, ddof=1)) == pytest.approx(target, abs=0.05)

    def test_grid_refinement_stability_exponential(self):
        # common random numbers: the coarse grid is the fine grid's
        # even-index subgrid, so the variance difference is pure
        # discretization effect
        spec, G = EXP, Z2
        fine = build_grid(spec, 4000)
        coarse = fine[::2]
        idx = np.arange(0, fine.size, 2)
        u = np.concatenate((spec.cdf(fine), [1.0]))
        plan_f = YPlan(G, spec, fine)
        plan_c = YPlan(G, spec, coarse)
        rng = default_stream(300)
        m = 100_000
        ys_f = np.empty(m)
        ys_c = np.empty(m)
        done = 0
        while done < m:
            b = min(_batch_rows(fine.size), m - done)
            paths = _bridge_values(u, b, rng)[:, :-1]
            ys_f[done:done + b] = plan_f.apply(paths)
            ys_c[done:done + b] = plan_c.apply(paths[:, idx])
            done += b
        vf, vc = np.var(ys_f, ddof=1), np.var(ys_c, ddof=1)
        assert abs(vf - vc) / vf < 0.01

    def test_grid_refinement_stability_hull_case(self):
        spec, G = PWA, XZ2
        fine = build_grid(spec, 2000)
        coarse = build_grid(spec, 1000)
        idx = np.searchsorted(fine, coarse)
        assert np.array_equal(fine[idx], coarse)
        u = spec.cdf(fine)
        plan_f = YPlan(G, spec, fine)
        plan_c = YPlan(G, spec, coarse)
        rng = default_stream(400)
        m = 100_000
        ys_f = np.empty(m)
        ys_c = np.empty(m)
        done = 0
        while done < m:
            b = min(_batch_rows(fine.size), m - done)
            paths = _bridge_values(u, b, rng)
            ys_f[done:done + b] = plan_f.apply(paths)
            ys_c[done:done + b] = plan_c.apply(paths[:, idx])
            done += b
        vf, vc = np.var(ys_f, ddof=1), np.var(ys_c, ddof=1)
        assert abs(vf - vc) / vf < 0.01
