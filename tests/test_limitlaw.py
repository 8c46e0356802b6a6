import math

import numpy as np
import pytest

from grenfun import (
    InputError,
    ScenarioSpec,
    TrueModel,
    by_name,
    default_stream,
    draw_y_samples,
    ks_distance,
    linear_y_samples,
)
from grenfun.limitlaw import YPlan, _bridge_values, build_grid, emit_y_csv, load_y_csv
from grenfun.majorant import _hull_rows

from oracles import brute_force_hull_indices, hull_rows_by_row

Z2 = by_name("power:2")
XZ2 = by_name("xz2")
PWA_MODEL = TrueModel.from_scenario(ScenarioSpec.paper_pwa())
EXP_MODEL = TrueModel.from_scenario(ScenarioSpec.exponential(1.0))
UNIF_MODEL = TrueModel.from_scenario(ScenarioSpec.uniform(1.0))
THREE_MODEL = TrueModel.from_scenario(ScenarioSpec.piecewise([0.5, 1.0, 2.0], [1.0, 0.6, 0.2]))


def lcm_derivative(model, grid, paths):
    """Rows of ``paths`` through the LCM derivative as YPlan.apply takes
    it: hulled over each affine interval by the kernel under a
    piecewise-affine truth, left as they are under a strictly concave one."""
    plan = YPlan(XZ2, model, grid)
    hat = np.array(paths, dtype=float, ndmin=2)
    if plan.needs_hull:
        _hull_rows(hat, plan.grid, plan.fixed)
    return hat


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
        plan = YPlan(XZ2, EXP_MODEL, grid)
        assert not plan.needs_hull and plan.fixed is None
        assert lcm_derivative(EXP_MODEL, grid, paths).tobytes() == paths.tobytes()
        assert plan.apply(paths).tobytes() == (-(paths[:, :-1] @ plan.dpsi + 0.0)).tobytes()

    def test_single_interval_affine_unchanged(self):
        grid = np.arange(33) / 32.0
        out = lcm_derivative(UNIF_MODEL, grid, 2.0 * grid)
        assert np.array_equal(out[0], 2.0 * grid)

    def test_values_past_the_last_interval_stay_fixed(self):
        # the grid runs past the uniform truth's support [0, 1]
        grid = np.arange(65) / 32.0
        values = np.sin(5.0 * grid)  # not concave past 1: a hull would move it
        out = lcm_derivative(UNIF_MODEL, grid, values)[0]
        inside = lcm_derivative(UNIF_MODEL, grid[:33], values[:33])[0]
        assert out[:33].tobytes() == inside.tobytes()
        assert np.array_equal(out[33:], values[33:])

    def test_misaligned_grid_rejected(self):
        grid = np.linspace(0.0, 1.0, 100)  # does not contain the kink
        with pytest.raises(InputError):
            YPlan(XZ2, PWA_MODEL, grid)

    def test_per_interval_hulls_match_oracle(self):
        grid = build_grid(PWA_MODEL, 200)
        u = PWA_MODEL.spec.cdf(grid)
        rng = default_stream(42)
        paths = _bridge_values(u, 20, rng)
        out = lcm_derivative(PWA_MODEL, grid, paths)
        for vals, hulled in zip(paths, out):
            expected = vals.copy()
            for a, b in PWA_MODEL.affine_intervals():
                ia = int(np.searchsorted(grid, a))
                ib = int(np.searchsorted(grid, b))
                idx = brute_force_hull_indices(grid[ia:ib + 1], vals[ia:ib + 1])
                seg = np.interp(grid[ia:ib + 1], grid[ia:ib + 1][idx],
                                vals[ia:ib + 1][idx])
                expected[ia:ib + 1] = np.maximum(vals[ia:ib + 1], seg)
            assert np.array_equal(hulled, expected)

    def test_majorizes_input_with_endpoint_equality(self):
        grid = build_grid(PWA_MODEL, 300)
        u = PWA_MODEL.spec.cdf(grid)
        rng = default_stream(9)
        paths = _bridge_values(u, 10, rng)
        out = lcm_derivative(PWA_MODEL, grid, paths)
        assert np.all(out >= paths)
        for a, b in PWA_MODEL.affine_intervals():
            for endpoint in (a, b):
                i = int(np.searchsorted(grid, endpoint))
                assert np.array_equal(out[:, i], paths[:, i])


class TestPlanRowHulls:
    """YPlan.apply hulls all rows and intervals in blocks through one
    kernel; each row must match hulling it one interval at a time."""

    @pytest.mark.parametrize("model", [PWA_MODEL, THREE_MODEL], ids=["paper_pwa", "three"])
    @pytest.mark.parametrize("grid_size,rows", [(50, 400), (1000, 70), (3000, 25)])
    def test_apply_matches_per_row_reference(self, model, grid_size, rows):
        grid = build_grid(model, grid_size)
        paths = _bridge_values(np.asarray(model.spec.cdf(grid), dtype=float), rows,
                               default_stream(grid_size + rows))
        hat = paths.copy()
        for a, b in model.affine_intervals():
            hull_rows_by_row(hat, grid, int(np.searchsorted(grid, a)),
                             int(np.searchsorted(grid, b)))
        plan = YPlan(XZ2, model, grid)
        expected = -(hat[:, :-1] @ plan.dpsi + paths[:, plan.t_idx] @ plan.jumps)
        assert plan.apply(paths).tobytes() == expected.tobytes()
        # the last row hulled on its own: the same kernel, the same bytes
        out = lcm_derivative(model, grid, paths[-1])
        assert out.tobytes() == hat[-1].tobytes()


class TestSampleY:
    def test_single_draw_is_finite_float(self):
        ys, _ = draw_y_samples(Z2.as_smooth(), EXP_MODEL, 500, 1, default_stream(0))
        assert ys.shape == (1,) and ys.dtype == float and math.isfinite(ys[0])

    def test_uniform_truth_quadratic_is_degenerate(self):
        ys, _ = draw_y_samples(Z2.as_smooth(), UNIF_MODEL, 200, 50, default_stream(3))
        assert np.array_equal(ys, np.zeros(50))

    def test_y_from_path_matches_batch_logic(self):
        # a 1-D path is a one-row batch; in a larger batch the matrix
        # product may sum in another order, so rows agree to rounding
        grid = build_grid(PWA_MODEL, 100)
        u = PWA_MODEL.spec.cdf(grid)
        paths = _bridge_values(u, 7, default_stream(5))
        plan = YPlan(XZ2, PWA_MODEL, grid)
        batch = plan.apply(paths)
        for k in (0, 3, 6):
            one = plan.apply(paths[k])
            assert one.tobytes() == plan.apply(paths[k:k + 1]).tobytes()
            assert one[0] == pytest.approx(batch[k], rel=1e-12, abs=1e-15)

    def test_metadata_reports_truncation_and_tail(self):
        ys, info = draw_y_samples(Z2.as_smooth(), EXP_MODEL, 300, 20, default_stream(1))
        assert info["truncation"] == pytest.approx(-math.log(1e-6), rel=1e-9)
        assert 0.0 < info["tail_bound"] < 1e-4
        assert info["draws"] == 20

    def test_emit_and_load_round_trip(self, tmp_path):
        ys, info = draw_y_samples(Z2.as_smooth(), PWA_MODEL, 100, 10_000, default_stream(2))
        path = tmp_path / "y.csv"
        emit_y_csv(path, ys, info)
        back, meta = load_y_csv(path)
        assert back.dtype == ys.dtype and back.tobytes() == ys.tobytes()
        assert meta["model"]["kind"] == "paper_pwa"
        assert "tail_bound" in meta and "grid_size" in meta


@pytest.mark.slow
class TestDistributionalInvariants:
    def test_linear_formula_agrees_with_path_sampler(self):
        # x-free functional, piecewise-affine truth: the two samplers
        # share one law (KS < 0.01 at 1e5 draws)
        ys_path, _ = draw_y_samples(Z2.as_smooth(), PWA_MODEL, 1000, 100_000,
                                    default_stream(100))
        ys_lin = linear_y_samples(Z2, PWA_MODEL, 100_000, default_stream(200))
        assert ks_distance(ys_path, ys_lin) < 0.01
        target = 8.0 * math.sqrt(2.0) - 8.0
        assert float(np.var(ys_lin, ddof=1)) == pytest.approx(target, abs=0.05)

    def test_grid_refinement_stability_exponential(self):
        # common random numbers: the coarse grid is the fine grid's
        # even-index subgrid, so the variance difference is pure
        # discretization effect
        model, G = EXP_MODEL, Z2.as_smooth()
        fine = build_grid(model, 4000)
        coarse = fine[::2]
        idx = np.arange(0, fine.size, 2)
        u = np.concatenate((model.spec.cdf(fine), [1.0]))
        plan_f = YPlan(G, model, fine)
        plan_c = YPlan(G, model, coarse)
        rng = default_stream(300)
        m = 100_000
        ys_f = np.empty(m)
        ys_c = np.empty(m)
        done = 0
        while done < m:
            b = min(4096, m - done)
            paths = _bridge_values(u, b, rng)[:, :-1]
            ys_f[done:done + b] = plan_f.apply(paths)
            ys_c[done:done + b] = plan_c.apply(paths[:, idx])
            done += b
        vf, vc = np.var(ys_f, ddof=1), np.var(ys_c, ddof=1)
        assert abs(vf - vc) / vf < 0.01

    def test_grid_refinement_stability_hull_case(self):
        model, G = PWA_MODEL, XZ2
        fine = build_grid(model, 2000)
        coarse = build_grid(model, 1000)
        idx = np.searchsorted(fine, coarse)
        assert np.array_equal(fine[idx], coarse)
        u = model.spec.cdf(fine)
        plan_f = YPlan(G, model, fine)
        plan_c = YPlan(G, model, coarse)
        rng = default_stream(400)
        m = 100_000
        ys_f = np.empty(m)
        ys_c = np.empty(m)
        done = 0
        while done < m:
            b = min(4096, m - done)
            paths = _bridge_values(u, b, rng)
            ys_f[done:done + b] = plan_f.apply(paths)
            ys_c[done:done + b] = plan_c.apply(paths[:, idx])
            done += b
        vf, vc = np.var(ys_f, ddof=1), np.var(ys_c, ddof=1)
        assert abs(vf - vc) / vf < 0.01
