"""Tests of the benchmark's own independent pieces.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; they are not part of the library's test suite.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

import checks
import grenfun as gf
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed,rep", [(0, 0), (7, 3), (2**31 + 5, 39)])
def test_redraw_reproduces_grenfun_draw(seed, rep):
    stream = gf.default_stream(gf.derive_seed(seed, rep))
    drawn = gf.draw(gf.ScenarioSpec.exponential(1.0), 500, stream).values
    assert np.array_equal(checks.redraw_exponential(seed, rep, 500), drawn)


def test_paper_pwa_quantile_inverts_the_cdf():
    u = np.linspace(0.0, 0.999, 1001)
    x = workloads.paper_pwa_quantile(u)
    assert np.allclose(gf.ScenarioSpec.paper_pwa().cdf(x), u, rtol=0, atol=1e-14)


def _bridge_mc(u, a, draws, rng):
    """Brute Monte Carlo of sum_j a_j B(u_j): Brownian motion on the grid
    u (ending at 1) from independent increments, pinned at 1."""
    w = np.cumsum(rng.standard_normal((draws, u.size - 1)) * np.sqrt(np.diff(u)), axis=1)
    w = np.concatenate((np.zeros((draws, 1)), w), axis=1)
    bridge = w - np.outer(w[:, -1], u)
    return bridge @ a


def _within_4se(sample, variance):
    se = np.var(sample, ddof=1) * math.sqrt(2.0 / (sample.size - 1))
    return abs(np.var(sample, ddof=1) - variance) <= 4.0 * se


def test_v_grid_matches_brute_monte_carlo_on_a_coarse_grid():
    grid = 12
    x = np.linspace(0.0, -math.log(checks.TRUNCATION_MASS), grid + 1)
    u = np.append(-np.expm1(-x), 1.0)
    a = np.append(np.diff(2.0 * x * np.exp(-x)), [0.0, 0.0])
    ys = _bridge_mc(u, a, 200_000, np.random.default_rng(1))
    assert _within_4se(ys, checks.v_grid_exponential(grid))


def test_v_grid_matches_the_sampler_on_a_coarse_grid():
    model = gf.TrueModel.from_scenario(gf.ScenarioSpec.exponential(1.0))
    ys, _ = gf.draw_y_samples(gf.by_name("xz2"), model, 12, 200_000, gf.default_stream(2))
    assert _within_4se(ys, checks.v_grid_exponential(12))


def test_linear_pwa_variance_matches_brute_monte_carlo_on_a_coarse_grid():
    grid = 10
    r2 = math.sqrt(2.0)
    kink = 1.0 - 1.0 / r2
    x = np.union1d(np.linspace(0.0, 1.0, grid + 1), [kink])
    u = np.asarray(gf.ScenarioSpec.paper_pwa().cdf(x))
    lv = np.asarray(gf.ScenarioSpec.paper_pwa().density(x[1:]))
    a = np.zeros(x.size)
    a[:-1] = 2.0 * lv * np.diff(x)
    a[np.searchsorted(x, kink)] += 2.0 * kink * (lv[-1] - lv[0])
    ys = _bridge_mc(u, a, 200_000, np.random.default_rng(3))
    assert _within_4se(ys, checks.var_linear_pwa(grid))


def test_reference_variances_at_the_workload_grid():
    assert checks.v_grid_exponential() == pytest.approx(0.04490, abs=5e-6)
    assert checks.V_CONT_EXP_XZ2 == pytest.approx(0.04630, abs=5e-6)
    assert checks.var_linear_pwa() == pytest.approx(0.1325, abs=5e-5)


def test_hull_draws_lie_below_the_linear_sum():
    model = gf.TrueModel.from_scenario(gf.ScenarioSpec.paper_pwa())
    ys, _ = gf.draw_y_samples(gf.by_name("xz2"), model, 200, 4000, gf.default_stream(4))
    sd = math.sqrt(checks.var_linear_pwa(200))
    assert checks.one_sided_ks(ys, lambda y: norm.cdf(y / sd)) <= checks.KS_C / math.sqrt(ys.size)
    assert ys.mean() < -5.0 * ys.std(ddof=1) / math.sqrt(ys.size)


def _step_integral(x, f, integrand):
    """Integral of integrand(t, f(t)) over (0, x_n] by quadrature per spacing."""
    edges = np.concatenate(([0.0], x))
    return sum(quad(lambda t, v=v: integrand(t, v), lo, hi)[0]
               for lo, hi, v in zip(edges[:-1], edges[1:], f))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_sums_agree_with_the_pava_step_density(seed):
    x = np.sort(np.random.default_rng(seed).exponential(size=60))
    f = checks.pava_levels(x)
    assert checks.tau_xz2(x, f) == pytest.approx(_step_integral(x, f, lambda t, v: t * v * v),
                                                  rel=1e-12)
    assert checks.mu_power2(x, f) == pytest.approx(_step_integral(x, f, lambda t, v: v * v),
                                                    rel=1e-12)
    m1 = _step_integral(x, f, lambda t, v: v * (2 * v) ** 2)
    m2 = _step_integral(x, f, lambda t, v: v * 2 * v)
    assert checks.sigma2_power2(x, f) == pytest.approx(m1 - m2 * m2, rel=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_form_sums_agree_with_grenfun_on_small_samples(seed):
    x = np.sort(workloads.paper_pwa_quantile(np.random.default_rng(seed).random(300)))
    f = checks.pava_levels(x)
    sample = gf.ingest(x)
    d = gf.fit(sample)
    assert checks.tau_xz2(x, f) == pytest.approx(gf.tau_plugin(gf.by_name("xz2"), d), rel=1e-12)
    assert checks.mu_power2(x, f) == pytest.approx(gf.mu_plugin(gf.by_name("power:2"), d),
                                                   rel=1e-12)
    assert checks.sigma2_power2(x, f) == pytest.approx(
        gf.sigma_eff_mu(gf.by_name("power:2"), d), rel=1e-10)
    assert checks.sigma2_xz2(x, f) == pytest.approx(
        gf.sigma_eff_tau(gf.by_name("xz2"), sample, d), rel=1e-10)
    assert norm.ppf(0.975) == pytest.approx(gf.normal_quantile(0.975), rel=1e-12)


def test_benchmark_json_names_the_workloads_and_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert all(m["unit"] == tracing.unit(m["name"]) for m in spec["per_layer"])


def test_layer_metrics_split_busy_and_self_time():
    spans = [[0, "cli.main", 0.0, 10.0, -1, None],
             [0, "grenander.fit", 1.0, 5.0, 0, {"pieces": 3}],
             [0, "majorant.lcm", 2.0, 4.0, 1, {"points_in": 9, "vertices_out": 4}],
             [1, "cli.main", 10.0, 12.0, -1, None]]
    m = tracing.layer_metrics(spans, slowness=[1.0, 2.0])
    assert m["cli.main.self_s"]["value"] == pytest.approx((10 - 4 + 2 / 2) / 2)
    assert m["grenander.fit.self_s"]["value"] == pytest.approx(1.0)
    assert m["grenander.fit.pieces"]["value"] == pytest.approx(1.5)
    assert m["majorant.lcm.points_in"]["value"] == pytest.approx(4.5)
    assert m["samples.draw.s"]["value"] == 0.0
