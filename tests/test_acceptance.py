"""Acceptance battery.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see
them streamed).  All tolerances are frozen here.  The uniform-truth
centering criterion 8a is checked through medians: the raw statistic has
a Cauchy-type upper tail (reciprocals of Exp(1) spacings), so its
expectation is infinite at every n and no sample-mean band derived from
the limiting variance can hold.  See test_criterion_8a for the
measurements.
"""

import math
import time

import numpy as np
import pytest

from grenfun import (
    ScenarioSpec,
    StudyConfig,
    TrueModel,
    by_name,
    default_stream,
    derive_seed,
    draw,
    draw_y_samples,
    empirical_average,
    evaluate,
    fit,
    ks_distance,
    lcm,
    mu_plugin,
    normal_quantile,
    nu_plugin,
    one_step_correction,
    run_study,
    run_uniform_study,
    true_sigma_eff,
    true_tau,
)
from grenfun.limitlaw import YPlan, _bridge_values, build_grid
from grenfun.majorant import _hull_rows

from oracles import brute_force_hull_indices, fill_chords, grenander_levels_by_pava

ACCEPTANCE_SEED = 0
Z2 = by_name("power:2")
XZ2 = by_name("xz2")
EXP1 = ScenarioSpec.exponential(1.0)
PWA = ScenarioSpec.paper_pwa()
SQRT2 = math.sqrt(2.0)


def record(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"\n[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_geometry_oracle():
    """1000 random point sets (n <= 200): hull equals the brute-force
    chord-domination oracle exactly at every grid point, in under 10 s."""
    rng = default_stream(20260809)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        if trial % 2:
            xs = np.sort(rng.random(n)) * 10.0
            ys = rng.random(n)
        else:
            # dyadic coordinates: collinear runs and x-ties are exact
            xs = np.sort(rng.integers(0, 257, n)) / 128.0
            ys = rng.integers(0, 513, n) / 256.0
        xs_u, inverse = np.unique(xs, return_inverse=True)
        ys_u = np.full(xs_u.size, -np.inf)
        np.maximum.at(ys_u, inverse, ys)
        hull = lcm(xs, ys)
        idx = brute_force_hull_indices(xs_u, ys_u)
        assert np.array_equal(hull.knots, xs_u[idx])
        assert np.array_equal(hull.values, ys_u[idx])
        assert np.array_equal(hull(xs_u), np.interp(xs_u, xs_u[idx], ys_u[idx]))
    elapsed = time.perf_counter() - start
    record(1, "hull equals brute-force oracle on 1000 point sets",
           elapsed < 10.0, f"exact on all sets, {elapsed:.1f}s")


def test_criterion_2_pava_equivalence():
    """Grenander levels equal the pool-adjacent-violators oracle on 500
    random samples (n <= 500), to 1e-12, in under 30 s."""
    scenarios = [EXP1, ScenarioSpec.uniform(2.0), PWA]
    rng = default_stream(20260810)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(500):
        spec = scenarios[trial % 3]
        n = int(rng.integers(1, 501))
        s = draw(spec, n, default_stream(derive_seed(ACCEPTANCE_SEED + 1, trial)))
        d = fit(s)
        fitted = np.atleast_1d(evaluate(d, s.values))
        oracle = grenander_levels_by_pava(s.values)
        rel = np.max(np.abs(fitted - oracle) / np.maximum(1.0, np.abs(oracle)))
        worst = max(worst, float(rel))
        assert rel <= 1e-12
    elapsed = time.perf_counter() - start
    record(2, "PAVA oracle equivalence on 500 samples",
           elapsed < 30.0, f"worst relative gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_carrier_identity():
    """Carrier-average identity to 1e-12 relative and a vanishing
    one-step correction (1e-10) on 1000 random triples, in under 60 s."""
    import grenfun.functionals as fm

    scenarios = [EXP1, ScenarioSpec.uniform(2.0), PWA]
    hs = [by_name("identity"), Z2, by_name("power:3"),
          fm.ScalarFunctional(h=np.expm1, hprime=np.exp, hdoubleprime=np.exp)]
    rng = default_stream(20260811)
    start = time.perf_counter()
    worst_identity = 0.0
    worst_onestep = 0.0
    for trial in range(1000):
        spec = scenarios[trial % 3]
        h = hs[trial % 4]
        n = int(math.exp(rng.random() * math.log(10_000.0)))
        s = draw(spec, max(n, 1), default_stream(derive_seed(ACCEPTANCE_SEED + 2, trial)))
        d = fit(s)
        if float(np.max(d.levels)) > h.z_max:
            # a spiked first level leaves the functional's declared
            # domain (caller contract); fall back to the quadratic
            h = Z2
        lhs = nu_plugin(h, d)
        rhs = empirical_average(h, s, d)
        rel = abs(lhs - rhs) / max(1.0, abs(lhs))
        corr = abs(one_step_correction(h, s, d))
        fitted = np.atleast_1d(evaluate(d, s.values))
        wscale = max(1.0, float(np.max(np.abs(h.h(fitted) + fitted * h.hprime(fitted)))))
        worst_identity = max(worst_identity, rel)
        worst_onestep = max(worst_onestep, corr / wscale)
        assert rel <= 1e-12
        assert corr <= 1e-10 * wscale
    elapsed = time.perf_counter() - start
    record(3, "carrier identity and one-step collapse on 1000 triples",
           elapsed < 60.0,
           f"worst identity gap {worst_identity:.2e}, worst one-step {worst_onestep:.2e}, {elapsed:.1f}s")


def test_criterion_4_benchmark_constants():
    """Closed-form oracles reproduce the reported scenario constants
    (1/2, 4/12, 1.828, 3.314) within 5e-4."""
    checks = [
        ("exponential tau", true_tau(EXP1, "power:2"), 0.5),
        ("exponential sigma2", true_sigma_eff(EXP1, "power:2"), 4.0 / 12.0),
        ("two-slope tau", true_tau(PWA, "power:2"), 1.828),
        ("two-slope sigma2", true_sigma_eff(PWA, "power:2"), 3.314),
        ("plug-in at truth", mu_plugin(Z2, PWA.true_density()), 1.828),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    for name, got, want in checks:
        assert abs(got - want) <= 5e-4, (name, got, want)
    record(4, "benchmark scenario constants within 5e-4", True,
           f"worst deviation {worst:.2e}")


@pytest.fixture(scope="module")
def pwa_study():
    config = StudyConfig(PWA, "power:2", (20_000,), 500, seed=ACCEPTANCE_SEED)
    return run_study(config, threads=1)[0]


def test_criterion_5_two_slope_normality(pwa_study):
    """Two-slope truth, n = 20000, 500 replications: KS of the
    standardized statistics against N(0, 3.3137...) below 0.08."""
    start = time.perf_counter()
    ks = pwa_study.summaries["ks"]
    assert pwa_study.reference["var"] == pytest.approx(8.0 * SQRT2 - 8.0, rel=1e-12)
    record(5, "desk-scale normality at the two-slope truth",
           ks < 0.08 and pwa_study.wall_time < 600.0,
           f"KS {ks:.4f} < 0.08, study time {pwa_study.wall_time:.0f}s")


@pytest.fixture(scope="module")
def exponential_study():
    config = StudyConfig(EXP1, "power:2", (100_000,), 300, seed=ACCEPTANCE_SEED)
    return run_study(config, threads=1)[0]


def test_criterion_6_exponential_qq(exponential_study):
    """Exponential truth, n = 1e5, 300 replications: central-90% Q-Q
    quantiles against a normal with the EMPIRICAL mean and variance stay
    within 0.1 of the diagonal (mean-zero normality is NOT asserted;
    the finite-n bias is real and recorded)."""
    stats = exponential_study.statistics
    m = float(np.mean(stats))
    sd = float(np.std(stats, ddof=1))
    probs = np.arange(5, 96) / 100.0
    sample_q = np.quantile(stats, probs)
    ref_q = m + sd * np.array([normal_quantile(p) for p in probs])
    worst = float(np.max(np.abs(sample_q - ref_q)))
    record(6, "exponential sampling distribution is normal in shape",
           worst <= 0.1 and exponential_study.wall_time < 1200.0,
           f"max central quantile deviation {worst:.4f} <= 0.1, "
           f"bias {m:+.3f} recorded, study time {exponential_study.wall_time:.0f}s")


@pytest.mark.slow
def test_criterion_7_limit_sampler():
    """Limit-law sampler soundness: exact identity under strict
    concavity, variances within 3 Monte Carlo standard errors of the
    efficient values at 1e5 draws, and per-interval hulls equal to the
    brute-force oracle on 200-point grids."""
    # (a) strictly concave: the derivative is the identity, bit for bit:
    # the plan hulls nothing and sums the paths as they are, by the
    # trapezoid weights (dpsi_(j-1) + dpsi_j) / 2
    exp_model = TrueModel.from_scenario(EXP1)
    grid = build_grid(exp_model, 500)
    paths = np.sin(np.outer([1.0, 0.5], grid))
    plan = YPlan(XZ2, exp_model, grid)
    assert not plan.needs_hull and plan.fixed is None
    padded = np.concatenate(([0.0], plan.dpsi, [0.0]))
    weights = (padded[:-1] + padded[1:]) / 2
    assert plan.apply(paths).tobytes() == (-(paths @ weights + 0.0)).tobytes()

    # (b) per-interval LCM against the oracle on 200-point grids, every
    # row hulled in one kernel call with the plan's interval ends fixed,
    # and filled from its vertices by the oracle's chord fill
    pwa_model = TrueModel.from_scenario(PWA)
    grid200 = build_grid(pwa_model, 200)
    u200 = pwa_model.spec.cdf(grid200)
    rng = default_stream(derive_seed(ACCEPTANCE_SEED, 71))
    paths = _bridge_values(u200, 20, rng)
    hat = paths.copy()
    fill_chords(hat, grid200, _hull_rows(hat, grid200, YPlan(XZ2, pwa_model, grid200).fixed))
    for vals, out in zip(paths, hat):
        expected = vals.copy()
        for a, b in pwa_model.affine_intervals():
            ia, ib = int(np.searchsorted(grid200, a)), int(np.searchsorted(grid200, b))
            idx = brute_force_hull_indices(grid200[ia:ib + 1], vals[ia:ib + 1])
            seg = np.interp(grid200[ia:ib + 1], grid200[ia:ib + 1][idx],
                            vals[ia:ib + 1][idx])
            expected[ia:ib + 1] = np.maximum(vals[ia:ib + 1], seg)
        assert np.array_equal(out, expected)

    # (c) efficient variances at 1e5 draws, 3 empirical-SE bands
    def var_with_se(ys):
        v = float(np.var(ys, ddof=1))
        centered = ys - np.mean(ys)
        se = math.sqrt((float(np.mean(centered ** 4)) - v * v) / ys.size)
        return v, se

    ys_exp, _ = draw_y_samples(Z2.as_smooth(), exp_model, 8000, 100_000,
                               default_stream(derive_seed(ACCEPTANCE_SEED, 72)))
    v_exp, se_exp = var_with_se(ys_exp)
    dev_exp = abs(v_exp - 1.0 / 3.0)
    assert dev_exp < 3.0 * se_exp

    ys_pwa, _ = draw_y_samples(Z2.as_smooth(), pwa_model, 2000, 100_000,
                               default_stream(derive_seed(ACCEPTANCE_SEED, 73)))
    v_pwa, se_pwa = var_with_se(ys_pwa)
    dev_pwa = abs(v_pwa - (8.0 * SQRT2 - 8.0))
    assert dev_pwa < 3.0 * se_pwa

    record(7, "limit-law sampler soundness", True,
           f"exp var {v_exp:.5f} (dev {dev_exp:.5f} < {3 * se_exp:.5f}), "
           f"two-slope var {v_pwa:.4f} (dev {dev_pwa:.4f} < {3 * se_pwa:.4f})")


@pytest.mark.slow
def test_criterion_7_conjectured_non_normal_recorded():
    """Descriptive record for the x-weighted quadratic functional at the
    two-slope truth: the limit is conjectured non-normal; the KS distance
    to the mean-zero efficient normal is recorded, not asserted."""
    pwa_model = TrueModel.from_scenario(PWA)
    ys, info = draw_y_samples(XZ2, pwa_model, 1000, 100_000,
                              default_stream(derive_seed(ACCEPTANCE_SEED, 74)))
    sig2 = true_sigma_eff(PWA, "xz2")
    ks = ks_distance(ys, {"mean": 0.0, "var": sig2})
    print(f"\n[RECORD] criterion 7 (descriptive): x-weighted quadratic at the "
          f"two-slope truth: KS vs N(0, {sig2:.4f}) = {ks:.4f} at 1e5 draws "
          f"(> 0.02 observed; mean {float(np.mean(ys)):+.4f}, "
          f"var {float(np.var(ys, ddof=1)):.4f})")


@pytest.fixture(scope="module")
def uniform_study():
    return run_uniform_study("power:2", [10_000, 100_000], 500,
                             seed=ACCEPTANCE_SEED, threads=1)


def _raw_uniform(report, b):
    """Undo the standardization: raw = n (mu_hat - h(1))."""
    logn = math.log(report.n)
    return report.statistics * math.sqrt(3.0 * b * b * logn) + b * logn


def _median_se(x):
    """Large-sample standard error of a sample median, with the density
    at the median taken from a normal of the same interquartile range."""
    q25, q75 = np.quantile(x, [0.25, 0.75])
    return math.sqrt(math.pi / 2.0) * ((q75 - q25) / 1.349) / math.sqrt(x.size)


@pytest.mark.slow
def test_criterion_8a_uniform_mean_band_spec_defect(uniform_study):
    """Uniform truth, n = 1e4 and 1e5, 500 replications each: the
    median of the raw statistic n(mu_hat - 1) grows by b log(n2/n1) =
    log 10 (b = h''(1)/2 = 1), within 3 Monte Carlo standard errors.

    The limit theorem behind this criterion, (raw - b log n) /
    sqrt(3 b^2 log n) -> N(0, 1), holds in distribution only.  A
    sample-mean band |mean(raw) - log n| <= 3 sqrt(3 log n / R) cannot
    check it: the smallest spacing contributes a term distributed like a
    reciprocal Exp(1) variable (the j = 1 Gamma term of the classical
    representation), so P(raw > x) ~ c/x and E[raw] is infinite at every
    n, and the band's standard error assumes a variance 3 log n that does
    not exist either.  At n = 1e5 over seeds 0-7, mean(raw) - log n ran
    from +3.4 to +15.6 against a band of +-0.79, with single replications
    up to 2158.  The median exists and carries the centering, but at
    finite n it sits an O(1) amount above b log n (median(raw) - log n =
    +0.65 at n = 1e5 and seed 0, +0.91 on average over seeds 0-7), an
    offset the limit theorem does not pin down.  The growth of the median
    between two sizes cancels that offset and leaves the b log n term.

    Each median's standard error is sqrt(pi/2) (IQR/1.349) / sqrt(R); the
    two are combined in quadrature as if independent.  Replication r uses
    the same derived seed at both sizes, so the two medians are mildly
    positively correlated (Spearman 0.19 between the paired raw values at
    seed 0) and the band is about 10% conservative.
    """
    small, large = uniform_study
    b = 0.5 * float(Z2.hdoubleprime(1.0))
    raw_small, raw_large = _raw_uniform(small, b), _raw_uniform(large, b)
    expected = b * math.log(large.n / small.n)
    growth = float(np.median(raw_large) - np.median(raw_small))
    band = 3.0 * math.hypot(_median_se(raw_small), _median_se(raw_large))
    deviation = growth - expected
    record("8a", "uniform-truth raw median grows by b log(n2/n1) "
                 "(b log n centering)",
           abs(deviation) <= band,
           f"median growth {growth:.3f} vs {expected:.3f}, deviation "
           f"{deviation:+.3f} within +-{band:.3f}; median - b log n "
           f"{float(np.median(raw_large)) - b * math.log(large.n):+.3f} at "
           f"n = {large.n}; mean {float(np.mean(raw_large)):.3f} recorded "
           f"(no finite mean)")


@pytest.mark.slow
def test_criterion_8b_uniform_clt_ks(uniform_study):
    """Uniform truth, n = 1e5, 500 replications: KS of the standardized
    statistics against N(0, 1) below 0.15 (slow sqrt(log n) regime).

    The threshold holds at ACCEPTANCE_SEED = 0 (KS 0.117) but not at
    every seed: over seeds 0-11 the KS distance ran from 0.117 to 0.167,
    and 4 of the 12 exceeded 0.15.  At this n the standardized law is
    still visibly off N(0, 1): its robust spread (IQR/1.349) is 1.15 to
    1.40 times the limit's, and the raw median sits +0.2 to +1.6 above
    log n.  Both gaps close only as log n grows, so the seed sensitivity
    comes from the slow regime, not from the estimator; the seed and the
    threshold are kept as stated.
    """
    report = uniform_study[-1]
    ks = report.summaries["ks"]
    record("8b", "uniform-truth standardized statistics near N(0,1)",
           ks < 0.15 and report.wall_time < 900.0,
           f"KS {ks:.4f} < 0.15, study time {report.wall_time:.0f}s")


def test_criterion_9_thread_reproducibility(tmp_path):
    """Same seed, different worker counts: byte-identical statistics
    CSV files, for both study types."""
    config = StudyConfig(EXP1, "power:2", (1000,), 20, seed=7)
    files = []
    for threads in (1, 2):
        out = tmp_path / f"study_t{threads}"
        run_study(config, threads=threads, out_dir=out)
        files.append((out / "exponential_power2_n1000_stats.csv").read_bytes())
    ok_study = files[0] == files[1]

    files = []
    for threads in (1, 3):
        out = tmp_path / f"uniform_t{threads}"
        run_uniform_study("power:3", [400], 15, seed=11, threads=threads, out_dir=out)
        files.append((out / "uniform_clt_power3_n400_stats.csv").read_bytes())
    ok_uniform = files[0] == files[1]

    record(9, "byte-identical statistics CSVs across thread counts",
           ok_study and ok_uniform,
           f"study bytes equal: {ok_study}, uniform bytes equal: {ok_uniform}")
