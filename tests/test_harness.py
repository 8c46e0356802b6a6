import dataclasses
import json
import logging
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grenfun
from grenfun import (
    InputError,
    NumericError,
    ScenarioSpec,
    SmoothFunctional,
    StudyConfig,
    by_name,
    default_stream,
    derive_seed,
    draw,
    ks_distance,
    run_study,
    run_uniform_study,
    uniform_clt_statistic,
)
from grenfun.harness import (_centered, _map_replications, _replicate, _replications, _truth,
                             _worker_count)
from grenfun.limitlaw import _limit_is_normal

from oracles import EDGE_FLOATS, affine_intervals, load_y_csv, true_sigma_eff, true_tau


class TestTruthOracles:
    def test_exponential_quadratic(self):
        spec = ScenarioSpec.exponential(1.0)
        assert true_tau(spec, "power:2") == 0.5
        assert true_sigma_eff(spec, "power:2") == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_exponential_rate_scaling(self):
        spec = ScenarioSpec.exponential(2.0)
        # int (2 e^{-2x})^2 dx = 4 / 4 = 1
        assert true_tau(spec, "power:2") == pytest.approx(1.0, rel=1e-15)

    def test_uniform_powers(self):
        spec = ScenarioSpec.uniform(2.0)
        assert true_tau(spec, "power:3") == pytest.approx(2.0 ** -2, rel=1e-15)
        assert true_sigma_eff(spec, "power:3") == pytest.approx(0.0, abs=1e-15)

    def test_mass_functional_degenerate(self):
        spec = ScenarioSpec.paper_pwa()
        assert true_tau(spec, "identity") == pytest.approx(1.0, rel=1e-12)
        assert true_sigma_eff(spec, "identity") == 0.0

    @pytest.mark.parametrize("spec,name", [(ScenarioSpec.exponential(1.0), "identity"),
                                           (ScenarioSpec.uniform(2.0), "power:2")],
                             ids=["exponential-identity", "uniform-power2"])
    def test_constant_gdot_keeps_variance_zero(self, spec, name):
        # 0 is the true variance here, not an underflow
        assert true_sigma_eff(spec, name) == 0.0

    def test_xz2_closed_forms(self):
        assert true_tau(ScenarioSpec.exponential(3.0), "xz2") == 0.25
        assert true_sigma_eff(ScenarioSpec.exponential(1.0), "xz2") == pytest.approx(5.0 / 108.0, rel=1e-12)
        c = 1.0 - 1.0 / math.sqrt(2.0)
        v1, v2 = math.sqrt(2.0) + 1.0, math.sqrt(2.0) - 1.0
        expected = (v1 ** 2 * c ** 2 + v2 ** 2 * (1.0 - c ** 2)) / 2.0
        assert true_tau(ScenarioSpec.paper_pwa(), "xz2") == pytest.approx(expected, rel=1e-14)

    def test_reference_rule(self):
        assert _limit_is_normal(by_name("power:2"), ScenarioSpec.paper_pwa())
        assert _limit_is_normal(by_name("xz2"), ScenarioSpec.exponential(1.0))
        assert not _limit_is_normal(by_name("xz2"), ScenarioSpec.paper_pwa())


def _exp_minus_x(x):
    return np.exp(-np.asarray(x, dtype=float))


#: g(z, x) = z^2 e^{-x}: not a built-in name, so it reaches the truths
#: only through the generic core
Z2_EXP_DECAY = SmoothFunctional(
    g=lambda z, x: z * z * _exp_minus_x(x),
    gdot=lambda z, x: 2.0 * z * _exp_minus_x(x),
    gddot=lambda z, x: 2.0 * _exp_minus_x(x) + 0.0 * z,
    vanishes_at_zero=True,
)
TABLE_TRUTHS = {
    "exponential(0.5)": ScenarioSpec.exponential(0.5),
    "exponential(1)": ScenarioSpec.exponential(1.0),
    "exponential(3)": ScenarioSpec.exponential(3.0),
    "uniform(2)": ScenarioSpec.uniform(2.0),
    "paper_pwa": ScenarioSpec.paper_pwa(),
    "three_steps": ScenarioSpec.piecewise([0.5, 1.0, 2.0], [1.0, 0.6, 0.2]),
}
TABLE_FUNCTIONALS = {name: by_name(name)
                     for name in ("identity", "power:2", "power:3", "power:4", "xz2")}
TABLE_FUNCTIONALS["z2_exp_decay"] = Z2_EXP_DECAY


def _quad_integral(spec, phi):
    """Integral of phi(f(x), x) dx by scipy's adaptive quadrature, one
    call per piece of the support."""
    from scipy.integrate import quad

    pieces = [(0.0, math.inf)] if spec.is_strictly_concave else affine_intervals(spec)
    return math.fsum(
        quad(lambda x: phi(float(spec.density(x)), x), a, b,
             epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in pieces)


class TestTruthTable:
    """The generic truths against an independent integrator."""

    @pytest.mark.parametrize("functional", sorted(TABLE_FUNCTIONALS))
    @pytest.mark.parametrize("truth", sorted(TABLE_TRUTHS))
    def test_matches_scipy_quad(self, truth, functional):
        spec, G = TABLE_TRUTHS[truth], TABLE_FUNCTIONALS[functional]
        tau = _quad_integral(spec, G.g)
        mass = _quad_integral(spec, lambda z, x: z)
        mean = _quad_integral(spec, lambda z, x: G.gdot(z, x) * z) / mass
        var = _quad_integral(spec, lambda z, x: (G.gdot(z, x) - mean) ** 2 * z) / mass
        got_tau, got_var = _truth(spec, G)
        assert got_tau == pytest.approx(tau, rel=1e-12)
        assert got_var == pytest.approx(var, rel=1e-12, abs=1e-14)
        if G is not Z2_EXP_DECAY:
            assert (true_tau(spec, functional), true_sigma_eff(spec, functional)) == (got_tau, got_var)

    @pytest.mark.parametrize("truth", sorted(TABLE_TRUTHS))
    def test_identity_variance_is_exactly_zero(self, truth):
        # ks_distance takes a point-mass reference only when var == 0
        assert true_sigma_eff(TABLE_TRUTHS[truth], "identity") == 0.0

    def test_nonvanishing_integrand_rejected(self):
        G = SmoothFunctional(g=lambda z, x: z * z + 1.0, gdot=lambda z, x: 2.0 * z,
                             gddot=lambda z, x: 2.0 + 0.0 * z, x_free=True)
        with pytest.raises(NumericError, match="divergent tail"):
            _truth(ScenarioSpec.paper_pwa(), G)


class TestKsDistance:
    def test_own_reference_small(self):
        rng = default_stream(5)
        sample = 2.0 + 1.5 * rng.standard_normal(10_000)
        d = ks_distance(sample, {"mean": 2.0, "var": 2.25})
        assert d < 1.63 / math.sqrt(10_000)

    def test_identical_samples_zero(self):
        rng = default_stream(6)
        x = rng.standard_normal(500)
        assert ks_distance(x, x.copy()) == 0.0

    def test_constant_sample_vs_normal(self):
        assert ks_distance(np.zeros(100), {"mean": 0.0, "var": 1.0}) >= 0.5

    def test_two_sample_known_value(self):
        assert ks_distance([1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_point_mass_reference(self):
        assert ks_distance([0.0, 1.0], {"mean": 0.0, "var": 0.0}) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ks_distance([], {"mean": 0.0, "var": 1.0})
        with pytest.raises(InputError, match="empty reference"):
            ks_distance([1.0, 2.0], [])


class TestStudyConfig:
    def test_from_json_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}},
            "functional": "power:2", "n": 500, "replications": 10, "seed": 3,
        }))
        config = StudyConfig.from_json(path)
        assert config.n_values == (500,)
        assert config.seed == 3

    def test_unknown_functional_listed(self):
        with pytest.raises(InputError, match="valid names"):
            StudyConfig(ScenarioSpec.exponential(1.0), "nope", (10,), 5, 0)

    def test_unknown_scenario_listed(self):
        with pytest.raises(InputError, match="valid kinds"):
            StudyConfig.from_json({"scenario": {"kind": "cauchy"},
                                   "functional": "power:2", "n": [10],
                                   "replications": 5, "seed": 0})

    def test_missing_field_reported(self):
        with pytest.raises(InputError, match="missing field"):
            StudyConfig.from_json({"functional": "power:2"})
        with pytest.raises(InputError, match="missing field 'n'"):
            StudyConfig.from_json({"scenario": {"kind": "paper_pwa"}, "functional": "power:2",
                                   "n_values": [1000], "replications": 3})

    @pytest.mark.parametrize("field,change", [
        ("replications", {"replications": 2.7}),
        ("replications", {"replications": True}),
        ("seed", {"seed": 1.5}),
        ("n", {"n": [1000.5]}),
        ("reference_draws", {"reference_draws": 10.5}),
        ("reference_draws", {"reference_draws": 0}),
        ("reference_draws", {"reference_draws": -5}),
    ], ids=["replications=2.7", "replications=true", "seed=1.5", "n=[1000.5]",
            "reference_draws=10.5", "reference_draws=0", "reference_draws=-5"])
    def test_non_integral_count_or_seed_reported(self, field, change):
        # neither truncated toward zero nor left for the sampler to reject
        with pytest.raises(InputError, match=f"field {field!r} has an invalid value"):
            StudyConfig.from_json({"scenario": {"kind": "paper_pwa"}, "functional": "power:2",
                                   "n": [1000], "replications": 3, **change})

    @pytest.mark.parametrize("field,n_values,replications", [
        ("n_values", (1000.5,), 10), ("n_values", ("100",), 10),
        ("replications", (1000,), 2.5), ("replications", (1000,), "3"),
    ], ids=["n=1000.5", "n='100'", "replications=2.5", "replications='3'"])
    def test_direct_construction_validates_like_json(self, field, n_values, replications):
        # 1000.5 ran at n = 1000, and 2.5 failed only inside run_study
        with pytest.raises(InputError, match=f"field {field!r} has an invalid value"):
            StudyConfig(ScenarioSpec.exponential(1.0), "xz2", n_values, replications, 0)

    def test_uniform_study_validates_its_budget(self):
        with pytest.raises(InputError, match="field 'replications' has an invalid value"):
            run_uniform_study("power:2", [100], 2.5, seed=0)

    def test_integral_floats_accepted(self):
        config = StudyConfig.from_json({
            "scenario": {"kind": "paper_pwa"}, "functional": "power:2",
            "n": 1e3, "replications": 3.0, "reference_draws": 1e4, "seed": 7.0})
        assert (config.n_values, config.replications, config.seed) == ((1000,), 3, 7)
        assert config.reference_draws == 10000
        assert all(type(v) is int for v in (config.n_values[0], config.replications,
                                             config.seed, config.reference_draws))

    def test_negative_seed_rejected(self):
        # by the config itself, so run_study never hands it to numpy
        with pytest.raises(InputError, match="field 'seed' has an invalid value: -1"):
            StudyConfig(ScenarioSpec.exponential(1.0), "xz2", [100], 2, seed=-1)

    def test_no_reference_draws_rejected(self):
        # by the config itself, as from JSON, whether or not a reference is drawn
        with pytest.raises(InputError, match="field 'reference_draws' has an invalid value: 0"):
            StudyConfig(ScenarioSpec.paper_pwa(), "xz2", [100], 2, seed=0, reference_draws=0)

    def test_legacy_grid_size_is_ignored(self):
        # configs written for the earlier grid sampler still carry it
        config = {"scenario": {"kind": "paper_pwa"}, "functional": "xz2", "n": [100],
                  "replications": 2, "seed": 0, "reference_draws": 50}
        assert (StudyConfig.from_json({**config, "grid_size": 1000})
                == StudyConfig.from_json(config))

    @pytest.mark.parametrize("n", [0, [], [0]])
    def test_no_positive_sample_size_reported(self, n):
        # as an empty budget, not as a missing field
        with pytest.raises(InputError, match="must be positive"):
            StudyConfig.from_json({"scenario": {"kind": "paper_pwa"}, "functional": "power:2",
                                   "n": n, "replications": 3})


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study")
    config = StudyConfig(ScenarioSpec.exponential(1.0), "power:2",
                         (400,), 60, seed=0)
    reports = run_study(config, threads=1, out_dir=out)
    return reports, out


class TestRunStudy:
    def test_reference_is_efficient_normal(self, small_study):
        (report,), _ = small_study
        assert report.reference["type"] == "normal"
        assert report.reference["var"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_statistics_shape_and_summaries(self, small_study):
        (report,), _ = small_study
        assert report.statistics.shape == (60,)
        assert set(report.summaries) >= {"mean", "variance", "ks", "qq", "bias_check"}
        assert 0.0 <= report.summaries["ks"] <= 1.0
        assert len(report.summaries["qq"]) == 99

    def test_qq_pairs_monotone(self, small_study):
        (report,), _ = small_study
        qq = np.asarray(report.summaries["qq"])
        assert np.all(np.diff(qq[:, 0]) >= 0)
        assert np.all(np.diff(qq[:, 1]) >= 0)

    def test_files_written_and_parse(self, small_study):
        (report,), out = small_study
        stats_file = out / f"{report.base_name()}_stats.csv"
        rows = stats_file.read_text().strip().splitlines()
        assert rows[0] == "replication,statistic"
        assert len(rows) == 61
        parsed = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.array_equal(parsed, report.statistics)
        summary = json.loads((out / f"{report.base_name()}_summary.json").read_text())
        assert summary["summaries"]["bias_check"]["threshold"] > 0

    def test_csv_rows_are_reprs(self, small_study):
        (report,), _ = small_study
        values = np.array(EDGE_FLOATS)
        qq = [[r, q] for r, q in zip(EDGE_FLOATS, reversed(EDGE_FLOATS))]
        pinned = dataclasses.replace(report, statistics=values,
                                     summaries={**report.summaries, "qq": qq})
        stats = ["replication,statistic"] + [f"{i},{float(v)!r}" for i, v in enumerate(values)]
        assert pinned.statistics_csv() == "\n".join(stats) + "\n"
        pairs = ["reference_quantile,sample_quantile"]
        pairs += [f"{float(r)!r},{float(q)!r}" for r, q in qq]
        assert pinned.qq_csv() == "\n".join(pairs) + "\n"

    def test_thread_count_does_not_change_statistics(self):
        config = StudyConfig(ScenarioSpec.paper_pwa(), "power:2", (200,), 16, seed=5)
        a = run_study(config, threads=1)[0].statistics
        b = run_study(config, threads=2)[0].statistics
        assert np.array_equal(a, b)

    def test_empirical_reference_emits_y_file(self, tmp_path):
        config = StudyConfig(ScenarioSpec.paper_pwa(), "xz2", (300,), 12,
                             seed=1, reference_draws=400)
        (report,) = run_study(config, threads=1, out_dir=tmp_path)
        assert report.reference["type"] == "empirical"
        y_file = tmp_path / report.reference["file"]
        assert y_file.exists()
        header = y_file.read_text().splitlines()[0]
        assert header.startswith("#")
        meta = json.loads(header[1:])
        assert meta["model"]["kind"] == "paper_pwa"

    def test_bias_check_centers_on_the_reference(self, tmp_path, small_study):
        # paper_pwa/xz2 has a limit of mean -0.629: the study's mean is
        # checked against the reference draws' mean, with their SE, and a
        # correct study does not exceed (against 0 it would)
        config = StudyConfig(ScenarioSpec.paper_pwa(), "xz2", (20_000,), 200,
                             seed=3, reference_draws=4000)
        (report,) = run_study(config, threads=1, out_dir=tmp_path)
        ys, _ = load_y_csv(tmp_path / report.reference["file"])
        check = report.summaries["bias_check"]
        var = report.summaries["variance"]
        assert check["center"] == float(np.mean(ys))
        assert check["threshold"] == 5.0 * math.sqrt(var / 200 + float(np.var(ys, ddof=1)) / 4000)
        assert not check["exceeds"] and abs(check["mean"]) > check["threshold"]
        # the efficient normal is centered at 0
        (normal,), _ = small_study
        check = normal.summaries["bias_check"]
        assert check["center"] == 0.0
        assert check["threshold"] == 5.0 * math.sqrt(normal.summaries["variance"] / 60)


class TestRunUniformStudy:
    def test_statistics_match_direct_computation(self):
        from grenfun import by_name, draw
        from grenfun.samples import derive_seed
        (report,) = run_uniform_study("power:3", [300], 5, seed=9)
        h = by_name("power:3")
        s = draw(ScenarioSpec.uniform(1.0), 300, default_stream(derive_seed(9, 2)))
        assert report.statistics[2] == pytest.approx(uniform_clt_statistic(h, s), rel=1e-15)
        assert report.reference == {"type": "normal", "mean": 0.0, "var": 1.0}

    def test_added_sample_size_leaves_others_unchanged(self):
        (alone,) = run_uniform_study("power:2", [400], 6, seed=3)
        _, paired = run_uniform_study("power:2", [200, 400], 6, seed=3)
        assert alone.statistics.tobytes() == paired.statistics.tobytes()

    def test_no_bias_check_in_summary(self, tmp_path, caplog):
        # the statistic has no finite mean, so no bias check is reported
        caplog.set_level(logging.INFO, logger="grenfun")
        (report,) = run_uniform_study("power:2", [300], 8, seed=4, out_dir=tmp_path)
        assert "bias_check" not in report.summaries
        summary = json.loads((tmp_path / f"{report.base_name()}_summary.json").read_text())
        assert set(summary["summaries"]) == {"mean", "variance", "ks"}
        assert "bias check" not in caplog.text
        # a scenario study still logs and reports it
        config = StudyConfig(ScenarioSpec.exponential(1.0), "power:2", [200], 5, seed=4)
        assert "bias_check" in run_study(config)[0].summaries
        assert "bias check" in caplog.text

    def test_linear_functional_rejected(self):
        with pytest.raises(NumericError, match="degenerate normalization"):
            run_uniform_study("identity", [100], 5, seed=0)

    def test_unknown_name_rejected(self):
        with pytest.raises(InputError, match="valid names"):
            run_uniform_study("power:oops", [100], 5, seed=0)

    def test_smooth_functional_rejected(self):
        with pytest.raises(InputError, match="density alone"):
            run_uniform_study("xz2", [100], 5, seed=0)

    def test_one_observation_rejected(self):
        # log 1 = 0: the statistic is undefined at n = 1
        with pytest.raises(InputError, match="n >= 2.*got n = 1"):
            run_uniform_study("power:2", [100, 1], 5, seed=0)

    @pytest.mark.parametrize("n_values,reps", [([100], 0), ([100, 0], 5), ([-3], 5)])
    def test_empty_budget_rejected(self, n_values, reps):
        with pytest.raises(InputError, match="must be positive"):
            run_uniform_study("power:2", n_values, reps, seed=0)

    def test_negative_seed_rejected(self):
        # reported as a bad seed before numpy's generator sees it
        with pytest.raises(InputError, match="field 'seed' has an invalid value: -1"):
            run_uniform_study("power:2", [50], 2, seed=-1)


class TestWorkerCount:
    # the count is checked directly: no test starts a large pool
    def test_capped_by_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _worker_count(100_000, 40) == 4
        assert _worker_count(3, 40) == 3

    def test_capped_by_job_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert _worker_count(16, 5) == 5
        assert _worker_count(16, 1) == 1

    def test_unknown_cpu_count_means_one(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _worker_count(8, 40) == 1

    @pytest.mark.parametrize("threads", [0, -3])
    def test_nonpositive_rejected(self, threads):
        with pytest.raises(InputError, match="threads must be >= 1"):
            _worker_count(threads, 40)

    def test_statistics_unchanged_by_cap(self):
        # more threads than replications: the pool is capped at the job count
        config = StudyConfig(ScenarioSpec.exponential(1.0), "power:2", [200], 3, seed=5)
        serial = run_study(config, threads=1)[0].statistics
        capped = run_study(config, threads=64)[0].statistics
        assert serial.tobytes() == capped.tobytes()


def _fails_at_ten(G, s, marker):
    # top level, so the pool can send it; only replication 10 of the study
    # below draws a sample whose least value is ``marker``
    if s.values[0] == marker:
        raise NumericError("replication 10 failed")
    return 0.0


class TestReplicationBlocks:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_huge_budget_starts_at_once(self, threads):
        # the arguments of 10^15 replications are read a block at a time,
        # so replication 10's error comes before any more are built
        spec = ScenarioSpec.exponential(1.0)
        config = StudyConfig(spec, "power:2", (3,), 10**15, seed=7)
        marker = draw(spec, 3, default_stream(derive_seed(7, 10))).values[0]
        with pytest.raises(NumericError, match="replication 10 failed"):
            next(_replications(config, _fails_at_ten, (marker,), threads))

    def test_statistics_unchanged_across_blocks(self):
        # 300 replications reach a pool of two in blocks of 128, 128 and 44
        config = StudyConfig(ScenarioSpec.exponential(1.0), "power:2", [20], 300, seed=9)
        serial = run_study(config, threads=1)[0].statistics
        pooled = run_study(config, threads=2)[0].statistics
        assert serial.size == 300 and serial.tobytes() == pooled.tobytes()


_GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


def _faults_of_a_replication(args):
    # top level, so the pool can send it; minor faults of one replication
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _replicate(args)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not _GLIBC, reason="the pool workers' allocator settings are glibc's")
class TestWorkersKeepFreedMemory:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a pool of two workers")
    def test_later_replications_fault_few_pages(self):
        # exponential/xz2 at n = 1e5 frees about 800 KB of arrays per
        # replication; a worker that gives them back to the OS faults them in
        # again on the next one (600 or more minor faults, against under 10)
        spec = ScenarioSpec.exponential(1.0)
        args = [(_centered, spec, "xz2", 100_000, 11, (0.0,), rep) for rep in range(12)]
        per_worker = {}
        for pid, faults in _map_replications(_faults_of_a_replication, args, threads=2):
            per_worker.setdefault(int(pid), []).append(faults)
        # a worker's first replications fault in its heap and copy-on-write pages
        later = [faults[2:] for faults in per_worker.values() if len(faults) > 2]
        assert later
        for faults in later:
            assert np.median(faults) < 100, faults

    def test_both_thresholds_are_set(self):
        # a fresh interpreter, so this process keeps its allocator settings
        script = "from grenfun.harness import _keep_freed_memory; print(_keep_freed_memory())"
        src = str(Path(grenfun.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "True"
