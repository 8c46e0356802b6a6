import contextlib
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grenfun
import grenfun.inference
from grenfun import (InputError, ScenarioSpec, StudyConfig, by_name, default_stream, derive_seed,
                     draw, ingest, uniform_clt_statistic)
from grenfun.cli import _COMMANDS, _build_parser, main
from grenfun.harness import read_run_config
from grenfun.inference import efficient_interval

from oracles import true_tau

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def _not_json(constant):
    raise ValueError(f"not JSON: {constant}")


def _run_python(*argv):
    """``python *argv`` in a fresh interpreter that imports this package,
    with its real stdout and stderr."""
    src = str(Path(grenfun.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "observations.txt"
    lines = ["# synthetic exponential data"]
    lines += [repr(float(v)) for v in rng.exponential(1.0, 400)]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEstimate:
    def test_basic_estimate(self, data_file, capsys):
        code = main(["estimate", "--data", str(data_file), "--functional", "power:2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 400
        assert 0.2 < out["estimate"] < 0.9

    def test_with_confidence_interval(self, data_file, capsys):
        code = main(["estimate", "--data", str(data_file),
                     "--functional", "power:2", "--ci", "0.95"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        ci = out["ci"]
        assert ci["lower"] <= out["estimate"] <= ci["upper"]
        assert ci["validity"] == "pointwise"

    def test_smooth_functional_ci(self, data_file, capsys):
        code = main(["estimate", "--data", str(data_file),
                     "--functional", "xz2", "--ci", "0.9"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ci"]["lower"] <= out["estimate"] <= out["ci"]["upper"]

    def test_unknown_functional_is_config_error(self, data_file):
        assert main(["estimate", "--data", str(data_file),
                     "--functional", "entropy"]) == 2

    def test_bad_data_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\n-3.0\n")
        assert main(["estimate", "--data", str(bad), "--functional", "power:2"]) == 2
        assert f"{bad}:2: negative observation" in capsys.readouterr().err

    def test_degenerate_data_is_numeric_failure(self, tmp_path):
        degenerate = tmp_path / "zeros.txt"
        degenerate.write_text("0.0\n0.0\n")
        assert main(["estimate", "--data", str(degenerate),
                     "--functional", "power:2"]) == 3

    def test_subnormal_data_is_numeric_failure(self, tmp_path, capsys):
        subnormal = tmp_path / "tiny.txt"
        subnormal.write_text("2.2250738585e-313\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--data", str(subnormal),
                         "--functional", "power:2"]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_underflowing_estimate_is_numeric_failure(self, tmp_path, capsys):
        # levels near 1e-300 square to 0 in every piece; xz2's x z z
        # scales back up before it underflows, and passes
        scaled = tmp_path / "scaled.txt"
        np.savetxt(scaled, np.random.default_rng(0).exponential(1e300, 200))
        assert main(["estimate", "--data", str(scaled), "--functional", "power:2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: the plug-in estimate is 0.0: the integrand "
                              "underflows") and err.count("\n") == 1
        assert main(["estimate", "--data", str(scaled), "--functional", "xz2"]) == 0

    def test_underflowing_variance_is_numeric_failure(self, tmp_path, capsys):
        # levels near 1e-120 leave a normal estimate, 5e-121, but gdot^2 f
        # underflows; identity's constant gdot keeps its true variance 0
        scaled = tmp_path / "scaled.txt"
        np.savetxt(scaled, np.random.default_rng(0).exponential(1e120, 500))
        argv = ["estimate", "--data", str(scaled), "--ci", "0.95", "--functional"]
        assert main([*argv, "power:2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numeric failure: the second moment of gdot(f(X), X) "
                                       "is 0.0: the integrand underflows")
        assert main([*argv, "identity"]) == 0
        ci = json.loads(capsys.readouterr().out)["ci"]
        assert (ci["sigma_hat"], ci["degenerate"]) == (0.0, True)

    def test_xz2_variance_at_huge_observations_is_finite(self, tmp_path):
        # xz2's gdot is 2 (x z): x z is about 1 at x = 1e308, where 2 x
        # would overflow before the level 1e-308 scales it back
        for lines, estimate, sigma_hat in ((["1e308"], 0.49999999999999944, 0.0),
                                           (["1e308", "1.5e308"], 0.5000000000000004,
                                            0.3333333333333341)):
            huge = tmp_path / "huge.txt"
            huge.write_text("\n".join(lines) + "\n")
            proc = _run_python("-m", "grenfun", "estimate", "--data", str(huge),
                               "--functional", "xz2", "--ci", "0.9")
            assert (proc.returncode, proc.stderr) == (0, "")
            ci = json.loads(proc.stdout)["ci"]
            assert (ci["estimate"], ci["sigma_hat"]) == (estimate, sigma_hat)

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["estimate", "--data", str(tmp_path / "nope.txt"),
                     "--functional", "power:2"]) == 2

    @pytest.mark.parametrize("functional", ["power:2", "xz2"])
    def test_ci_fits_once(self, data_file, monkeypatch, capsys, functional):
        fits = []

        def counting_fit(s, _fit=grenfun.cli.fit):
            fits.append(s.n)
            return _fit(s)

        monkeypatch.setattr(grenfun.cli, "fit", counting_fit)
        monkeypatch.setattr(grenfun.inference, "fit", counting_fit)
        assert main(["estimate", "--data", str(data_file),
                     "--functional", functional, "--ci", "0.95"]) == 0
        assert fits == [400]

    def test_out_dir_written(self, data_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["--out", str(out), "estimate", "--data", str(data_file),
                     "--functional", "power:2"])
        assert code == 0
        assert (out / "estimate.json").exists()


class TestSimulate:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}},
            "functional": "power:2", "n": [200], "replications": 8, "seed": 4,
        }))
        out = tmp_path / "results"
        code = main(["--out", str(out), "simulate", "--config", str(config)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["replications"] == 8
        assert (out / "exponential_power2_n200_stats.csv").exists()
        assert (out / "exponential_power2_n200_qq.csv").exists()

    def test_seed_override(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "uniform", "params": {"upper": 1.0}},
            "functional": "power:2", "n": [100], "replications": 4, "seed": 4,
        }))
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", str(config)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 4
        code = main(["--seed", "99", "--out", str(tmp_path / "out2"),
                     "simulate", "--config", str(config)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_invalid_json_is_config_error(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{oops")
        assert main(["simulate", "--config", str(config)]) == 2

    def test_unknown_scenario_is_config_error(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "pareto"}, "functional": "power:2",
            "n": [100], "replications": 4, "seed": 0,
        }))
        assert main(["simulate", "--config", str(config)]) == 2

    @pytest.mark.parametrize("field,change", [
        ("replications", {"replications": "ten"}),
        ("rate", {"scenario": {"kind": "exponential", "params": {"rate": "fast"}}}),
        # numpy's generators take no negative seed
        ("seed", {"seed": -3}),
        # JSON's Infinity token, named before the truth's quadrature meets it
        ("rate", {"scenario": {"kind": "exponential", "params": {"rate": math.inf}}}),
        # the density 1/upper is past the float range
        ("upper", {"scenario": {"kind": "uniform", "params": {"upper": 1e-310}}}),
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, field, change):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}},
            "functional": "power:2", "n": [100], "replications": 4, "seed": 0,
            **change,
        }))
        assert main(["simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"field {field!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("scenario, message", [
        ({"kind": "paper_pwa", "params": {"x": 1}},
         "unknown paper_pwa scenario param 'x'; valid params: none"),
        ({"kind": "exponential", "params": {"rate": 1, "scale": 2}},
         "unknown exponential scenario param 'scale'; valid params: rate"),
        ({"kind": "piecewise_constant",
          "params": {"breakpoints": [1.0], "levels": [1.0], "upper": 1.0}},
         "unknown piecewise_constant scenario param 'upper'; valid params: breakpoints, levels"),
    ], ids=["paper_pwa", "exponential", "piecewise_constant"])
    def test_unknown_scenario_param_is_config_error(self, tmp_path, capsys, scenario, message):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"scenario": scenario, "functional": "power:2",
                                      "n": [100], "replications": 4, "seed": 0}))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["simulate", "coverage", "limit-sample"])
    @pytest.mark.parametrize("seed", [1, -3, 2.5])
    def test_scenario_seed_is_config_error(self, tmp_path, capsys, command, seed):
        # a scenario has no seed; ignoring one would change the run's draws
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}, "seed": seed},
            "functional": "power:2", "n": [100], "replications": 4,
        }))
        extra = ["--draws", "10"] if command == "limit-sample" else []
        assert main(["--out", str(tmp_path), command, "--config", str(config), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: a scenario has no 'seed': "
                                "set the config's top-level 'seed' instead\n")

    @pytest.mark.parametrize("command", ["simulate", "coverage", "limit-sample"])
    def test_overridden_seed_is_still_checked(self, tmp_path, capsys, command):
        # --seed replaces the config's seed, which must still be valid
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}},
            "functional": "power:2", "n": [100], "replications": 4, "seed": -3,
        }))
        extra = ["--draws", "10"] if command == "limit-sample" else []
        argv = ["--seed", "5", "--out", str(tmp_path), command, "--config", str(config), *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "field 'seed' has an invalid value: -3" in captured.err

    def test_no_reference_draws_is_config_error(self, tmp_path, capsys):
        # named as a field, not as a draw count deep in the sampler
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "paper_pwa", "params": {}}, "functional": "xz2",
            "n": [100], "replications": 4, "seed": 0, "reference_draws": 0,
        }))
        assert main(["--out", str(tmp_path), "simulate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "study config field 'reference_draws' has an invalid value: 0" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_truth_is_one_numeric_failure_line(self, tmp_path, threads):
        # the truth's level 1e300 squares past the float range, in the
        # step sum of a uniform truth and in the quadrature of an
        # exponential one, which must not bisect inf; the 64 quadrature
        # cells of an exponential truth at a rate below 64 ln 2 / DBL_MAX
        # end past it; numpy's warning must not reach stderr ahead of the
        # error line
        cells = "numeric failure: the end of the truth's 64 cells of width ln 2 / rate = "
        for scenario, start in (
                ({"kind": "uniform", "params": {"upper": 1e-300}},
                 "numeric failure: the integral is inf"),
                ({"kind": "exponential", "params": {"rate": 1e300}},
                 "numeric failure: the integral on piece 0 on [0.0, "),
                ({"kind": "exponential", "params": {"rate": 1e-320}}, cells + "inf is inf"),
                ({"kind": "exponential", "params": {"rate": 1e-307}},
                 cells + "6.931471805599453e+306 is inf")):
            config = tmp_path / "study.json"
            config.write_text(json.dumps({
                "scenario": scenario, "functional": "power:2", "n": [50], "replications": 2,
                "seed": 0,
            }))
            proc = _run_python("-m", "grenfun", "--out", str(tmp_path), "--threads", threads,
                               "simulate", "--config", str(config))
            assert proc.returncode == 3
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(start) and "overflows" in lines[0]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    def test_underflowing_truth_is_one_numeric_failure_line(self, tmp_path, command, threads):
        # the truth's level 1e-300 squares to 0, so the exact truth
        # rate / 2 = 5e-301 would be reported as 0.0 with a KS of 0.0 and
        # coverage 1.0
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1e-300}},
            "functional": "power:2", "n": [50], "replications": 2, "seed": 0,
        }))
        proc = _run_python("-m", "grenfun", "--out", str(tmp_path), "--threads", threads,
                           command, "--config", str(config))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("numeric failure: the truth is 0.0: the integrand underflows "
                               "at the density's levels, which reach 1e-300\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    def test_underflowing_variance_is_one_numeric_failure_line(self, tmp_path, command, threads):
        # the truth 5e-121 is normal, but gdot^2 f reaches 4e-360: the
        # variance read 0.0, with a KS of 1.0 and coverage 0.0
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1e-120}},
            "functional": "power:2", "n": [50], "replications": 2, "seed": 0,
        }))
        proc = _run_python("-m", "grenfun", "--out", str(tmp_path), "--threads", threads,
                           command, "--config", str(config))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == ("numeric failure: the second moment of gdot(f(X), X) is 0.0: "
                               "the integrand underflows at the density's levels, which "
                               "reach 1e-120\n")


class TestLimitSample:
    def test_emits_csv_with_metadata(self, tmp_path, capsys):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "paper_pwa", "params": {}},
            "functional": "power:2",
        }))
        out = tmp_path / "draws"
        code = main(["--seed", "8", "--out", str(out),
                     "limit-sample", "--config", str(config), "--draws", "50"])
        assert code == 0
        info = json.loads(capsys.readouterr().out)
        lines = (out / "paper_pwa_power2_y.csv").read_text().splitlines()
        meta = json.loads(lines[0][1:])
        assert meta["seed"] == 8
        assert len(lines) == 51
        assert info["draws"] == 50

    def test_one_draw_prints_valid_json(self, tmp_path, capsys):
        # one draw has no sample variance: null, as JSON has no NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--out", str(tmp_path), "limit-sample",
                         "--config", str(CONFIGS / "limit_paper_pwa_xz2.json"), "--draws", "1"])
        assert code == 0
        info = json.loads(capsys.readouterr().out, parse_constant=_not_json)
        assert info["draws"] == 1 and info["variance"] is None
        assert np.isfinite(info["mean"])

    def test_missing_fields_config_error(self, tmp_path):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({"functional": "power:2"}))
        assert main(["limit-sample", "--config", str(config), "--draws", "5"]) == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "paper_pwa", "params": {}},
            "functional": "xz2", "seed": -3,
        }))
        assert main(["--out", str(tmp_path), "limit-sample", "--config", str(config),
                     "--draws", "5"]) == 2
        err = capsys.readouterr().err
        assert "field 'seed'" in err and "Traceback" not in err

    def test_legacy_grid_size_draws_the_same(self, tmp_path, capsys):
        # configs written for the earlier grid sampler still carry grid_size:
        # it is ignored like any field the reader does not use
        config = json.loads((CONFIGS / "limit_paper_pwa_xz2.json").read_text())
        lines = []
        for name, extra in (("plain", {}), ("legacy", {"grid_size": 1000})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**config, **extra}))
            out = tmp_path / name
            assert main(["--out", str(out), "limit-sample", "--config", str(path),
                         "--draws", "200"]) == 0
            lines.append((out / "paper_pwa_xz2_y.csv").read_text().splitlines())
        capsys.readouterr()
        assert lines[0] == lines[1] and len(lines[0]) == 201


_COVERAGE_CONFIG = {
    "scenario": {"kind": "paper_pwa", "params": {}},
    "functional": "xz2", "n": [300, 500], "replications": 12, "seed": 6,
}


class TestCoverage:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(_COVERAGE_CONFIG))
        return path

    def test_stdout_unchanged_by_threads(self, config, capsys):
        runs = []
        for threads in ("1", "2"):
            assert main(["--threads", threads, "coverage", "--config", str(config),
                         "--level", "0.9"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert len(runs[0].splitlines()) == 2

    @pytest.mark.parametrize("functional", ["xz2", "power:2"])
    def test_matches_a_hand_loop(self, tmp_path, capsys, functional):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({**_COVERAGE_CONFIG, "functional": functional}))
        assert main(["coverage", "--config", str(path), "--level", "0.9"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        spec, fn = ScenarioSpec.paper_pwa(), by_name(functional)
        truth = true_tau(spec, functional)
        for record, n in zip(records, _COVERAGE_CONFIG["n"]):
            hits, widths = 0, 0.0
            for rep in range(12):
                ci = efficient_interval(fn, draw(spec, n, default_stream(derive_seed(6, rep))), 0.9)
                hits += int(ci.lower <= truth <= ci.upper)
                widths += ci.width
            assert record["n"] == n and record["truth"] == truth
            assert record["coverage"] == hits / 12
            assert record["mean_width"] == widths / 12

    def test_identity_intervals_are_points(self, tmp_path, capsys):
        # h' = 1 has zero efficient variance, so every interval is a point
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenario": {"kind": "paper_pwa"}, "functional": "identity",
                                    "n": [1000], "replications": 50, "seed": 0}))
        assert main(["coverage", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["mean_width"] == 0.0

    @pytest.mark.parametrize("scenario", [
        {"kind": "paper_pwa"},
        {"kind": "exponential", "params": {"rate": 1.0}},
        {"kind": "uniform", "params": {"upper": 1.0}},
    ], ids=["paper_pwa", "exponential", "uniform"])
    def test_point_intervals_cover_a_truth_they_miss_by_rounding(self, tmp_path, capsys,
                                                                 scenario):
        # the identity's estimate and truth are the total mass, 1 up to
        # an ulp or two (paper_pwa's truth is 1.0000000000000002)
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"scenario": scenario, "functional": "identity",
                                    "n": [1000], "replications": 50, "seed": 0}))
        assert main(["coverage", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["coverage"] == 1.0

    @pytest.mark.parametrize("level", ["1.5", "0", "-0.2"])
    def test_level_outside_unit_interval_is_config_error(self, config, capsys, level):
        assert main(["coverage", "--config", str(config), "--level", level]) == 2
        assert "confidence level" in capsys.readouterr().err


class TestUniformClt:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "u"
        code = main(["--seed", "3", "--out", str(out),
                     "uniform-clt", "--h", "power:2", "--n", "500", "--reps", "6"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reference"] == {"type": "normal", "mean": 0.0, "var": 1.0}
        assert (out / "uniform_clt_power2_n500_stats.csv").exists()

    def test_several_sizes_match_single_runs(self, tmp_path, capsys):
        both, one = tmp_path / "both", tmp_path / "one"
        assert main(["--seed", "5", "--out", str(both), "uniform-clt", "--h", "power:2",
                     "--n", "300", "500", "--reps", "7"]) == 0
        for n in ("300", "500"):
            assert main(["--seed", "5", "--out", str(one), "uniform-clt", "--h", "power:2",
                         "--n", n, "--reps", "7"]) == 0
        capsys.readouterr()
        for n in (300, 500):
            name = f"uniform_clt_power2_n{n}_stats.csv"
            assert (both / name).read_bytes() == (one / name).read_bytes()

    def test_degenerate_functional_numeric_failure(self):
        assert main(["uniform-clt", "--h", "identity", "--n", "100", "--reps", "2"]) == 3

    def test_unknown_functional_config_error(self):
        assert main(["uniform-clt", "--h", "nope", "--n", "100", "--reps", "2"]) == 2

    def test_one_observation_is_config_error(self, capsys):
        # log 1 = 0 leaves the statistic undefined at n = 1
        assert main(["uniform-clt", "--h", "power:2", "--n", "1", "--reps", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n = 1" in err and "Traceback" not in err

    def test_x_dependent_functional_is_config_error(self, capsys):
        # the study and the statistic reject it with one message
        assert main(["uniform-clt", "--h", "xz2", "--n", "100", "--reps", "2"]) == 2
        err = capsys.readouterr().err
        with pytest.raises(InputError) as statistic:
            uniform_clt_statistic(by_name("xz2"), ingest([0.25, 0.5]))
        assert err == f"error: {statistic.value}\n"


_UNIFORM = ["uniform-clt", "--h", "power:2", "--n", "50", "--reps", "2"]


class TestAllocatorSetting:
    @pytest.mark.parametrize("command, applied", [
        ("simulate", 1), ("coverage", 1), ("uniform-clt", 1), ("estimate", 1),
        ("limit-sample", 1),
    ])
    def test_replicating_commands_keep_freed_memory(self, command, applied, tmp_path,
                                                    data_file, monkeypatch, capsys):
        # every command, not only those that replicate, applies the pool
        # workers' setting to this process once
        calls = []
        monkeypatch.setattr(grenfun.cli, "_keep_freed_memory", lambda: calls.append(1))
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}}, "functional": "xz2",
            "n": [50], "replications": 2, "seed": 0,
        }))
        argv = {
            "simulate": ["simulate", "--config", str(config)],
            "coverage": ["coverage", "--config", str(config)],
            "uniform-clt": _UNIFORM,
            "estimate": ["estimate", "--data", str(data_file), "--functional", "xz2"],
            "limit-sample": ["limit-sample", "--config", str(config), "--draws", "5"],
        }[command]
        assert main(["--threads", "1", "--out", str(tmp_path), *argv]) == 0
        assert len(calls) == applied

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["limit-sample", "--help"], 0), ([], 2),
        (["--threads", "0", *_UNIFORM], 2), (["estimate", "--functional", "xz2"], 2),
    ])
    def test_help_and_usage_errors_leave_the_allocator_alone(self, argv, code, monkeypatch,
                                                              capsys):
        calls = []
        monkeypatch.setattr(grenfun.cli, "_keep_freed_memory", lambda: calls.append(1))
        assert main(argv) == code
        assert calls == []

    def test_setting_leaves_limit_draws_unchanged(self, tmp_path):
        # 600 stick-breaking draws, in 4 batches: once by the command
        # line, which applies the setting, and once in an interpreter
        # that never does; the two CSVs must hold the same bytes
        config = CONFIGS / "limit_paper_pwa_xz2.json"
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        proc = _run_python("-m", "grenfun", "--out", str(cli_dir), "limit-sample",
                           "--config", str(config), "--draws", "600")
        assert proc.returncode == 0, proc.stderr
        script = ("import sys\n"
                  "from grenfun import by_name\n"
                  "from grenfun.harness import read_run_config\n"
                  "from grenfun.limitlaw import _seeded_y_samples\n"
                  "spec, name, seed = read_run_config(sys.argv[1])\n"
                  "_seeded_y_samples(by_name(name), spec, 600, seed, sys.argv[2])\n")
        proc = _run_python("-c", script, str(config), str(lib_dir / "paper_pwa_xz2_y.csv"))
        assert proc.returncode == 0, proc.stderr
        written = (cli_dir / "paper_pwa_xz2_y.csv").read_bytes()
        assert written.count(b"\n") == 601
        assert written == (lib_dir / "paper_pwa_xz2_y.csv").read_bytes()


class TestParsing:
    def test_missing_subcommand_is_config_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("flag,argv", [
        ("--threads", ["--threads", "0", *_UNIFORM]),
        ("--threads", ["--threads", "-3", *_UNIFORM]),
        ("--threads", ["--threads", "two", *_UNIFORM]),
        ("--n", ["uniform-clt", "--h", "power:2", "--n", "0", "--reps", "2"]),
        ("--n", ["uniform-clt", "--h", "power:2", "--n", "50", "-5", "--reps", "2"]),
        ("--reps", ["uniform-clt", "--h", "power:2", "--n", "50", "--reps", "0"]),
        ("--draws", ["limit-sample", "--config", "limit.json", "--draws", "0"]),
        ("--seed", ["--seed", "-1", *_UNIFORM]),
    ], ids=["0", "-3", "two", "n=0", "n=50,-5", "reps=0", "draws=0", "seed=-1"])
    def test_bad_threads_is_config_error(self, flag, argv, capsys):
        # --threads and the sample, replication and draw counts must all
        # be positive integers, and --seed one >= 0 (numpy's generators
        # take no negative seed); the parser rejects them before any work
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @staticmethod
    def _run_missing_file(module, tmp_path):
        proc = _run_python("-m", module, "estimate",
                           "--data", str(tmp_path / "nope.txt"), "--functional", "xz2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    def test_module_run_reports_errors(self, tmp_path):
        # ``python -m grenfun.cli`` runs the same entry point as ``grenfun``
        self._run_missing_file("grenfun.cli", tmp_path)

    def test_package_run_reports_errors(self, tmp_path):
        # ... and so does ``python -m grenfun``
        self._run_missing_file("grenfun", tmp_path)

    def test_import_leaves_statistics_unloaded(self):
        # statistics, with the fractions and decimal it imports, costs
        # milliseconds of every start; only normal_quantile loads it.  So
        # do concurrent.futures and multiprocessing, which only a pool needs
        proc = _run_python("-c", "import sys, grenfun.cli; "
                           "print(sorted({'statistics', 'fractions', 'decimal', 'concurrent', "
                           "'multiprocessing'} & set(sys.modules)))")
        assert proc.returncode == 0 and proc.stdout == "[]\n"


#: a size numpy refuses at once: its float64 array would exceed the
#: 128 TiB address space, so no memory is touched
_UNALLOCATABLE = 10**15


class TestUnallocatableSize:
    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--config", str(CONFIGS / "limit_paper_pwa_xz2.json"),
         "--draws", str(_UNALLOCATABLE)],
        ["uniform-clt", "--h", "power:2", "--n", str(_UNALLOCATABLE), "--reps", "2"],
        ["simulate", "--config", "study.json"],
    ], ids=["limit-sample", "uniform-clt", "simulate"])
    def test_is_an_input_error(self, argv, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "exponential", "params": {"rate": 1.0}},
            "functional": "power:2", "n": [float(_UNALLOCATABLE)], "replications": 2}))
        argv = [str(config) if arg == "study.json" else arg for arg in argv]
        assert main(["--out", str(tmp_path), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


#: values that no count, level or parameter may take, and a size too
#: large to allocate; as JSON values and, through str, as arguments
_INVALID = st.sampled_from([0, -1, 1.5, True, "7", [3], {"n": 3}, math.nan, math.inf,
                            _UNALLOCATABLE])


def _mostly(valid, invalid=_INVALID):
    """A value of ``valid``, or one of ``invalid`` once in about 6 draws,
    so that most calls get past their first check."""
    return st.sampled_from(range(6)).flatmap(lambda k: invalid if k == 0 else valid)


#: 10^15 replications is a valid request for a run that would not end
_REPLICATIONS = _mostly(st.integers(1, 3), _INVALID.filter(lambda v: v != _UNALLOCATABLE))
_NAMES = _mostly(st.sampled_from(["power:2", "power:3", "identity", "xz2"]),
                 st.sampled_from(["power:0", "entropy", "", "xz2 "]))
_LEVELS = _mostly(st.sampled_from([0.95, 0.5]), st.sampled_from([1e-9, 1.0, 1.5, -0.5, "high"])
                  | _INVALID)
_REALS = _mostly(st.floats(0.25, 4.0), st.sampled_from([1e-300, 1e300]) | _INVALID)
_SCENARIOS = _mostly(st.one_of(
    st.builds(lambda rate: {"kind": "exponential", "params": {"rate": rate}}, _REALS),
    st.builds(lambda upper: {"kind": "uniform", "params": {"upper": upper}}, _REALS),
    st.just({"kind": "paper_pwa"}),
    st.builds(lambda bs, ls: {"kind": "piecewise_constant",
                              "params": {"breakpoints": bs, "levels": ls}},
              _mostly(st.just([0.5, 1.0, 2.0]), st.sampled_from([[math.nan], [2.0, 1.0], "x"])),
              _mostly(st.just([1.0, 0.6, 0.2]), st.sampled_from([[1.0], [math.inf, 0.1, 0.0]]))),
), st.just({"kind": "cauchy"}) | _INVALID)
_DATA_LINES = _mostly(st.floats(0.0, 10.0).map(repr), st.sampled_from(
    ["nan", "-1", "abc", "1e400", "1e308", "0", "", "# note", "1 2", "5e-324"]))


@st.composite
def _invocations(draw):
    """(argv, {file name: text}) of one call of any subcommand."""
    def count():
        return draw(_mostly(st.integers(1, 64)))

    threads = _mostly(st.sampled_from(["1", "2"]), st.sampled_from(["0", "two"]))
    argv = ["--threads", draw(threads)]
    if draw(st.booleans()):
        argv += ["--seed", str(count())]
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    files = {}
    config = {"scenario": draw(_SCENARIOS), "functional": draw(_NAMES)}
    if draw(st.booleans()):
        config["seed"] = count()
    if command == "estimate":
        files["data.txt"] = "\n".join(draw(st.lists(_DATA_LINES, min_size=1, max_size=40))) + "\n"
        argv += ["estimate", "--data", "data.txt", "--functional", draw(_NAMES)]
        if draw(st.booleans()):
            argv += ["--ci", str(draw(_LEVELS))]
    elif command == "uniform-clt":
        argv += ["uniform-clt", "--h", draw(_NAMES), "--n",
                 *(str(count()) for _ in range(draw(st.integers(1, 2)))),
                 "--reps", str(draw(_REPLICATIONS))]
    elif command == "limit-sample":
        files["config.json"] = json.dumps(config)
        argv += ["limit-sample", "--config", "config.json", "--draws", str(count())]
    else:
        config.update(n=[count() for _ in range(draw(st.integers(1, 2)))],
                      replications=draw(_REPLICATIONS), reference_draws=count())
        files["config.json"] = json.dumps(config)
        argv += [command, "--config", "config.json"]
        if command == "coverage" and draw(st.booleans()):
            argv += ["--level", str(draw(_LEVELS))]
    return argv, files


class TestAnyInput:
    """Whatever the arguments and files, the CLI ends with an exit code
    and, on failure, one line that says what went wrong: never a
    traceback, never a numpy warning, and never a non-JSON constant on
    stdout."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_invocations())
    def test_no_traceback(self, invocation):
        argv, files = invocation
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            root = Path(stack.enter_context(tempfile.TemporaryDirectory()))
            for name, text in files.items():
                (root / name).write_text(text)
            argv = [str(root / arg) if arg in files else arg for arg in argv]
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            caught = stack.enter_context(warnings.catch_warnings(record=True))
            warnings.simplefilter("always")
            code = main(["--out", str(root / "out"), *argv])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert [str(w.message) for w in caught] == []
        if code:
            lines = err.getvalue().splitlines()
            if lines[0].startswith("usage: "):
                # a usage error opens with argparse's usage, whose later
                # lines are indented
                lines = [line for line in lines[1:] if not line.startswith(" ")]
            assert len(lines) == 1
            assert lines[0].startswith(("error:", "numeric failure:"))
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_not_json)


class TestShippedConfigs:
    """The run configs under configs/ load through the CLI's own loaders."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_loads_through_the_cli(self, path, tmp_path, capsys):
        if path.name.startswith("limit_"):
            read_run_config(path)
            assert main(["--out", str(tmp_path), "limit-sample",
                         "--config", str(path), "--draws", "2"]) == 0
        else:
            assert path.name.startswith("section6_"), "no command loads this config"
            assert isinstance(StudyConfig.from_json(path), StudyConfig)

    def test_section6_configs_are_the_full_scale_studies(self):
        # the three sampling-distribution studies of the paper's Section 6
        studies = {"section6_exponential_power2.json": (ScenarioSpec.exponential(1.0), "power:2"),
                   "section6_paper_pwa_power2.json": (ScenarioSpec.paper_pwa(), "power:2"),
                   "section6_paper_pwa_xz2.json": (ScenarioSpec.paper_pwa(), "xz2")}
        assert {p.name for p in CONFIGS.glob("section6_*.json")} == set(studies)
        for name, (spec, functional) in studies.items():
            expected = StudyConfig(scenario=spec, functional=functional,
                                   n_values=(5000, 20000, 100000), replications=1000,
                                   seed=0, reference_draws=20000)
            assert StudyConfig.from_json(CONFIGS / name) == expected


def _readme_commands():
    """The argument lists of the ``grenfun`` and ``python -m grenfun``
    command lines in the README's shell code blocks."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if "grenfun" in words:
                commands.append(words[words.index("grenfun") + 1:])
    return commands


class TestReadmeCommands:
    """The CLI is the only entry point, so every command the README shows
    must parse."""

    def test_every_subcommand_is_shown(self):
        shown = {word for argv in _readme_commands() for word in argv}
        assert set(_COMMANDS) <= shown

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        config = getattr(_build_parser().parse_args(argv), "config", None)
        if config is not None and config.parts[0] == "configs":
            assert (ROOT / config).is_file()


class TestReadmePython:
    """The README's ``python`` blocks run as written, in order, in a
    directory that holds the ``observations.txt`` they read."""

    def test_blocks_run(self, tmp_path, monkeypatch):
        blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
        assert blocks
        rng = np.random.default_rng(1)
        (tmp_path / "observations.txt").write_text(
            "\n".join(repr(float(v)) for v in rng.exponential(1.0, 500)) + "\n")
        monkeypatch.chdir(tmp_path)
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["ci"].lower <= namespace["estimate"] <= namespace["ci"].upper


class TestPublicNames:
    def test_exports_are_listed(self):
        # an export is added or dropped on purpose, with this list
        names = sorted(name for name, value in vars(grenfun).items()
                       if not name.startswith("_") and not inspect.ismodule(value))
        assert names == [
            "ConfidenceInterval", "GrenfunError", "InputError", "NumericError", "Sample",
            "ScenarioSpec", "SimulationReport", "SmoothFunctional", "StepDensity", "StudyConfig",
            "by_name", "default_stream", "derive_seed", "draw", "draw_y_samples", "ecdf",
            "evaluate", "fit", "ingest", "ks_distance", "normal_cdf", "normal_quantile",
            "read_observations", "run_study", "run_uniform_study", "sigma_eff_tau", "tau_plugin",
            "uniform_clt_statistic",
        ]
