import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import grenfun
import grenfun.inference
from grenfun import ScenarioSpec, StudyConfig, by_name, default_stream, derive_seed, draw
from grenfun.cli import _COMMANDS, _build_parser, main
from grenfun.harness import read_run_config, true_tau
from grenfun.inference import efficient_interval

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


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


class TestLimitSample:
    def test_emits_csv_with_metadata(self, tmp_path, capsys):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "paper_pwa", "params": {}},
            "functional": "power:2", "grid_size": 120,
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

    def test_missing_fields_config_error(self, tmp_path):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({"functional": "power:2"}))
        assert main(["limit-sample", "--config", str(config), "--draws", "5"]) == 2

    def test_malformed_grid_size_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "limit.json"
        config.write_text(json.dumps({
            "scenario": {"kind": "paper_pwa", "params": {}},
            "functional": "xz2", "grid_size": "many",
        }))
        assert main(["limit-sample", "--config", str(config), "--draws", "5"]) == 2
        err = capsys.readouterr().err
        assert "field 'grid_size'" in err and "Traceback" not in err


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


_UNIFORM = ["uniform-clt", "--h", "power:2", "--n", "50", "--reps", "2"]


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
    ], ids=["0", "-3", "two", "n=0", "n=50,-5", "reps=0", "draws=0"])
    def test_bad_threads_is_config_error(self, flag, argv, capsys):
        # --threads and the sample, replication and draw counts must all
        # be positive integers; the parser rejects them before any work
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @staticmethod
    def _run_missing_file(module, tmp_path):
        src = str(Path(grenfun.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "estimate",
             "--data", str(tmp_path / "nope.txt"), "--functional", "xz2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error:" in proc.stderr

    def test_module_run_reports_errors(self, tmp_path):
        # ``python -m grenfun.cli`` runs the same entry point as ``grenfun``
        self._run_missing_file("grenfun.cli", tmp_path)

    def test_package_run_reports_errors(self, tmp_path):
        # ... and so does ``python -m grenfun``
        self._run_missing_file("grenfun", tmp_path)


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
                                   seed=0, grid_size=1000, reference_draws=20000)
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
