import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grenfun
import grenfun.inference
from grenfun.cli import main


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


class TestUniformClt:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "u"
        code = main(["--seed", "3", "--out", str(out),
                     "uniform-clt", "--h", "power:2", "--n", "500", "--reps", "6"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["reference"] == {"type": "normal", "mean": 0.0, "var": 1.0}
        assert (out / "uniform_clt_power2_n500_stats.csv").exists()

    def test_degenerate_functional_numeric_failure(self):
        assert main(["uniform-clt", "--h", "identity", "--n", "100", "--reps", "2"]) == 3

    def test_unknown_functional_config_error(self):
        assert main(["uniform-clt", "--h", "nope", "--n", "100", "--reps", "2"]) == 2


class TestParsing:
    def test_missing_subcommand_is_config_error(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_bad_threads_is_config_error(self, threads, capsys):
        assert main(["--threads", threads, "uniform-clt", "--h", "power:2",
                     "--n", "50", "--reps", "2"]) == 2
        assert "--threads" in capsys.readouterr().err

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
