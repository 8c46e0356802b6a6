"""The benchmark's workloads: the inputs each one generates from its seed,
and the grenfun CLI calls that make up one round.

Every workload runs whole rounds in a closed loop: the next call starts
only after the previous one has returned.  The program receives only the
config and data files written here.  Nothing in this module imports
numpy at module level, so the workload process can time the import of
``grenfun.cli`` before anything else loads it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPONENTIAL = {"kind": "exponential", "params": {"rate": 1.0}}
PAPER_PWA = {"kind": "paper_pwa"}

STUDY_N = 100_000
STUDY_REPS = 40           # replications per simulate call (about 1.7 s at 2 threads)
STUDY_THREADS = 2
LIMIT_GRID = 1000
PWA_DRAWS = 2_000         # hull draws per limit-sample call (about 1.2 s)
EXP_DRAWS = 20_000        # hull-free draws per limit-sample call (about 0.8 s)
ESTIMATE_N = 1_000_000
ESTIMATE_LEVEL = 0.95
ESTIMATE_FUNCTIONALS = ("xz2", "power:2")


def derived_seed(workload: str, seed: int, index) -> int:
    """A 32-bit seed that depends only on (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Call:
    """One grenfun CLI call: its argv and the work units it completes
    (replications, draws or observations)."""

    argv: list
    units: int


def _write_config(round_dir: Path, obj: dict) -> Path:
    round_dir.mkdir(parents=True, exist_ok=True)
    path = round_dir / "config.json"
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return path


def _study_round(seed, index, round_dir, traced, data):
    cfg = _write_config(round_dir, {
        "scenario": EXPONENTIAL, "functional": "xz2", "n": [STUDY_N],
        "replications": STUDY_REPS,
        "seed": derived_seed("study-exp-xz2", seed, index),
    })
    # wrappers in the parent cannot see pool workers, so traced runs use one
    threads = 1 if traced else STUDY_THREADS
    return [Call(["--threads", str(threads), "--out", str(round_dir),
                  "simulate", "--config", str(cfg)], STUDY_REPS)]


def _limit_round(name, scenario, draws):
    def make(seed, index, round_dir, traced, data):
        cfg = _write_config(round_dir, {
            "scenario": scenario, "functional": "xz2", "grid_size": LIMIT_GRID,
            "seed": derived_seed(name, seed, index),
        })
        return [Call(["--out", str(round_dir), "limit-sample",
                      "--config", str(cfg), "--draws", str(draws)], draws)]
    return make


def _estimate_round(seed, index, round_dir, traced, data):
    return [Call(["estimate", "--data", str(data), "--functional", fn,
                  "--ci", str(ESTIMATE_LEVEL)], ESTIMATE_N)
            for fn in ESTIMATE_FUNCTIONALS]


def paper_pwa_quantile(u):
    """Inverse of the two-slope CDF: slope sqrt2+1 up to the kink
    1 - 1/sqrt2 (where F = 1/sqrt2), then sqrt2-1 up to 1."""
    import numpy as np

    r2 = np.sqrt(2.0)
    kink, f_kink = 1.0 - 1.0 / r2, 1.0 / r2
    return np.where(u < f_kink, u / (r2 + 1.0), kink + (u - f_kink) / (r2 - 1.0))


def write_estimate_data(seed: int, out_dir: Path) -> Path:
    """ESTIMATE_N paper_pwa observations in draw order, one per line."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(derived_seed("estimate-file", seed, "data")))
    xs = paper_pwa_quantile(rng.random(ESTIMATE_N))
    path = out_dir / "observations.txt"
    path.write_text("\n".join(map(repr, xs.tolist())) + "\n")
    return path


@dataclass(frozen=True)
class Workload:
    """Why each workload is there is written in BENCHMARK.json."""

    name: str
    make_round: callable
    prepare: callable = None

    def data(self, seed: int, out_dir: Path):
        """Shared input written once per run, before the workload starts."""
        return None if self.prepare is None else self.prepare(seed, out_dir)


WORKLOADS = {w.name: w for w in (
    Workload("study-exp-xz2", _study_round),
    Workload("limit-pwa-xz2", _limit_round("limit-pwa-xz2", PAPER_PWA, PWA_DRAWS)),
    Workload("limit-exp-xz2", _limit_round("limit-exp-xz2", EXPONENTIAL, EXP_DRAWS)),
    Workload("estimate-file", _estimate_round, write_estimate_data),
)}
