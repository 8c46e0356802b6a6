"""Replication studies, Kolmogorov-Smirnov comparisons, and reports.

Standardization of scenario studies uses the known truth (the functional
value and efficient variance of the data-generating density), matching
the convention of limiting-distribution figures; CI-coverage experiments
use the estimated variance separately.  Replication r draws from the
stream seeded by ``derive_seed(seed, r)``, a SeedSequence hash of the
study seed and the replication index alone.  It involves neither the
sample size nor the scheduling, so statistics arrays are byte-identical
regardless of how replications are spread over workers, and adding a
sample size to a study leaves the statistics at the other sizes
unchanged.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, NumericError
from .functionals import ScalarFunctional, by_name, mu_plugin, tau_plugin
from .grenander import fit
from .inference import normal_cdf, normal_quantile, uniform_clt_statistic
from .limitlaw import TrueModel, draw_y_samples, emit_y_csv
from .samples import ScenarioSpec, default_stream, derive_seed, draw

log = logging.getLogger(__name__)

_QQ_PROBS = np.arange(1, 100) / 100.0
_Y_SEED_SALT = 0x9E3779B9


# -- closed-form truths for the built-in scenario/functional pairs --------

def _pw_moment(spec: ScenarioSpec, power: float) -> float:
    """Integral of f(x)^power over the support, piecewise kinds."""
    ts, vs = spec._pw_arrays()
    return float(np.dot(vs ** power, np.diff(ts, prepend=0.0)))


def true_tau(spec: ScenarioSpec, functional_name: str) -> float:
    """Closed-form value of the functional at the scenario truth."""
    fn = by_name(functional_name)
    if isinstance(fn, ScalarFunctional):
        p = int(functional_name.split(":")[1]) if ":" in functional_name else 1
        if spec.kind == "exponential":
            rate = spec.params["rate"]
            return rate ** (p - 1) / p
        return _pw_moment(spec, p)
    if functional_name == "xz2":
        if spec.kind == "exponential":
            return 0.25
        ts, vs = spec._pw_arrays()
        edges = np.concatenate(([0.0], ts))
        return float(np.dot(vs ** 2, np.diff(edges ** 2) / 2.0))
    raise InputError(f"no closed-form truth for functional {functional_name!r}")


def true_sigma_eff(spec: ScenarioSpec, functional_name: str) -> float:
    """Closed-form efficient variance Var(gdot(f(X), X)) at the truth."""
    fn = by_name(functional_name)
    if isinstance(fn, ScalarFunctional):
        p = int(functional_name.split(":")[1]) if ":" in functional_name else 1
        if p == 1:
            return 0.0
        if spec.kind == "exponential":
            rate = spec.params["rate"]
            m_hi = rate ** (2 * p - 2) / (2 * p - 1)
            m_lo = rate ** (p - 1) / p
            return p * p * (m_hi - m_lo * m_lo)
        m_hi = _pw_moment(spec, 2 * p - 1)
        m_lo = _pw_moment(spec, p)
        return p * p * (m_hi - m_lo * m_lo)
    if functional_name == "xz2":
        if spec.kind == "exponential":
            return 8.0 / 27.0 - 0.25
        ts, vs = spec._pw_arrays()
        edges = np.concatenate(([0.0], ts))
        second = 4.0 * float(np.dot(vs ** 3, np.diff(edges ** 3) / 3.0))
        first = float(np.dot(vs ** 2, np.diff(edges ** 2)))
        return second - first * first
    raise InputError(f"no closed-form variance for functional {functional_name!r}")


def reference_is_normal(spec: ScenarioSpec, functional_name: str) -> bool:
    """Whether the limiting law is normal with the efficient variance:
    always for x-free functionals, and for any functional when the truth
    is strictly concave."""
    return isinstance(by_name(functional_name), ScalarFunctional) or spec.is_strictly_concave


# -- Kolmogorov-Smirnov distance ------------------------------------------

def ks_distance(sample, reference) -> float:
    """Sup-distance between the sample's ECDF and a reference CDF.

    ``reference`` is either a dict {"mean": m, "var": v} for a normal law
    (a point mass when v = 0) or an array for the two-sample variant.
    """
    sample = np.sort(np.asarray(sample, dtype=float))
    if sample.size == 0:
        raise InputError("empty sample")
    n = sample.size
    if isinstance(reference, dict):
        mean = float(reference["mean"])
        var = float(reference["var"])
        if var > 0.0:
            ref_cdf = normal_cdf((sample - mean) / math.sqrt(var))
            ref_cdf_left = ref_cdf
        else:
            ref_cdf = (sample >= mean).astype(float)
            ref_cdf_left = (sample > mean).astype(float)
        hi = np.max(np.arange(1, n + 1) / n - ref_cdf)
        lo = np.max(ref_cdf_left - np.arange(0, n) / n)
        return float(max(hi, lo, 0.0))
    other = np.sort(np.asarray(reference, dtype=float))
    both = np.concatenate((sample, other))
    f1 = np.searchsorted(sample, both, side="right") / n
    f2 = np.searchsorted(other, both, side="right") / other.size
    return float(np.max(np.abs(f1 - f2)))


# -- configuration and report records --------------------------------------

def _check_budget(n_values, replications) -> None:
    if replications < 1 or any(n < 1 for n in n_values):
        raise InputError("replications and sample sizes must be positive")


@dataclass(frozen=True)
class StudyConfig:
    """Scenario + functional + sample sizes + replication budget."""

    scenario: ScenarioSpec
    functional: str
    n_values: tuple
    replications: int
    seed: int
    grid_size: int = 1000
    reference_draws: int = 10000

    def __post_init__(self):
        by_name(self.functional)
        _check_budget(self.n_values, self.replications)
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))

    @staticmethod
    def from_json(obj) -> "StudyConfig":
        if isinstance(obj, (str, Path)):
            try:
                obj = json.loads(Path(obj).read_text())
            except json.JSONDecodeError as exc:
                raise InputError(f"invalid config JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InputError("study config must be a JSON object")
        try:
            scenario = ScenarioSpec.from_json(obj["scenario"])
            n_values = obj.get("n") or obj["n_values"]
            if isinstance(n_values, (int, float)):
                n_values = [n_values]
            return StudyConfig(
                scenario=scenario,
                functional=obj["functional"],
                n_values=tuple(int(v) for v in n_values),
                replications=int(obj.get("replications", 1000)),
                seed=int(obj.get("seed", scenario.seed or 0)),
                grid_size=int(obj.get("grid_size", 1000)),
                reference_draws=int(obj.get("reference_draws", 10000)),
            )
        except KeyError as exc:
            raise InputError(f"study config missing field {exc}") from None


@dataclass
class SimulationReport:
    """One study's standardized statistics and their summaries."""

    scenario: dict
    functional: str
    n: int
    replications: int
    statistics: np.ndarray
    reference: dict
    summaries: dict
    seed: int
    wall_time: float

    def base_name(self) -> str:
        slug = self.functional.replace(":", "")
        return f"{self.scenario['kind']}_{slug}_n{self.n}"

    def statistics_csv(self) -> str:
        lines = ["replication,statistic"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(self.statistics))
        return "\n".join(lines) + "\n"

    def qq_csv(self) -> str:
        lines = ["reference_quantile,sample_quantile"]
        lines.extend(f"{float(r)!r},{float(s)!r}" for r, s in self.summaries["qq"])
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "functional": self.functional,
            "n": self.n,
            "replications": self.replications,
            "reference": self.reference,
            "summaries": {k: v for k, v in self.summaries.items() if k != "qq"},
            "seed": self.seed,
            "wall_time": self.wall_time,
        }

    def write(self, out_dir) -> list:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        base = self.base_name()
        paths = [out / f"{base}_stats.csv", out / f"{base}_qq.csv",
                 out / f"{base}_summary.json"]
        paths[0].write_text(self.statistics_csv())
        paths[1].write_text(self.qq_csv())
        paths[2].write_text(json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")
        return paths


def _summarize(statistics: np.ndarray, reference: dict, ref_sample=None) -> dict:
    mean = float(np.mean(statistics))
    var = float(np.var(statistics, ddof=1)) if statistics.size > 1 else 0.0
    if ref_sample is not None:
        ks = ks_distance(statistics, ref_sample)
        ref_q = np.quantile(ref_sample, _QQ_PROBS)
    else:
        ks = ks_distance(statistics, {"mean": reference["mean"], "var": reference["var"]})
        sd = math.sqrt(reference["var"]) if reference["var"] > 0 else 0.0
        ref_q = reference["mean"] + sd * np.array([normal_quantile(p) for p in _QQ_PROBS])
    samp_q = np.quantile(statistics, _QQ_PROBS)
    return {
        "mean": mean,
        "variance": var,
        "ks": float(ks),
        "qq": [[float(r), float(s)] for r, s in zip(ref_q, samp_q)],
    }


def _bias_check(summaries: dict, size: int) -> dict:
    """Whether the mean statistic is more than 5 standard errors from 0
    (meaningful only for a statistic with a finite variance)."""
    mean = summaries["mean"]
    threshold = 5.0 * math.sqrt(summaries["variance"] / size) if size else 0.0
    check = {"mean": mean, "threshold": threshold, "exceeds": bool(abs(mean) > threshold)}
    log.info("study bias check: mean %.6g, 5*SE threshold %.6g, exceeds=%s",
             mean, threshold, check["exceeds"])
    return check


# -- replication workers (top level so they pickle) -------------------------

def _study_statistic(args) -> float:
    scenario_json, functional_name, n, seed, truth, rep = args
    spec = ScenarioSpec.from_json(scenario_json)
    fn = by_name(functional_name)
    s = draw(spec, n, default_stream(derive_seed(seed, rep)))
    d = fit(s)
    if isinstance(fn, ScalarFunctional):
        est = mu_plugin(fn, d)
    else:
        est = tau_plugin(fn, d)
    return math.sqrt(n) * (est - truth)


def _uniform_statistic(args) -> float:
    functional_name, n, seed, rep = args
    h = by_name(functional_name)
    s = draw(ScenarioSpec.uniform(1.0), n, default_stream(derive_seed(seed, rep)))
    return uniform_clt_statistic(h, s)


def _worker_count(threads: int, jobs: int) -> int:
    """Worker processes for ``jobs`` replications: ``threads``, capped at
    the CPU count and the job count (a fork-context pool starts all its
    workers at once)."""
    import os

    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    return min(threads, os.cpu_count() or 1, jobs)


def _map_replications(worker, arg_list, threads: int) -> np.ndarray:
    workers = _worker_count(threads, len(arg_list))
    if workers <= 1:
        return np.array([worker(a) for a in arg_list])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(arg_list) // (workers * 8))
        return np.array(list(pool.map(worker, arg_list, chunksize=chunk)))


# -- studies ----------------------------------------------------------------

def run_study(config: StudyConfig, threads: int = 1, out_dir=None) -> list:
    """Replication study of sqrt(n) (tau_hat - tau) for each sample size.

    The reference law is the efficient normal when it applies (x-free
    functional, or strictly concave truth); otherwise an empirical sample
    of the limit variable is generated and recorded.
    """
    truth = true_tau(config.scenario, config.functional)
    scenario_json = config.scenario.to_json()
    ref_sample = None
    if reference_is_normal(config.scenario, config.functional):
        reference = {"type": "normal", "mean": 0.0,
                     "var": true_sigma_eff(config.scenario, config.functional)}
    else:
        fn = by_name(config.functional)
        model = TrueModel.from_scenario(config.scenario)
        y_seed = derive_seed(config.seed, _Y_SEED_SALT)
        ref_sample, info = draw_y_samples(
            fn, model, config.grid_size, config.reference_draws,
            default_stream(y_seed))
        info["seed"] = y_seed
        reference = {"type": "empirical", "draws": int(config.reference_draws),
                     "grid_size": int(config.grid_size), "file": None,
                     "tail_bound": info["tail_bound"]}
        if out_dir is not None:
            slug = config.functional.replace(":", "")
            y_path = Path(out_dir)
            y_path.mkdir(parents=True, exist_ok=True)
            y_file = y_path / f"{config.scenario.kind}_{slug}_yref.csv"
            emit_y_csv(y_file, ref_sample, info)
            reference["file"] = y_file.name
    reports = []
    for n in config.n_values:
        start = time.perf_counter()
        args = [(scenario_json, config.functional, n, config.seed, truth, rep)
                for rep in range(config.replications)]
        stats = _map_replications(_study_statistic, args, threads)
        summaries = _summarize(stats, reference, ref_sample)
        summaries["bias_check"] = _bias_check(summaries, stats.size)
        report = SimulationReport(
            scenario=scenario_json, functional=config.functional, n=n,
            replications=config.replications, statistics=stats,
            reference=reference, summaries=summaries, seed=config.seed,
            wall_time=time.perf_counter() - start,
        )
        if out_dir is not None:
            report.write(out_dir)
        reports.append(report)
    return reports


def run_uniform_study(functional_name: str, n_values, replications: int,
                      seed: int, threads: int = 1, out_dir=None) -> list:
    """Replication study of the uniform-truth standardized statistic,
    referenced against the standard normal.

    The statistic has no finite mean or variance at any n (see
    ``uniform_clt_statistic``), so each report's ``summaries["mean"]``
    and ``["variance"]`` are dominated by a few reciprocal-spacing spikes,
    and the reports carry no ``bias_check``.  Judge a uniform study by its
    quantiles (the Q-Q pairs) and its KS distance instead.
    """
    h = by_name(functional_name)
    _check_budget(n_values, replications)
    if not isinstance(h, ScalarFunctional):
        raise InputError("uniform study needs a functional of the density alone")
    if float(h.hdoubleprime(1.0)) == 0.0:
        raise NumericError("degenerate normalization: h''(1) = 0")
    reference = {"type": "normal", "mean": 0.0, "var": 1.0}
    reports = []
    for n in n_values:
        start = time.perf_counter()
        args = [(functional_name, int(n), seed, rep) for rep in range(replications)]
        stats = _map_replications(_uniform_statistic, args, threads)
        summaries = _summarize(stats, reference)
        report = SimulationReport(
            scenario={"kind": "uniform_clt", "params": {"upper": 1.0}},
            functional=functional_name, n=int(n), replications=replications,
            statistics=stats, reference=reference, summaries=summaries,
            seed=seed, wall_time=time.perf_counter() - start,
        )
        if out_dir is not None:
            report.write(out_dir)
        reports.append(report)
    return reports
