"""Replication studies, coverage studies, Kolmogorov-Smirnov
comparisons, and reports.

Standardization of scenario studies uses the known truth (the functional
value and efficient variance of the data-generating density), matching
the convention of limiting-distribution figures; coverage studies use
the estimated variance instead.  Truths follow the plug-in principle:
each is the functional's own g or gdot integrated against the scenario's
density by the plug-in's quadrature (:func:`_truth`); no functional has
a closed form of its own.

Replication r draws from the stream seeded by ``derive_seed(seed, r)``,
a SeedSequence hash of the study seed and the replication index alone.
It involves neither the sample size nor the scheduling, so statistics
arrays are byte-identical regardless of how replications are spread
over workers, and adding a sample size to a study leaves the statistics
at the other sizes unchanged.

On glibc, pool workers keep freed memory mapped (:func:`_keep_freed_memory`):
a large-n replication frees arrays of about 800 KB that glibc would
otherwise give back to the OS, so the next replication would fault them
in again.  The caller's process, and so every ``threads=1`` run, keeps
its allocator settings.  No result depends on them.
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
from .functionals import _quadrature, _require_x_free, _step_sum, by_name, tau_plugin
from .grenander import fit
from .inference import (_efficient_variance, efficient_interval, normal_cdf, normal_quantile,
                        uniform_clt_statistic)
from .limitlaw import draw_y_samples, emit_y_csv
from .samples import (ScenarioSpec, _integer, config_field, default_stream, derive_seed, draw,
                      read_json_object)

log = logging.getLogger(__name__)

_QQ_PROBS = np.arange(1, 100) / 100.0
_Y_SEED_SALT = 0x9E3779B9


# -- truths: the functional evaluated at the scenario's density ------------

#: cells of an exponential truth, cut at the quantiles 1 - 2^-k
_EXP_CELLS = 64


def _integral(spec: ScenarioSpec, phi, x_free: bool) -> float:
    """Integral of phi(f(x), x) dx at the scenario's density f, by the
    quadrature of :func:`tau_plugin` over the step pieces of a piecewise
    truth (an exact step sum when phi is x-free), or over the cells
    [(k-1) ln2 / rate, k ln2 / rate], k <= 64, of an exponential truth,
    which leave out the mass 2^-64."""
    if spec.kind == "exponential":
        edges = np.arange(_EXP_CELLS + 1) * (math.log(2.0) / spec.params["rate"])
        # the levels are placeholders: f is evaluated at the nodes
        levels, integrand = np.zeros(_EXP_CELLS), (lambda _, x: phi(spec.density(x), x))
    else:
        d = spec.true_density()
        if x_free:
            return _step_sum(phi, d, None)
        edges = np.concatenate(([0.0], d.breakpoints))
        levels, integrand = d.levels, phi
    return _quadrature(integrand, levels, edges[:-1], edges[1:], 16)


def _truth(spec: ScenarioSpec, G) -> tuple:
    """(tau, sigma^2) of a functional at the scenario's density f:
    tau = integral of g(f(x), x) dx, and sigma^2 = Var psi(X) with
    psi(x) = gdot(f(x), x) and X ~ f, by the arithmetic of the plug-in
    estimate (:func:`grenfun.inference._efficient_variance`)."""
    if not G.vanishes_at_zero:
        raise NumericError("divergent tail: g(0, .) not declared zero beyond the support")
    return (_integral(spec, G.g, G.x_free),
            _efficient_variance(lambda phi, x_free: _integral(spec, phi, x_free), G))


def true_tau(spec: ScenarioSpec, functional_name: str) -> float:
    """Value of the functional at the scenario truth."""
    return _truth(spec, by_name(functional_name))[0]


def true_sigma_eff(spec: ScenarioSpec, functional_name: str) -> float:
    """Efficient variance Var(gdot(f(X), X)) at the scenario truth."""
    return _truth(spec, by_name(functional_name))[1]


def reference_is_normal(spec: ScenarioSpec, functional_name: str) -> bool:
    """Whether the limiting law is normal with the efficient variance:
    always for x-free functionals, and for any functional when the truth
    is strictly concave."""
    return by_name(functional_name).x_free or spec.is_strictly_concave


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
    if replications < 1 or len(n_values) == 0 or any(n < 1 for n in n_values):
        raise InputError("replications and sample sizes must be positive, "
                         "with at least one sample size")


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
        what = "study config"
        obj = read_json_object(obj, what)
        scenario, functional, seed, grid_size = read_run_config(obj, what)
        n_values = config_field(what, obj, "n" if "n" in obj else "n_values", _sizes)
        return StudyConfig(scenario, functional, n_values,
                           config_field(what, obj, "replications", _integer, 1000), seed, grid_size,
                           config_field(what, obj, "reference_draws", _integer, 10000))


def _sizes(value) -> tuple:
    return tuple(map(_integer, value if isinstance(value, (list, tuple)) else [value]))


def read_run_config(obj, what: str = "limit-sample config") -> tuple:
    """(scenario, functional name, seed, grid size) of a config, the
    fields a study config shares with a limit-sample config; ``seed``
    defaults to the scenario's, else 0, and ``grid_size`` to 1000."""
    obj = read_json_object(obj, what)
    scenario = ScenarioSpec.from_json(config_field(what, obj, "scenario", dict))
    functional = config_field(what, obj, "functional", str)
    by_name(functional)
    seed = config_field(what, obj, "seed", _integer, scenario.seed or 0)
    return scenario, functional, seed, config_field(what, obj, "grid_size", _integer, 1000)


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
    return math.sqrt(n) * (tau_plugin(fn, fit(s)) - truth)


def _coverage_draw(args) -> tuple:
    scenario_json, functional_name, n, seed, level, truth, rep = args
    s = draw(ScenarioSpec.from_json(scenario_json), n, default_stream(derive_seed(seed, rep)))
    ci = efficient_interval(by_name(functional_name), s, level)
    # a point interval misses the truth by the rounding of its estimate
    hit = ci.lower <= truth <= ci.upper or (
        ci.degenerate and abs(ci.estimate - truth) <= 4.0 * math.ulp(truth))
    return float(hit), ci.width


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


def _keep_freed_memory() -> bool:
    """Pool-worker initializer: keep the arrays a replication frees mapped,
    so the next replication reuses them instead of faulting fresh pages
    in.  Setting either glibc threshold turns off its dynamic thresholds,
    so both are set.  Returns whether both ``mallopt`` calls succeeded
    (False, and nothing changed, on a libc without ``mallopt``)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt, or no CDLL(None) on Windows
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_TRIM_THRESHOLD (-1): give freed heap back only above 1 GiB;
    # M_MMAP_THRESHOLD (-3): blocks of up to 32 MiB, glibc's 64-bit maximum,
    # come from the heap rather than from a mapping of their own
    trim = mallopt(-1, 1 << 30)
    mmap = mallopt(-3, 32 << 20)
    return trim == 1 and mmap == 1


def _map_replications(worker, arg_list, threads: int) -> np.ndarray:
    workers = _worker_count(threads, len(arg_list))
    if workers <= 1:
        return np.array([worker(a) for a in arg_list])
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory) as pool:
        chunk = max(1, len(arg_list) // (workers * 8))
        return np.array(list(pool.map(worker, arg_list, chunksize=chunk)))


# -- studies ----------------------------------------------------------------

def run_study(config: StudyConfig, threads: int = 1, out_dir=None) -> list:
    """Replication study of sqrt(n) (tau_hat - tau) for each sample size.

    The reference law is the efficient normal when it applies (x-free
    functional, or strictly concave truth); otherwise an empirical sample
    of the limit variable is generated and recorded.
    """
    fn = by_name(config.functional)
    truth, sigma2 = _truth(config.scenario, fn)
    scenario_json = config.scenario.to_json()
    ref_sample = None
    if reference_is_normal(config.scenario, config.functional):
        reference = {"type": "normal", "mean": 0.0, "var": sigma2}
    else:
        y_seed = derive_seed(config.seed, _Y_SEED_SALT)
        ref_sample, info = draw_y_samples(
            fn, config.scenario, config.grid_size, config.reference_draws,
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


def run_coverage(config: StudyConfig, level: float, threads: int = 1) -> list:
    """Per sample size, the share of replications whose efficient-variance
    interval at ``level`` holds the truth, and the mean interval width.
    Replication r draws from ``derive_seed(seed, r)``, as in
    :func:`run_study`, so the records do not depend on ``threads``."""
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    truth, _ = _truth(config.scenario, by_name(config.functional))
    scenario_json = config.scenario.to_json()
    records = []
    for n in config.n_values:
        args = [(scenario_json, config.functional, n, config.seed, level, truth, rep)
                for rep in range(config.replications)]
        hits, widths = _map_replications(_coverage_draw, args, threads).T
        records.append({
            "scenario": scenario_json, "functional": config.functional, "n": n,
            "replications": config.replications, "seed": config.seed,
            "level": level, "truth": truth,
            "coverage": int(hits.sum()) / config.replications,
            # cumsum adds in replication order, as a loop over the draws does
            "mean_width": float(np.cumsum(widths)[-1]) / config.replications,
        })
    return records


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
    _require_x_free(h, "uniform study")
    if float(h.gddot(1.0, 0.0)) == 0.0:
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
