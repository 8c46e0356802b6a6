"""Replication studies, coverage studies, Kolmogorov-Smirnov
comparisons, and reports.

Standardization of scenario studies uses the known truth (the functional
value and efficient variance of the data-generating density, by
:func:`grenfun.inference._truth`), matching the convention of
limiting-distribution figures; coverage studies use the estimated
variance instead.

Every study runs one loop over its sample sizes (:func:`_replications`)
and one worker (:func:`_replicate`), which hands the study's statistic
n draws from the stream seeded by ``derive_seed(seed, r)`` for
replication r: a SeedSequence hash of the study seed and r alone, so
statistics are byte-identical however replications are spread over
workers, and adding a sample size leaves the others' unchanged.

On glibc, the command line keeps freed memory mapped
(:func:`_keep_freed_memory`), once per process and for every command: a
large-n replication frees arrays of about 800 KB, and a limit-law batch
or a stage of ``estimate`` arrays of 128 KiB and more, which glibc would
otherwise give back to the OS, so the next one would fault them in
again.  Forked pool workers inherit the setting; their initializer
applies it for a library caller, whose own process keeps its allocator
settings, since the setting turns glibc's dynamic thresholds off for the
rest of the process.  No result depends on them.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .functionals import by_name, tau_plugin
from .grenander import fit
from .inference import (_truth, _uniform_clt_scale, efficient_interval, normal_cdf,
                        normal_quantile, uniform_clt_statistic)
from .limitlaw import _limit_is_normal, _seeded_y_samples
from .samples import (ScenarioSpec, _integer, _positive, _seed, config_field, default_stream,
                      derive_seed, draw, read_json_object)

log = logging.getLogger(__name__)

_QQ_PROBS = np.arange(1, 100) / 100.0
_Y_SEED_SALT = 0x9E3779B9


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
    if other.size == 0:
        raise InputError("empty reference sample")
    both = np.concatenate((sample, other))
    f1 = np.searchsorted(sample, both, side="right") / n
    f2 = np.searchsorted(other, both, side="right") / other.size
    return float(np.max(np.abs(f1 - f2)))


# -- configuration and report records --------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    """Scenario + functional + sample sizes + replication budget."""

    scenario: ScenarioSpec
    functional: str
    n_values: tuple
    replications: int
    seed: int
    reference_draws: int = 10000

    def __post_init__(self):
        by_name(self.functional)
        for key, convert in (("n_values", _sizes), ("replications", _integer), ("seed", _seed),
                             ("reference_draws", _positive)):
            object.__setattr__(self, key, config_field("study config", vars(self), key, convert))
        if self.replications < 1 or len(self.n_values) == 0 or any(n < 1 for n in self.n_values):
            raise InputError("replications and sample sizes must be positive, "
                             "with at least one sample size")

    @staticmethod
    def from_json(obj, seed=None) -> "StudyConfig":
        """The config in ``obj``, its seed overridden by ``seed`` as in :func:`read_run_config`."""
        what = "study config"
        obj = read_json_object(obj, what)
        scenario, functional, seed = read_run_config(obj, what, seed)
        # the constructor converts the fields that keep their JSON names
        return StudyConfig(scenario, functional, config_field(what, obj, "n", _sizes),
                           obj.get("replications", 1000), seed, obj.get("reference_draws", 10000))


def _file_stem(kind: str, functional: str) -> str:
    """Stem of a study's output file names: ``paper_pwa_power2``."""
    return f"{kind}_{functional.replace(':', '')}"


def _sizes(value) -> tuple:
    return tuple(map(_integer, value if isinstance(value, (list, tuple)) else [value]))


def read_run_config(obj, what: str = "limit-sample config", seed=None) -> tuple:
    """(scenario, functional name, seed) of a config, the fields a study
    config shares with a limit-sample config.  Its ``seed`` defaults to 0,
    and is checked even when a ``seed`` given here overrides it."""
    obj = read_json_object(obj, what)
    scenario = ScenarioSpec.from_json(config_field(what, obj, "scenario", dict))
    functional = config_field(what, obj, "functional", str)
    by_name(functional)
    own = config_field(what, obj, "seed", _seed, 0)
    return scenario, functional, own if seed is None else seed


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
        return f"{_file_stem(self.scenario['kind'], self.functional)}_n{self.n}"

    def statistics_csv(self) -> str:
        lines = ["replication,statistic"]
        lines.extend(f"{i},{v!r}" for i, v in enumerate(self.statistics.tolist()))
        return "\n".join(lines) + "\n"

    def qq_csv(self) -> str:
        lines = ["reference_quantile,sample_quantile"]
        lines.extend(f"{r!r},{s!r}" for r, s in self.summaries["qq"])
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


def _bias_check(summaries: dict, size: int, ref_sample=None) -> dict:
    """Whether the mean statistic is more than 5 standard errors from the
    reference's mean (meaningful only for a statistic with a finite
    variance).  The center is 0 for the efficient normal; for an empirical
    reference it is the mean of its draws, whose own standard error joins
    the statistic's in the threshold."""
    mean = summaries["mean"]
    center = 0.0
    var_of_gap = summaries["variance"] / size
    if ref_sample is not None:
        center = float(np.mean(ref_sample))
        if ref_sample.size > 1:
            var_of_gap += float(np.var(ref_sample, ddof=1)) / ref_sample.size
    threshold = 5.0 * math.sqrt(var_of_gap)
    check = {"center": center, "mean": mean, "threshold": threshold,
             "exceeds": bool(abs(mean - center) > threshold)}
    log.info("study bias check: mean %.6g against center %.6g, 5*SE threshold %.6g, "
             "exceeds=%s", mean, center, threshold, check["exceeds"])
    return check


# -- the replication worker (top level, with its statistics, so they pickle)

def _replicate(args):
    """Replication ``rep`` of a study: ``statistic(G, sample, *extra)`` on
    n draws from the scenario's stream of ``derive_seed(seed, rep)``."""
    statistic, spec, functional_name, n, seed, extra, rep = args
    s = draw(spec, n, default_stream(derive_seed(seed, rep)))
    return statistic(by_name(functional_name), s, *extra)


def _centered(G, s, truth: float) -> float:
    """sqrt(n) (tau_hat - tau)."""
    return math.sqrt(s.n) * (tau_plugin(G, fit(s)) - truth)


def _covers(G, s, level: float, truth: float) -> tuple:
    """(whether the efficient interval at ``level`` holds the truth, its width)."""
    ci = efficient_interval(G, s, level)
    # a point interval misses the truth by the rounding of its estimate
    hit = ci.lower <= truth <= ci.upper or (
        ci.degenerate and abs(ci.estimate - truth) <= 4.0 * math.ulp(truth))
    return float(hit), ci.width


def _worker_count(threads: int, jobs: int) -> int:
    """Worker processes for ``jobs`` replications: ``threads``, capped at
    the CPU count and the job count (a fork-context pool starts all its
    workers at once)."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    return min(threads, os.cpu_count() or 1, jobs)


def _keep_freed_memory() -> bool:
    """Keep the arrays a replication, a limit-law batch or a stage of a
    fit frees mapped, so the next one reuses them instead of faulting
    fresh pages in.  The command line calls it once for its own process,
    whatever the command; forked workers inherit that, so as a pool-worker
    initializer it matters only to a library caller.  Setting either glibc
    threshold turns off its dynamic thresholds, so both are set.  Returns
    whether both ``mallopt`` calls succeeded (False, and nothing changed,
    on a libc without ``mallopt``)."""
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


#: arguments a pool is handed at a time, per worker
_BLOCK_PER_WORKER = 64


def _map_replications(worker, args, threads: int, jobs: int | None = None) -> np.ndarray:
    """``worker`` of each of the ``jobs`` items of ``args`` (its length when
    not given), in order.  ``args`` is read lazily: one at a time in this
    process, or ``workers * 64`` at a time for a pool, so a huge count
    starts work at once and holds one block of arguments."""
    workers = _worker_count(threads, len(args) if jobs is None else jobs)
    if workers <= 1:
        return np.array([worker(a) for a in args])
    # imported here: concurrent.futures and the multiprocessing it loads
    # are milliseconds of every start, and only a pool needs them
    from concurrent.futures import ProcessPoolExecutor
    from itertools import islice

    args, results = iter(args), []
    with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_memory) as pool:
        while block := list(islice(args, workers * _BLOCK_PER_WORKER)):
            chunk = max(1, len(block) // (workers * 8))
            results.extend(pool.map(worker, block, chunksize=chunk))
    return np.array(results)


def _replications(config: StudyConfig, statistic, extra: tuple, threads: int):
    """Per sample size of ``config``, (n, the statistic of every
    replication by :func:`_replicate`, the seconds they took)."""
    for n in config.n_values:
        start = time.perf_counter()
        args = ((statistic, config.scenario, config.functional, n, config.seed, extra, rep)
                for rep in range(config.replications))
        stats = _map_replications(_replicate, args, threads, config.replications)
        yield n, stats, time.perf_counter() - start


# -- studies ----------------------------------------------------------------

def run_study(config: StudyConfig, threads: int = 1, out_dir=None) -> list:
    """Replication study of sqrt(n) (tau_hat - tau) for each sample size.

    The reference law is the efficient normal when it applies (x-free
    functional, or strictly concave truth); otherwise an empirical sample
    of the limit variable is generated and recorded.
    """
    fn = by_name(config.functional)
    truth, sigma2 = _truth(config.scenario, fn)
    ref_sample = None
    if _limit_is_normal(fn, config.scenario):
        reference = {"type": "normal", "mean": 0.0, "var": sigma2}
    else:
        y_file = None if out_dir is None else (
            Path(out_dir) / f"{_file_stem(config.scenario.kind, config.functional)}_yref.csv")
        ref_sample, info = _seeded_y_samples(fn, config.scenario, config.reference_draws,
                                             derive_seed(config.seed, _Y_SEED_SALT), y_file)
        reference = {"type": "empirical", "draws": int(config.reference_draws),
                     "file": None if y_file is None else y_file.name,
                     "tail_bound": info["tail_bound"]}
    reports = []
    for n, stats, seconds in _replications(config, _centered, (truth,), threads):
        summaries = _summarize(stats, reference, ref_sample)
        summaries["bias_check"] = _bias_check(summaries, stats.size, ref_sample)
        report = SimulationReport(
            scenario=config.scenario.to_json(), functional=config.functional, n=n,
            replications=config.replications, statistics=stats,
            reference=reference, summaries=summaries, seed=config.seed, wall_time=seconds,
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
    records = []
    for n, outcomes, _ in _replications(config, _covers, (level, truth), threads):
        hits, widths = outcomes.T
        records.append({
            "scenario": config.scenario.to_json(), "functional": config.functional, "n": n,
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
    config = StudyConfig(ScenarioSpec.uniform(1.0), functional_name, n_values, replications, seed)
    for n in config.n_values:
        _uniform_clt_scale(by_name(functional_name), n)
    reference = {"type": "normal", "mean": 0.0, "var": 1.0}
    reports = []
    for n, stats, seconds in _replications(config, uniform_clt_statistic, (), threads):
        report = SimulationReport(
            scenario={"kind": "uniform_clt", "params": {"upper": 1.0}},
            functional=functional_name, n=n, replications=config.replications,
            statistics=stats, reference=reference, summaries=_summarize(stats, reference),
            seed=config.seed, wall_time=seconds,
        )
        if out_dir is not None:
            report.write(out_dir)
        reports.append(report)
    return reports
