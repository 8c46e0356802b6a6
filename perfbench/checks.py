"""Correctness checks of each workload's outputs.

Every check compares against a computation made here, apart from grenfun,
or against a property the method must have:

* the Grenander fit is recomputed with the pool-adjacent-violators oracle
  of ``tests/oracles.py``, and plug-in values follow from it by closed-form
  sums over the sorted observations;
* replication samples are redrawn from the documented seed derivation;
* limit-law variances are quadratic forms in the Brownian-bridge
  covariance min(u, v) - uv on the sampler's grid.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.special import ndtr
from scipy.stats import norm

import workloads as W

ROOT = Path(__file__).resolve().parent.parent

EST_RTOL = 1e-9           # estimate and CI half-width against the oracle
STUDY_RTOL = 1e-8         # tau_hat recovered from a study statistic
STUDY_CHECKED_REPS = 2    # replications redrawn per simulate call
MC_SES = 4.0              # Monte Carlo standard errors allowed for moments
KS_C = 2.5                # one-sided KS bound c / sqrt(D); P(exceed) ~ exp(-2c^2)
PWA_MEAN_SES = 5.0        # the hull draws' mean must lie this many SEs below 0
TRUNCATION_MASS = 1e-6    # limitlaw's default tail mass cut from the exponential
V_CONT_EXP_XZ2 = 8.0 / 27.0 - 0.25   # Var(2X exp(-X)), X ~ Exp(1)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("grenfun_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLES = _load_oracles()


# -- independent computations -------------------------------------------

def redraw_exponential(seed: int, rep: int, n: int) -> np.ndarray:
    """Replication ``rep`` of a study with seed ``seed``: a 64-bit word of
    SeedSequence((seed, rep)) seeds PCG64, whose uniforms go through the
    Exp(1) inverse CDF -log1p(-u); sorted."""
    word = int(np.random.SeedSequence((seed, rep)).generate_state(1, np.uint64)[0])
    u = np.random.Generator(np.random.PCG64(word)).random(n)
    return np.sort(-np.log1p(-u))


def pava_levels(sorted_values: np.ndarray) -> np.ndarray:
    """Grenander density at each sorted observation, by the PAVA oracle."""
    if np.any(np.diff(sorted_values) <= 0.0) or sorted_values[0] <= 0.0:
        raise ValueError("the oracle needs distinct positive observations")
    return _ORACLES.grenander_levels_by_pava(sorted_values)


def tau_xz2(x: np.ndarray, f: np.ndarray) -> float:
    """Integral of x f(x)^2 for the step density with value f[i] on
    (x[i-1], x[i]]: sum f^2 (x_i^2 - x_{i-1}^2) / 2."""
    return float(np.sum(f * f * np.diff(x * x, prepend=0.0)) / 2.0)


def mu_power2(x: np.ndarray, f: np.ndarray) -> float:
    """Integral of f(x)^2: sum f^2 (x_i - x_{i-1})."""
    return float(np.sum(f * f * np.diff(x, prepend=0.0)))


def sigma2_power2(x: np.ndarray, f: np.ndarray) -> float:
    """Efficient variance of power:2 under the step density,
    Var(h'(f(X))) = int f (2f)^2 - (int f (2f))^2."""
    dx = np.diff(x, prepend=0.0)
    m1 = float(np.sum(f * (2.0 * f) ** 2 * dx))
    m2 = float(np.sum(f * 2.0 * f * dx))
    return m1 - m2 * m2


def sigma2_xz2(x: np.ndarray, f: np.ndarray) -> float:
    """Empirical variance of gdot(f(X_i), X_i) = 2 X_i f(X_i)."""
    g = 2.0 * x * f
    return float(np.mean(g * g) - np.mean(g) ** 2)


def bridge_quadratic_form(u: np.ndarray, a: np.ndarray) -> float:
    """Var(sum_j a_j B(u_j)) for a Brownian bridge B."""
    cov = np.minimum.outer(u, u) - np.outer(u, u)
    return float(a @ cov @ a)


def v_grid_exponential(grid_size: int = W.LIMIT_GRID) -> float:
    """Exact variance of the sampler's left-endpoint sum
    -sum_j B(F(x_j)) (psi(x_{j+1}) - psi(x_j)), psi(x) = 2x e^{-x}, on the
    uniform grid of [0, T] with F(T) = 1 - TRUNCATION_MASS."""
    x = np.linspace(0.0, -math.log(TRUNCATION_MASS), grid_size + 1)
    psi = 2.0 * x * np.exp(-x)
    return bridge_quadratic_form(-np.expm1(-x[:-1]), np.diff(psi))


def var_linear_pwa(grid_size: int = W.LIMIT_GRID) -> float:
    """Variance of the paper_pwa/xz2 Stieltjes sum with no hull applied:
    within-piece increments 2 f (x_{j+1} - x_j) at left endpoints, plus the
    jump 2 t (f_2 - f_1) of psi = 2x f(x) at the kink t (the jump at x = 1
    meets B(1) = 0)."""
    r2 = math.sqrt(2.0)
    kink, f1, f2 = 1.0 - 1.0 / r2, r2 + 1.0, r2 - 1.0
    x = np.union1d(np.linspace(0.0, 1.0, grid_size + 1), [kink])
    u = np.where(x <= kink, f1 * x, 1.0 / r2 + f2 * (x - kink))
    level = np.where(x[1:] <= kink, f1, f2)
    a = np.zeros(x.size)
    a[:-1] = 2.0 * level * np.diff(x)
    a[np.searchsorted(x, kink)] += 2.0 * kink * (f2 - f1)
    return bridge_quadratic_form(u, a)


def one_sided_ks(ys: np.ndarray, cdf) -> float:
    """sup_y (cdf(y) - F_hat(y)) over the sample ``ys``."""
    ys = np.sort(ys)
    return float(np.max(cdf(ys) - np.arange(ys.size) / ys.size))


# -- per-workload checks ---------------------------------------------------

def _ok(calls):
    return [c for c in calls if c["code"] == 0]


def _round_dir(out_dir: Path, call) -> Path:
    return out_dir / f"r{call['round']:04d}"


def _single(round_dir: Path, pattern: str) -> Path:
    found = sorted(round_dir.glob(pattern))
    if len(found) != 1:
        raise ValueError(f"{round_dir}: expected one {pattern}, found {len(found)}")
    return found[0]


def check_study(calls, out_dir: Path, data) -> list:
    problems = []
    for call in _ok(calls):
        rdir = _round_dir(out_dir, call)
        cfg = json.loads((rdir / "config.json").read_text())
        n, reps = cfg["n"][0], cfg["replications"]
        rows = _single(rdir, "*_stats.csv").read_text().splitlines()[1:]
        index = [int(r.split(",")[0]) for r in rows]
        if index != list(range(reps)):
            problems.append(f"{rdir}: stats rows {index[:3]}... are not 0..{reps - 1}")
            continue
        stats = [float(r.split(",")[1]) for r in rows]
        chosen = [0] + random.Random(cfg["seed"]).sample(range(1, reps), STUDY_CHECKED_REPS - 1)
        for rep in chosen:
            x = redraw_exponential(cfg["seed"], rep, n)
            expected = tau_xz2(x, pava_levels(x))
            got = 0.25 + stats[rep] / math.sqrt(n)
            if abs(got - expected) > STUDY_RTOL * abs(expected):
                problems.append(f"{rdir} rep {rep}: tau_hat {got!r}, oracle {expected!r}")
    return problems


def _limit_draws(calls, out_dir: Path, problems) -> np.ndarray:
    draws = []
    for call in _ok(calls):
        lines = _single(_round_dir(out_dir, call), "*.csv").read_text().splitlines()
        info = json.loads(lines[0][1:])
        ys = np.array([float(v) for v in lines[1:]])
        wanted = call["units"]
        if ys.size != wanted or info.get("draws") != wanted or not np.all(np.isfinite(ys)):
            problems.append(f"round {call['round']}: {ys.size} finite draws, wanted {wanted}")
        draws.append(ys)
    return np.concatenate(draws) if draws else np.empty(0)


def check_limit_exp(calls, out_dir: Path, data) -> list:
    """Gaussian limit: mean 0 and variance between v_grid (the sampler's
    exact discrete variance) and the continuum 8/27 - 1/4."""
    problems = []
    ys = _limit_draws(calls, out_dir, problems)
    if ys.size < 2:
        return problems + ["no draws to check"]
    mean, var = float(ys.mean()), float(ys.var(ddof=1))
    se_mean = math.sqrt(var / ys.size)
    se_var = var * math.sqrt(2.0 / (ys.size - 1))
    lo, hi = sorted((v_grid_exponential(), V_CONT_EXP_XZ2))
    if abs(mean) > MC_SES * se_mean:
        problems.append(f"mean {mean:.5f} is more than {MC_SES} SEs ({se_mean:.5f}) from 0")
    if not lo - MC_SES * se_var <= var <= hi + MC_SES * se_var:
        problems.append(f"variance {var:.5f} outside [{lo:.5f}, {hi:.5f}] +- {MC_SES} SEs "
                        f"({se_var:.5f})")
    return problems


def check_limit_pwa(calls, out_dir: Path, data) -> list:
    """Each draw is at or below the no-hull linear sum ~ N(0, var_lin),
    so its law lies stochastically below that normal; the hull shifts the
    mean clearly below 0."""
    problems = []
    ys = _limit_draws(calls, out_dir, problems)
    if ys.size < 2:
        return problems + ["no draws to check"]
    sd_lin = math.sqrt(var_linear_pwa())
    ks = one_sided_ks(ys, lambda y: ndtr(y / sd_lin))
    if ks > KS_C / math.sqrt(ys.size):
        problems.append(f"sup(Phi_lin - F_hat) = {ks:.5f} exceeds {KS_C}/sqrt({ys.size})")
    mean, se = float(ys.mean()), float(ys.std(ddof=1)) / math.sqrt(ys.size)
    if not mean < -PWA_MEAN_SES * se:
        problems.append(f"mean {mean:.5f} is not {PWA_MEAN_SES} SEs ({se:.5f}) below 0")
    return problems


def estimate_oracle(data_path: Path) -> dict:
    """Line count, estimates and CI half-widths by the oracle, per functional."""
    text = data_path.read_text()
    x = np.sort(np.array(text.split(), dtype=float))
    f = pava_levels(x)
    n = x.size
    z = float(norm.ppf(0.5 + W.ESTIMATE_LEVEL / 2.0))
    return {"lines": text.count("\n"), "by_functional": {
        "xz2": (tau_xz2(x, f), z * math.sqrt(sigma2_xz2(x, f) / n)),
        "power:2": (mu_power2(x, f), z * math.sqrt(sigma2_power2(x, f) / n)),
    }}


def check_estimate(calls, out_dir: Path, data) -> list:
    problems = []
    oracle = estimate_oracle(Path(data))
    for call in _ok(calls):
        got = json.loads(call["stdout"].strip().splitlines()[-1])
        fn = got["functional"]
        estimate, half = oracle["by_functional"][fn]
        ci = got["ci"]
        got_half = (ci["upper"] - ci["lower"]) / 2.0
        if got["n"] != oracle["lines"]:
            problems.append(f"{fn}: n = {got['n']}, file has {oracle['lines']} lines")
        if abs(got["estimate"] - estimate) > EST_RTOL * abs(estimate):
            problems.append(f"{fn}: estimate {got['estimate']!r}, oracle {estimate!r}")
        if abs(got_half - half) > EST_RTOL * half:
            problems.append(f"{fn}: CI half-width {got_half!r}, oracle {half!r}")
    return problems


CHECKS = {
    "study-exp-xz2": check_study,
    "limit-pwa-xz2": check_limit_pwa,
    "limit-exp-xz2": check_limit_exp,
    "estimate-file": check_estimate,
}
