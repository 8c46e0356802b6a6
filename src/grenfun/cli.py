"""Command-line interface.

Subcommands: ``estimate`` (fit a data file and evaluate a functional,
optionally with a confidence interval), ``simulate`` (replication study
from a JSON config), ``coverage`` (empirical coverage of the confidence
interval, from the same config), ``limit-sample`` (draws of the limiting
variable), and ``uniform-clt`` (the uniform-truth standardized-statistic
study).

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import InputError, NumericError
from .functionals import ScalarFunctional, by_name, mu_plugin, tau_plugin
from .grenander import fit
from .harness import StudyConfig, read_run_config, run_coverage, run_study, run_uniform_study
from .inference import efficient_interval
from .limitlaw import TrueModel, draw_y_samples, emit_y_csv
from .samples import default_stream, read_observations


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grenfun",
        description="Grenander plug-in estimation of integrated functionals "
                    "of a nonincreasing density",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed of any config or scenario")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for output files")
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="worker processes for replication studies "
                             "(at most the CPU count)")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate a functional from a data file")
    est.add_argument("--data", required=True, type=Path,
                     help="file with one decimal observation per line "
                          "('#' starts a comment)")
    est.add_argument("--functional", required=True,
                     help="built-in functional name, e.g. power:2, xz2, identity")
    est.add_argument("--ci", type=float, default=None, metavar="LEVEL",
                     help="also report a confidence interval at this level")

    sim = sub.add_parser("simulate", help="run a replication study from JSON config")
    sim.add_argument("--config", required=True, type=Path)

    cov = sub.add_parser("coverage", help="coverage of the confidence interval, "
                                          "from a study's JSON config")
    cov.add_argument("--config", required=True, type=Path)
    cov.add_argument("--level", type=float, default=0.95,
                     help="nominal level of the interval (default 0.95)")

    lim = sub.add_parser("limit-sample", help="sample the limiting variable")
    lim.add_argument("--config", required=True, type=Path,
                     help="JSON with scenario, functional, optional grid_size")
    lim.add_argument("--draws", required=True, type=_positive_int)

    uni = sub.add_parser("uniform-clt", help="uniform-truth CLT study")
    uni.add_argument("--h", required=True, dest="functional",
                     help="functional of the density alone, e.g. power:2")
    uni.add_argument("--n", required=True, type=_positive_int, nargs="+",
                     help="one or more sample sizes")
    uni.add_argument("--reps", required=True, type=_positive_int)
    return parser


def _cmd_estimate(args) -> int:
    sample = read_observations(args.data)
    fn = by_name(args.functional)
    density = fit(sample)
    result = {"functional": args.functional, "n": sample.n}
    if args.ci is None:
        plugin = mu_plugin if isinstance(fn, ScalarFunctional) else tau_plugin
        result["estimate"] = plugin(fn, density)
    else:
        ci = efficient_interval(fn, sample, args.ci, density)
        result["estimate"] = ci.estimate
        result["ci"] = ci.to_json()
    print(json.dumps(result, sort_keys=True))
    if args.out != Path("."):
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "estimate.json").write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


def _study_config(args) -> StudyConfig:
    config = StudyConfig.from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def _cmd_simulate(args) -> int:
    reports = run_study(_study_config(args), threads=args.threads, out_dir=args.out)
    for report in reports:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0


def _cmd_coverage(args) -> int:
    for record in run_coverage(_study_config(args), args.level, threads=args.threads):
        print(json.dumps(record, sort_keys=True))
    return 0


def _cmd_limit_sample(args) -> int:
    spec, name, seed, grid_size = read_run_config(args.config)
    if args.seed is not None:
        seed = args.seed
    fn = by_name(name)
    if isinstance(fn, ScalarFunctional):
        fn = fn.as_smooth()
    model = TrueModel.from_scenario(spec)
    ys, info = draw_y_samples(fn, model, grid_size, args.draws, default_stream(seed))
    info["seed"] = int(seed)
    args.out.mkdir(parents=True, exist_ok=True)
    slug = name.replace(":", "")
    path = args.out / f"{spec.kind}_{slug}_y.csv"
    emit_y_csv(path, ys, info)
    print(json.dumps({"file": str(path), "draws": len(ys),
                      "mean": float(ys.mean()), "variance": float(ys.var(ddof=1)),
                      "tail_bound": info["tail_bound"]}, sort_keys=True))
    return 0


def _cmd_uniform_clt(args) -> int:
    seed = args.seed if args.seed is not None else 0
    reports = run_uniform_study(args.functional, args.n, args.reps,
                                seed, threads=args.threads, out_dir=args.out)
    for report in reports:
        print(json.dumps(report.to_json(), sort_keys=True))
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "coverage": _cmd_coverage,
    "limit-sample": _cmd_limit_sample,
    "uniform-clt": _cmd_uniform_clt,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
