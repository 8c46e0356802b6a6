"""Benchmark of grenfun's user paths, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's inputs from the seed under ``.perfbench_out/NAME``,
starts one workload process (``client.py``) that calls
``grenfun.cli.main`` in a closed loop for S seconds, checks every output
against computations made apart from grenfun, and prints as its last
line one JSON object: ``correct``, ``attempted`` and ``failed`` CLI calls,
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``).  Times are in nominal seconds, wall time over
the host's slowness (``reference.py``); a line before the result gives
the wall figures.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5                # fresh interpreters that time the import, before and after
CLIENT_GRACE_S = 100      # allowed beyond --seconds for the last round and output


def _run_client(args, log_path: Path, timeout: float) -> str:
    """Run client.py to its end in its own process group; on timeout kill
    the group (the client and any pool workers) and wait for it."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([sys.executable, str(HERE / "client.py"), *args], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=log, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"workload process timed out after {timeout:.0f} s; see {log_path}")
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited {proc.returncode}; see {log_path}")
    return out.decode()


def _time_imports(log_path: Path) -> list:
    return [float(_run_client(["--probe"], log_path, 60)) for _ in range(PROBES)]


def end_to_end(result: dict, probes: list) -> tuple:
    """The end-to-end metrics, with times in nominal seconds: wall time
    over the host's slowness at that moment (``reference.py``).
    call_s: median over the rounds of a round's mean per-call time, each
    call over the mean slowness measured just before and just after it.
    setup_s: median import time over the probes and the workload process,
    over the median slowness of the run.
    peak_rss_mb: largest resident set of the workload process or its pool.
    Also returns the times in wall seconds and the slowness, for the record."""
    rounds, walls = {}, {}
    for call in result["calls"]:
        rounds.setdefault(call["round"], []).append(
            call["seconds"] / statistics.fmean(call["slowness"]))
        walls.setdefault(call["round"], []).append(call["seconds"])
    slowness = statistics.median(s for c in result["calls"] for s in c["slowness"])
    setup_wall = statistics.median(probes + [result["setup_s"]])
    metrics = {
        "setup_s": {"value": setup_wall / slowness, "unit": "s"},
        "call_s": {"value": statistics.median(map(statistics.fmean, rounds.values())),
                   "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
    }
    wall = {"setup_s": setup_wall,
            "call_s": statistics.median(map(statistics.fmean, walls.values())),
            "slowness": slowness}
    return metrics, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "grenfun" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a grenfun checkout", file=sys.stderr)
            return 2

    from checks import CHECKS
    from tracing import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    log_path = out_dir / "client.log"
    data = WORKLOADS[args.workload].data(args.seed, out_dir)
    probes = _time_imports(log_path)
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "out_dir": str(out_dir),
            "data": None if data is None else str(data),
            "result": str(out_dir / "result.json")}
    (out_dir / "spec.json").write_text(json.dumps(spec))
    _run_client([str(out_dir / "spec.json")], log_path, args.seconds + CLIENT_GRACE_S)
    result = json.loads((out_dir / "result.json").read_text())
    probes += _time_imports(log_path)

    calls = result["calls"]
    failed = sum(1 for c in calls if c["code"] != 0)
    for c in calls:
        if c["code"] != 0:
            print(f"call {c['argv']} exited {c['code']}: {c['stderr'].strip()}", file=sys.stderr)
    try:
        problems = CHECKS[args.workload](calls, out_dir, data)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        problems = [f"{type(exc).__name__}: {exc}"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    e2e, wall = end_to_end(result, probes)
    print(json.dumps({"wall_seconds": wall}))
    if args.trace:
        # the traced run's own end-to-end figures, for the tracing overhead
        print(json.dumps({"traced_end_to_end": e2e, "spans": len(result["spans"])}))
        metrics = layer_metrics(result["spans"],
                                [statistics.fmean(c["slowness"]) for c in calls])
    else:
        metrics = e2e
    print(json.dumps({"correct": not problems, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
