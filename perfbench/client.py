"""The workload process: one user of grenfun in a closed loop.

``client.py SPEC`` times ``import grenfun.cli`` in this fresh interpreter,
then runs whole rounds of CLI calls through ``grenfun.cli.main(argv)``
until the spec's seconds have passed, and writes the call timings (and,
when traced, the spans) to the spec's result file.  The reference kernel
(``reference.py``, in a process of its own) runs before every call and
after the last, so each call is paired with the host's slowness just
before and just after it.  ``client.py --probe``
only times the import and prints it.

The import is timed before this process loads numpy or any benchmark
module, so it holds everything the program does at import.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import grenfun.cli
    seconds = time.perf_counter() - start
    if not Path(grenfun.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"grenfun was imported from {grenfun.cli.__file__}, not {src}")
    return grenfun.cli, seconds


def _peak_rss_kb() -> int:
    """Largest resident set of this process and of its waited-for children
    (the study's pool workers); Linux reports kilobytes."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crash is a failed call; the loop goes on
        code = -1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run(spec: dict) -> dict:
    cli, setup_s = _import_cli()
    from reference import Gauge
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    with Gauge() as gauge:
        calls = _loop(cli, workload, spec, gauge, tracer)
        peak_rss_kb = _peak_rss_kb()  # before the gauge is waited for, so without it
    return {"setup_s": setup_s, "peak_rss_kb": peak_rss_kb, "calls": calls,
            "spans": tracer.spans if tracer is not None else None}


def _loop(cli, workload, spec, gauge, tracer) -> list:
    """Whole rounds of calls until the spec's seconds have passed."""
    out_dir = Path(spec["out_dir"])
    calls = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < spec["seconds"]:
        round_calls = workload.make_round(spec["seed"], index, out_dir / f"r{index:04d}",
                                          bool(spec["trace"]), spec["data"])
        for call in round_calls:
            before = gauge.slowness()
            if tracer is not None:
                tracer.op = len(calls)
            seconds, code, stdout, stderr = _call(cli, call.argv)
            if calls:
                calls[-1]["slowness"].append(before)
            calls.append({"round": index, "argv": call.argv, "units": call.units,
                          "seconds": seconds, "slowness": [before], "code": code,
                          "stdout": stdout, "stderr": stderr})
        index += 1
    calls[-1]["slowness"].append(gauge.slowness())
    return calls


def main(argv) -> int:
    if argv[1:] == ["--probe"]:
        print(repr(_import_cli()[1]))
        return 0
    spec = json.loads(Path(argv[1]).read_text())
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
