"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the wall time of identical work drifts with other
tenants' load, by tens of percent within minutes, and the guest's own CPU
time drifts with it.  The benchmark therefore runs this kernel next to
every timed piece of program work and reports that work in nominal
seconds: wall time / ``Reference.slowness()``, the host's slowness at
that moment.  A slower host slows the kernel and the program alike and
cancels; a slower program does not, since the kernel uses numpy and plain
Python only, on inputs fixed here, and no change to grenfun can move it.

The kernel has five parts of 20 to 30 ms each, one for each kind of work
the workloads do: interpreted Python, sorting and scans of an 8 MB array,
streaming through a fresh 48 MB array, formatting and parsing float text,
and drawing normal variates.  Contention slows these by different
amounts, so the slowness is the geometric mean of each part's time over
its nominal time (the median measured where the reference figures of
README.md were taken).

The kernel runs in a process of its own (``Gauge``), which no CLI call
touches.  Run inside the workload process, it read 15-30% slower on the
study workload, whose pool forks that process, than on the others.
"""

import math
import subprocess
import sys
import time

NOMINAL_S = {"python": 0.022, "sort": 0.021, "stream": 0.024, "text": 0.031, "normal": 0.022}


class Reference:
    """The kernel with its inputs; allocate once, then call ``slowness()``."""

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(20181021))
        self._np = np
        self._values = rng.random(1_000_000)
        self._floats = rng.random(20_000).tolist()
        self.slowness()  # first touch of the inputs, untimed

    def _python(self):
        total = 0.0
        for i in range(280_000):
            total += i * 0.5

    def _sort(self):
        np = self._np
        np.maximum.accumulate(np.cumsum(np.sort(self._values)))

    def _stream(self):
        block = self._np.ones(6_000_000)
        block *= 2.0
        block.sum()

    def _text(self):
        text = "\n".join(map(repr, self._floats))
        self._np.array([float(x) for x in text.split()])

    def _normal(self):
        np = self._np
        np.random.Generator(np.random.PCG64(7)).standard_normal(1_200_000)

    def times(self) -> dict:
        out = {}
        for name in NOMINAL_S:
            part = getattr(self, "_" + name)
            start = time.perf_counter()
            part()
            out[name] = time.perf_counter() - start
        return out

    def slowness(self) -> float:
        """Geometric mean of part time / nominal time: 1 at nominal speed."""
        times = self.times()
        return math.exp(sum(math.log(times[k] / NOMINAL_S[k]) for k in NOMINAL_S) / len(NOMINAL_S))


class Gauge:
    """The kernel in a child process: ``slowness()`` asks it for one
    measurement and waits for the answer.  Use as a context manager, which
    ends the child and waits for it."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def slowness(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        if self._proc.wait(timeout=30) != 0 and exc[0] is None:
            raise RuntimeError(f"reference process exited {self._proc.returncode}")


def _serve():
    """Answer each line on stdin with one slowness measurement."""
    reference = Reference()
    for _ in sys.stdin:
        print(repr(reference.slowness()), flush=True)


if __name__ == "__main__":
    _serve()
