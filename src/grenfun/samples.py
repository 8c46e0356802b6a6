"""Observation ingestion, empirical CDFs, and scenario sampling.

All sampling is inverse-CDF based so that a scenario, a sample size, and a
seed pin down the drawn sample bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InputError

SQRT2 = math.sqrt(2.0)

#: kink location of the two-slope piecewise-affine benchmark CDF
PWA_KINK = 1.0 - 1.0 / SQRT2

SCENARIO_KINDS = ("exponential", "uniform", "piecewise_constant", "paper_pwa")


def default_stream(seed):
    """Seeded random source used everywhere in the package.

    Built on PCG64, whose output stream for a given seed is frozen across
    numpy releases; only ``random`` and ``standard_normal`` are consumed,
    so the same seed reproduces the same draws bit for bit.  Streams are
    never shared across threads; derive one per worker instead.
    """
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(seed: int, index: int) -> int:
    """Per-replication seed, a pure function of (study seed, index).

    Hashes the pair through numpy's SeedSequence so that nearby study
    seeds do not share replication streams (plain XOR would permute the
    same seed set); results stay independent of worker count because the
    derivation never involves scheduling.
    """
    ss = np.random.SeedSequence((int(seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Sample:
    """Sorted nonnegative observations, duplicates retained."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("sample must be a nonempty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise InputError("sample contains non-finite values")
        if vals[0] < 0.0:
            raise InputError("sample contains a negative observation")
        if np.any(np.diff(vals) < 0.0):
            raise InputError("sample values must be sorted nondecreasing")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


def ingest(raw) -> Sample:
    """Validate and sort raw observations into a :class:`Sample`.

    Rejects empty input and any negative, NaN, or infinite entry, naming
    the first offending index.  Duplicates are kept.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise InputError("no observations supplied")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InputError(f"non-finite observation at index {i}: {arr[i]!r}")
    neg = arr < 0.0
    if np.any(neg):
        i = int(np.argmax(neg))
        raise InputError(f"negative observation at index {i}: {arr[i]!r}")
    return Sample(np.sort(arr))


def ecdf(s: Sample):
    """Empirical CDF of a sample as step-record point arrays ``(xs, ys)``.

    Returns the points ``(X_(i), i/n)`` pooled at duplicates (cumulated
    height), prefixed by the origin ``(0, 0)``.  Observations at exactly 0
    replace the origin with ``(0, j/n)``.
    """
    # values are sorted: a run of equal values ends where the next differs
    v = s.values
    ends = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    vals = v[ends]
    heights = (ends + 1) / float(s.n)
    if vals[0] == 0.0:
        return vals, heights
    return np.concatenate(([0.0], vals)), np.concatenate(([0.0], heights))


@dataclass(frozen=True)
class ScenarioSpec:
    """A named data-generating truth with a closed-form CDF and inverse.

    ``kind`` is one of ``exponential`` (param ``rate``), ``uniform``
    (param ``upper``), ``piecewise_constant`` (params ``breakpoints``,
    ``levels``), or ``paper_pwa`` (no params; expands to the two-slope
    benchmark CDF with slopes 1/(sqrt2-1) then sqrt2-1 on [0, 1]).
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise InputError(
                f"unknown scenario kind {self.kind!r}; valid kinds: "
                + ", ".join(SCENARIO_KINDS)
            )
        if self.kind == "exponential":
            if not config_field("scenario params", self.params, "rate", _real, 0.0) > 0.0:
                raise InputError("exponential scenario needs rate > 0")
        elif self.kind == "uniform":
            if not config_field("scenario params", self.params, "upper", _real, 0.0) > 0.0:
                raise InputError("uniform scenario needs upper > 0")
        elif self.kind == "piecewise_constant":
            ts, vs = (config_field("scenario params", self.params, key,
                                   lambda v: np.asarray(v, dtype=float))
                      for key in ("breakpoints", "levels"))
            if ts.size == 0 or ts.size != vs.size:
                raise InputError("breakpoints and levels must be equal-length and nonempty")
            if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
                raise InputError("breakpoints must be strictly increasing and positive")
            if np.any(vs <= 0.0) or np.any(np.diff(vs) >= 0.0):
                raise InputError("levels must be strictly decreasing and positive")
            mass = float(np.sum(vs * np.diff(ts, prepend=0.0)))
            if abs(mass - 1.0) > 1e-12:
                raise InputError(f"piecewise density mass {mass!r} differs from 1 by more than 1e-12")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exponential(rate: float = 1.0, seed: int | None = None) -> "ScenarioSpec":
        return ScenarioSpec("exponential", {"rate": float(rate)}, seed)

    @staticmethod
    def uniform(upper: float = 1.0, seed: int | None = None) -> "ScenarioSpec":
        return ScenarioSpec("uniform", {"upper": float(upper)}, seed)

    @staticmethod
    def piecewise(breakpoints, levels, seed: int | None = None) -> "ScenarioSpec":
        return ScenarioSpec(
            "piecewise_constant",
            {"breakpoints": [float(t) for t in breakpoints],
             "levels": [float(v) for v in levels]},
            seed,
        )

    @staticmethod
    def paper_pwa(seed: int | None = None) -> "ScenarioSpec":
        return ScenarioSpec("paper_pwa", {}, seed)

    # -- internal piecewise representation ------------------------------

    def _pw_arrays(self):
        if self.kind == "paper_pwa":
            return (np.array([PWA_KINK, 1.0]),
                    np.array([SQRT2 + 1.0, SQRT2 - 1.0]))
        if self.kind == "uniform":
            c = float(self.params["upper"])
            return np.array([c]), np.array([1.0 / c])
        if self.kind == "piecewise_constant":
            return (np.asarray(self.params["breakpoints"], dtype=float),
                    np.asarray(self.params["levels"], dtype=float))
        raise InputError(f"scenario kind {self.kind!r} has no piecewise form")

    # -- distribution functions -----------------------------------------

    @property
    def is_strictly_concave(self) -> bool:
        return self.kind == "exponential"

    @property
    def support_end(self) -> float:
        """Right endpoint of the support (inf for exponential)."""
        if self.kind == "exponential":
            return math.inf
        ts, _ = self._pw_arrays()
        return float(ts[-1])

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            rate = self.params["rate"]
            out = -np.expm1(-rate * np.maximum(x, 0.0))
        else:
            ts, vs = self._pw_arrays()
            edges = np.concatenate(([0.0], ts))
            cum = np.concatenate(([0.0], np.cumsum(vs * np.diff(edges))))
            cum[-1] = 1.0
            xc = np.clip(x, 0.0, ts[-1])
            i = np.searchsorted(ts, xc, side="left")
            out = cum[i] + vs[np.minimum(i, vs.size - 1)] * (xc - edges[i])
            out = np.where(x >= ts[-1], 1.0, out)
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse CDF, defined on [0, 1)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "exponential":
            rate = self.params["rate"]
            out = -np.log1p(-u) / rate
        elif self.kind == "uniform":
            out = u * self.params["upper"]
        else:
            ts, vs = self._pw_arrays()
            edges = np.concatenate(([0.0], ts))
            cum = np.concatenate(([0.0], np.cumsum(vs * np.diff(edges))))
            cum[-1] = 1.0
            i = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, vs.size - 1)
            out = edges[i] + (u - cum[i]) / vs[i]
        return out if out.ndim else float(out)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "exponential":
            rate = self.params["rate"]
            out = rate * np.exp(-rate * x)
        else:
            ts, vs = self._pw_arrays()
            i = np.searchsorted(ts, x, side="left")
            out = np.where(i < vs.size, vs[np.minimum(i, vs.size - 1)], 0.0)
            out = np.where(x > ts[-1], 0.0, out)
        return out if out.ndim else float(out)

    def true_density(self):
        """The scenario's density as a :class:`grenfun.grenander.StepDensity`
        (piecewise kinds only)."""
        from .grenander import StepDensity

        ts, vs = self._pw_arrays()
        return StepDensity(ts, vs)

    def affine_intervals(self):
        """Closed intervals on which the CDF is affine (piecewise kinds)."""
        ts, _ = self._pw_arrays()
        edges = np.concatenate(([0.0], ts))
        return [(float(edges[i]), float(edges[i + 1])) for i in range(ts.size)]

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params)}
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @staticmethod
    def from_json(obj: dict) -> "ScenarioSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("scenario JSON must be an object with a 'kind' field")
        seed = None if obj.get("seed") is None else config_field("scenario", obj, "seed", int)
        return ScenarioSpec(obj["kind"], config_field("scenario", obj, "params", dict, {}), seed)


def draw(spec: ScenarioSpec, n: int, stream=None) -> Sample:
    """Draw ``n`` i.i.d. observations from ``spec`` by inversion.

    Deterministic given the seed and the stream position; uses
    ``spec.seed`` when no stream is injected.  With neither, raises
    :class:`InputError` rather than draw from OS entropy, which no seed
    could reproduce.
    """
    if n < 1:
        raise InputError("need n >= 1 draws")
    if stream is None:
        if spec.seed is None:
            raise InputError("draw needs a seed: pass a stream or set spec.seed")
        stream = default_stream(spec.seed)
    u = stream.random(int(n))
    return Sample(np.sort(spec.quantile(u)))


def _load_column(path) -> np.ndarray:
    """One float64 per line of a text file, read by numpy's C loader.

    ``#`` starts a comment and blank lines are skipped; a line that is not
    one ASCII decimal raises ValueError.  The path is made absolute so
    that numpy's opener never takes it for a URL; as with ``np.loadtxt``,
    names ending in .gz, .bz2, .xz or .lzma are decompressed.
    """
    import warnings

    with warnings.catch_warnings():
        # an empty file is the caller's to report
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(str(Path(path).absolute()), dtype=float, comments="#", ndmin=2)
    if table.shape[1] != 1:
        raise ValueError(f"{table.shape[1]} numbers on a line")
    return table[:, 0]


def _bad_line_error(path, cause) -> InputError:
    """The error naming the first line of a data file that is not one
    finite, nonnegative ASCII decimal.

    Runs only after the loader or :func:`ingest` has rejected the file,
    and reads the file through the opener the loader used.  Falls back to
    ``cause`` if no line is at fault.
    """
    opener = np.lib.npyio.DataSource(".")
    try:
        with opener.open(str(Path(path).absolute()), "rt") as lines:
            for lineno, line in enumerate(lines, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                # the loader's grammar: float() without its Python-only
                # spellings (underscores, non-ASCII digits)
                try:
                    value = float(text) if text.isascii() and "_" not in text else None
                except ValueError:
                    value = None
                if value is None:
                    return InputError(f"{path}:{lineno}: not a decimal number: {text!r}")
                if not math.isfinite(value):
                    return InputError(f"{path}:{lineno}: non-finite observation: {text!r}")
                if value < 0.0:
                    return InputError(f"{path}:{lineno}: negative observation: {text!r}")
    except UnicodeDecodeError as exc:
        return InputError(f"{path}: not a text file: {exc}")
    return InputError(f"{path}: {cause}")


def read_observations(path) -> Sample:
    """Read a data file with one ASCII-decimal observation per line.

    Blank lines are ignored and ``#`` starts a comment, on a line of its
    own or after a number (``1.5  # note``).  Leading and trailing blanks
    and CRLF line ends are accepted.  A line holding anything else, such
    as two numbers or Python-only spellings like ``1_000``, and a value
    that is negative or not finite (``inf``, ``nan``, an overflow like
    ``1e400``) are reported as ``{path}:{lineno}: ...``; so is a file
    with no observation at all, as ``{path}: no observations found``.
    """
    try:
        values = _load_column(path)
    except ValueError as exc:
        raise _bad_line_error(path, exc) from None
    if values.size == 0:
        raise InputError(f"{path}: no observations found")
    try:
        return ingest(values)
    except InputError as exc:
        raise _bad_line_error(path, exc) from None


_REQUIRED = object()


def config_field(what: str, obj: dict, key: str, convert, default=_REQUIRED):
    """``convert(obj[key])``, or ``default`` as it is when ``key`` is absent.

    A missing required key, or a value that ``convert`` rejects with
    TypeError or ValueError, raises :class:`InputError` naming the field.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(f"{what} missing field {key!r}")
        return default
    try:
        return convert(obj[key])
    except (TypeError, ValueError):
        raise InputError(f"{what} field {key!r} has an invalid value: {obj[key]!r}") from None


def _real(value) -> float:
    """A number as a float; a string or a bool, which ``float`` would
    take, is a TypeError."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(value)
    return float(value)


def read_json_object(obj, what: str) -> dict:
    """A config given as a dict or as the path of a JSON file."""
    if isinstance(obj, (str, Path)):
        try:
            obj = json.loads(Path(obj).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{obj}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object")
    return obj


def read_scenario(path) -> ScenarioSpec:
    """Load a scenario spec from a JSON file ``{kind, params, seed}``."""
    return ScenarioSpec.from_json(read_json_object(path, "scenario"))
