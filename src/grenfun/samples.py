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


def default_stream(seed):
    """Seeded random source used everywhere in the package.

    Built on PCG64, whose output stream for a given seed is frozen across
    numpy releases; only ``random``, ``standard_normal`` and ``spawn``
    (numpy >= 1.25) are used, so the same seed reproduces the same draws
    bit for bit.  Streams are never shared across threads; derive one per
    worker instead.
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
        if np.any(vals[1:] < vals[:-1]):
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
    replace the origin with ``(0, j/n)``.  A sample with no ties and no
    zero, as every continuous draw is, takes a shortcut: its points are
    the origin and every observation, at heights ``arange(n + 1) / n``,
    the same floats as the pooled path gives.
    """
    # values are sorted: a run of equal values ends where the next differs
    v = s.values
    distinct = v[1:] != v[:-1]
    if v[0] > 0.0 and distinct.all():
        xs = np.empty(s.n + 1)
        xs[0] = 0.0
        xs[1:] = v
        ys = np.arange(s.n + 1, dtype=float)
        ys /= s.n
        return xs, ys
    ends = np.flatnonzero(np.append(distinct, True))
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
    #: the truth's StepDensity, built and checked once; None for the exponential
    _density: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        from .grenander import StepDensity

        if self.kind == "exponential":
            self._accept_params("rate")
            if not config_field("scenario params", self.params, "rate", _real, 0.0) > 0.0:
                raise InputError("exponential scenario needs rate > 0")
            density = None
        elif self.kind == "uniform":
            self._accept_params("upper")
            upper = config_field("scenario params", self.params, "upper", _real, 0.0)
            if not upper > 0.0:
                raise InputError("uniform scenario needs upper > 0")
            if math.isinf(1.0 / upper):
                raise InputError(f"uniform scenario field 'upper' is too small: {upper!r}, "
                                 "whose density 1/upper overflows")
            density = StepDensity([upper], [1.0 / upper])
        elif self.kind == "piecewise_constant":
            self._accept_params("breakpoints", "levels")
            # a value numpy cannot read is reported by its field name
            density = StepDensity(*(config_field("scenario params", self.params, key,
                                                 lambda v: np.asarray(v, dtype=float))
                                    for key in ("breakpoints", "levels")))
            if abs(density.mass - 1.0) > 1e-12:
                raise InputError(f"piecewise density mass {density.mass!r} differs from 1 "
                                 "by more than 1e-12")
        elif self.kind == "paper_pwa":
            self._accept_params()
            density = StepDensity([PWA_KINK, 1.0], [SQRT2 + 1.0, SQRT2 - 1.0])
        else:
            raise InputError(f"unknown scenario kind {self.kind!r}; valid kinds: "
                             "exponential, uniform, piecewise_constant, paper_pwa")
        object.__setattr__(self, "_density", density)

    def _accept_params(self, *keys):
        """Refuse a param outside ``keys``, the params of this kind."""
        for key in self.params:
            if key not in keys:
                raise InputError(f"unknown {self.kind} scenario param {key!r}; valid params: "
                                 + (", ".join(keys) or "none"))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def exponential(rate: float = 1.0) -> "ScenarioSpec":
        return ScenarioSpec("exponential", {"rate": float(rate)})

    @staticmethod
    def uniform(upper: float = 1.0) -> "ScenarioSpec":
        return ScenarioSpec("uniform", {"upper": float(upper)})

    @staticmethod
    def piecewise(breakpoints, levels) -> "ScenarioSpec":
        return ScenarioSpec(
            "piecewise_constant",
            {"breakpoints": [float(t) for t in breakpoints],
             "levels": [float(v) for v in levels]},
        )

    @staticmethod
    def paper_pwa() -> "ScenarioSpec":
        return ScenarioSpec("paper_pwa", {})

    # -- distribution functions -----------------------------------------

    @property
    def is_strictly_concave(self) -> bool:
        return self._density is None

    def cdf(self, x):
        if self._density is not None:
            return self._density.cdf(x)
        x = np.asarray(x, dtype=float)
        out = -np.expm1(-self.params["rate"] * np.maximum(x, 0.0))
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Inverse CDF, defined on [0, 1)."""
        if self._density is not None:
            return self._density.quantile(u)
        out = -np.log1p(-np.asarray(u, dtype=float)) / self.params["rate"]
        return out if out.ndim else float(out)

    def density(self, x):
        if self._density is not None:
            from .grenander import evaluate

            return evaluate(self._density, x)
        rate = self.params["rate"]
        out = rate * np.exp(-rate * np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def true_density(self):
        """The scenario's :class:`grenfun.grenander.StepDensity` (None for
        the exponential)."""
        return self._density

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @staticmethod
    def from_json(obj: dict) -> "ScenarioSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("scenario JSON must be an object with a 'kind' field")
        if "seed" in obj:  # refused: ignored, it would change the draws without a word
            raise InputError("a scenario has no 'seed': set the config's top-level 'seed' instead")
        return ScenarioSpec(obj["kind"], config_field("scenario", obj, "params", dict, {}))


def draw(spec: ScenarioSpec, n: int, stream) -> Sample:
    """Draw ``n`` i.i.d. observations from ``spec`` by inversion of the
    required ``stream`` (:func:`default_stream`), so the draws are a
    function of its seed and position."""
    if n < 1:
        raise InputError("need n >= 1 draws")
    values = spec.quantile(stream.random(int(n)))
    values.sort()
    return Sample(values)


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
    """A finite number as a float; a string or a bool, which ``float``
    would take, is a TypeError, and an infinity or a NaN a ValueError."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(value)
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _integer(value) -> int:
    """An integral number as an int (JSON 1e3 is 1000); a string, a bool
    or a non-integral number is a TypeError or ValueError."""
    if isinstance(value, (str, bytes, bool)):
        raise TypeError(value)
    if isinstance(value, int):
        return value
    number = float(value)
    if not number.is_integer():
        raise ValueError(value)
    return int(number)


def _seed(value) -> int:
    """A seed: an integral number >= 0, which numpy's generators need."""
    seed = _integer(value)
    if seed < 0:
        raise ValueError(value)
    return seed


def _positive(value) -> int:
    """A count: an integral number >= 1."""
    count = _integer(value)
    if count < 1:
        raise ValueError(value)
    return count


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
