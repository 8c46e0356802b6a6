"""Exception taxonomy shared across the package.

Two failure families matter to callers (and to the CLI exit codes):
malformed input/configuration versus a computation that cannot proceed
numerically (degenerate data, divergent integrals).
"""

import math
import sys

import numpy as np


class GrenfunError(Exception):
    """Base class for all errors raised by this package."""


class InputError(GrenfunError, ValueError):
    """Malformed data, configuration, or arguments (CLI exit code 2)."""


class NumericError(GrenfunError, ArithmeticError):
    """Well-formed input on which the computation is degenerate or
    divergent (CLI exit code 3)."""


def _finite(compute, what: str, why: str) -> float:
    """``compute()`` as a float that must be finite: the package's one
    rule for floating-point overflow.

    ``compute`` runs with numpy's floating-point warnings off, because
    its result is checked here: a value that is not finite raises
    :class:`NumericError` "<what> is <value>: <why>", the one line the
    CLI prints for it.  A result that nothing checks does not come
    through here, and keeps numpy's warnings.
    """
    with np.errstate(all="ignore"):
        value = float(compute())
    if not math.isfinite(value):
        raise NumericError(f"{what} is {value!r}: {why}")
    return value


def _significant(value: float, top: float, what: str) -> float:
    """``value``, the integral of g(f(x), x) over a density f whose top
    level is ``top``: the package's one rule for floating-point underflow.

    A result of 0 or a subnormal while ``top`` is positive has no
    significant digits left, since g of every level underflowed, and
    raises :class:`NumericError` "<what> is <value>: ...", naming the
    underflow.  Small terms that underflow beside others that do not
    leave a normal result, and pass.
    """
    if top > 0.0 and abs(value) < sys.float_info.min:
        raise NumericError(f"{what} is {value!r}: the integrand underflows at the density's "
                           f"levels, which reach {top!r}")
    return value
