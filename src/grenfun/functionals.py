"""Plug-in functionals of a step density.

One type, :class:`SmoothFunctional`, describes every target, the
integral of g(f(x), x) dx.  Its ``x_free`` case g(z, x) = h(z), a
functional of the density alone, reduces to exact finite sums over the
density pieces; only the x-dependent case needs quadrature.  Both go
through one step-density integral (:func:`_step_integral`), which the
plug-in value, the truths and the efficient variance share.  Every
integral runs over [0, inf), with :func:`_require_vanishing` its tail rule.

The quadrature is adaptive Gauss-Legendre, batched: for each of two
orders, g is evaluated once on a (pieces x order) node matrix, and all
rows are reduced by one stacked product of 1 x order rows by the
order x 1 weights, on a C-contiguous matrix.  numpy takes each such
1 x 1 product by its vector dot, the ``ddot`` that ``np.dot`` of one row
calls, so a row sums exactly as it would alone.  A matrix-vector
product (``vals @ weights``, a ``gemv``) or ``einsum`` sums in another
order and changes the last bits of some rows, so neither may replace
it.  Pieces whose two orders disagree are halved, all of them in one
batch per round, and the halves summed back up left plus right, so
every piece gets the same float as when integrated alone, provided g
computes the same on arrays as on scalars (numpy's scalar ``**`` can
differ from its array ``**`` in the last bit; ``*`` and ``+`` do
not).  Every evaluation of g on arrays goes
through :func:`_evaluate`, which calls a g that takes only scalars (one
written with ``math``, say) once per element.  A piece still unresolved
after 10 bisections raises :class:`NumericError` instead of returning a
value of unknown accuracy.

The identity between the carrier-measure average and the empirical
average of h(f(X_i)) is a structural property of the Grenander fit and
is asserted as a test invariant, not enforced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError, _finite, _significant
from .grenander import StepDensity
from .samples import default_stream

_VALIDATION_SEED = 0x5EED5
_REL_TOL_DERIV = 1e-4
_QUAD_REL_TOL = 1e-10
#: Gauss-Legendre orders of the step-density quadrature: this and twice it
_QUAD_ORDER = 16
_MAX_REFINE = 10
#: validation probes x lie in [0, _X_PROBE_MAX)
_X_PROBE_MAX = 10.0


def _evaluate(fn, z, x):
    """fn(z, x) as floats in the broadcast shape of z and x: one call on
    the arrays, or, when that raises TypeError or ValueError or returns
    another shape, one call per element on Python floats."""
    shape = np.broadcast_shapes(np.shape(z), np.shape(x))
    try:
        out = np.asarray(fn(z, x), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    zs, xs = (np.broadcast_to(v, shape).ravel().tolist() for v in (z, x))
    return np.array([float(fn(a, b)) for a, b in zip(zs, xs)]).reshape(shape)


def _check_derivative(fn, claimed, z, x, what):
    """Compare a claimed z-derivative of fn(z, x) against a central
    difference in z at the point (z, x) > 0, with a step relative to z."""
    step = 6e-6 * z
    est = (float(fn(z + step, x)) - float(fn(z - step, x))) / (2.0 * step)
    given = float(claimed(z, x))
    if abs(est - given) > _REL_TOL_DERIV * max(1.0, abs(est), abs(given)):
        raise InputError(
            f"{what} disagrees with finite differences at (z={z!r}, x={x!r}): "
            f"claimed {given!r}, estimated {est!r}"
        )


@dataclass(frozen=True)
class SmoothFunctional:
    """A smooth integrand g(z, x) with its z-derivatives.

    ``x_free`` declares that g ignores x entirely, so that g(z, x) = h(z)
    is a functional of the density alone (integrals then reduce to exact
    sums).  Integrals run over [0, inf), so g(0, x) = 0 must hold past the
    density's support: an x-free g is checked at 0, and only an
    x-dependent g needs ``vanishes_at_zero`` to declare it.  The
    derivatives are checked against central finite differences at 32
    deterministic probe points in (0, z_max] on construction.
    """

    g: callable
    gdot: callable
    gddot: callable
    z_max: float = 8.0
    x_free: bool = False
    vanishes_at_zero: bool = False
    name: str = None

    def __post_init__(self):
        rng = default_stream(_VALIDATION_SEED)
        hi = min(self.z_max, 8.0)
        lo = min(1e-3, hi / 10.0)
        zs = lo + (hi - lo) * rng.random(32)
        xs = _X_PROBE_MAX * rng.random(32)
        for z, x in zip(zs, xs):
            _check_derivative(self.g, self.gdot, z, x, "gdot")
            _check_derivative(self.gdot, self.gddot, z, x, "gddot")
        if self.vanishes_at_zero:
            for x in xs[:4]:
                if float(self.g(0.0, x)) != 0.0:
                    raise InputError(f"vanishes_at_zero declared but g(0, {x!r}) != 0")


def _require_x_free(G: SmoothFunctional, what: str) -> None:
    if not G.x_free:
        raise InputError(f"{what} needs a functional of the density alone (x_free)")


_DIVERGENT = ("divergent tail: g(0, .) is not 0 (x-free) or not declared to vanish "
              "(vanishes_at_zero) past the density's support")


def _g_at_zero(G: SmoothFunctional, what: str) -> float:
    """g(0, 0) as a finite float, with numpy's warnings off.  A value that
    is not finite, or a ValueError or ArithmeticError raised by g there
    (``math.log(0.0)``, say), raises :class:`NumericError` "<what>: g(0, 0)
    ..." naming it."""
    try:
        with np.errstate(all="ignore"):
            value = float(G.g(0.0, 0.0))
    except (ValueError, ArithmeticError) as exc:
        raise NumericError(f"{what}: g(0, 0) raises {type(exc).__name__}: {exc}") from None
    if not math.isfinite(value):
        raise NumericError(f"{what}: g(0, 0) is {value!r}")
    return value


def _require_vanishing(G: SmoothFunctional) -> None:
    """The one tail rule: g(0, .) = 0, checked at 0 when x-free
    (:func:`_g_at_zero`) and declared otherwise, or the integral over
    [0, inf) diverges (:class:`NumericError`)."""
    if G.x_free:
        value = _g_at_zero(G, _DIVERGENT)
        if value != 0.0:
            raise NumericError(f"{_DIVERGENT}: g(0, 0) is {value!r}")
    elif not G.vanishes_at_zero:
        raise NumericError(_DIVERGENT)


def _step_integral(phi, d: StepDensity, x_free: bool) -> float:
    """Integral of phi(f(x), x) dx for the step density f = ``d`` over its
    support, which is the integral over [0, inf) when phi(0, .) = 0.

    An x-free phi, read as phi(z, 0), needs no quadrature: the integral is
    the exact step sum of phi(f, 0) against the piece widths.  Otherwise
    it is the :func:`_quadrature` of phi over the pieces at
    ``_QUAD_ORDER`` and twice as many nodes.  A result that is not finite
    raises :class:`NumericError`."""
    def integral():
        if x_free:
            return float(np.dot(_evaluate(phi, d.levels, 0.0), d.piece_widths))
        edges = np.concatenate(([0.0], d.breakpoints))
        return _quadrature(phi, d.levels, edges[:-1], edges[1:], _QUAD_ORDER)

    return _finite(integral, "the integral", "the integrand overflows at the density's "
                   f"levels, which reach {float(d.levels[0])!r}")


def tau_plugin(G: SmoothFunctional, d: StepDensity) -> float:
    """Integral of g(f(x), x) dx over [0, inf) for a step density f.

    An x-free g is integrated exactly, as a step sum of g(f, 0) against
    the piece widths.  Otherwise g is integrated per piece (it is smooth
    in x there) by the adaptive Gauss-Legendre of :func:`_quadrature`:
    one evaluation of g per order and bisection round over all pieces,
    each piece reduced on its own and the pieces summed left to right,
    so the result is the same float as a loop over the pieces (see the
    module docstring for the proviso on g).  A piece still unresolved
    after 10 bisections raises :class:`NumericError` naming it.

    g(0, .) must vanish (:func:`_require_vanishing`).  A result that
    underflows to 0 or a subnormal raises :class:`NumericError`
    (:func:`grenfun.errors._significant`).
    """
    _require_vanishing(G)
    return _significant(_step_integral(G.g, d, G.x_free), float(d.levels[0]),
                        "the plug-in estimate")


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gl_rows(g, levels, a, b, order):
    """One Gauss-Legendre pass over every piece at once: row i holds the
    nodes of [a[i], b[i]] and g is evaluated at (levels[i], node) by
    :func:`_evaluate`: one call on the whole node matrix with a column of
    levels, or one call per node when g takes only scalars.  The rows are
    reduced at once, as a stack of 1 x order by order x 1 products on a
    C-contiguous copy of the values: numpy takes each by the vector dot
    of ``np.dot``, so a row gives the float of ``np.dot(weights, row)``
    and a piece gets it whichever batch it is in.  ``vals @ weights``
    would not: a matrix-vector product sums in blocks of rows and
    columns of its own."""
    nodes, weights = _gl_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * nodes
    vals = np.ascontiguousarray(_evaluate(g, levels[:, None], x))
    return half * np.matmul(vals[:, None, :], weights[:, None])[:, 0, 0]


def _converged(coarse, fine):
    return abs(fine - coarse) <= _QUAD_REL_TOL * np.maximum(1.0, abs(fine))


def _quadrature(g, levels, a, b, order: int) -> float:
    """Sum over pieces i, left to right, of the integral of g(levels[i], x)
    dx on [a[i], b[i]].

    Adaptive Gauss-Legendre: a piece is accepted when ``order`` and
    ``2 * order`` nodes agree to 1e-10 relative.  Each round halves every
    piece that is not, and makes one :func:`_gl_rows` pass per order over
    all the halves; after the last round the halves are summed back up,
    deepest first, left half plus right half, the arithmetic of a
    bisection that recurses one piece at a time.  A piece still
    unresolved after 10 rounds raises :class:`NumericError` naming it;
    so does, at once, a piece whose integral in any round is not finite,
    since bisecting cannot resolve an integrand that overflows.
    Callers run it through :func:`grenfun.errors._finite`, since an
    integrand that overflows makes arithmetic on inf that numpy warns of."""
    z, lo, hi = levels, a, b  # the rows of the current round
    origin = np.arange(z.size)  # the piece each row is a part of

    def where(i):
        return f"piece {i} on [{float(a[i])!r}, {float(b[i])!r}]"

    rounds = []  # (values, rows halved) of each round before the last
    for depth in range(_MAX_REFINE + 1):
        coarse = _gl_rows(g, z, lo, hi, order)
        fine = _gl_rows(g, z, lo, hi, 2 * order)
        bad = ~(np.isfinite(coarse) & np.isfinite(fine))
        if bad.any():
            row = int(np.argmax(bad))
            value = fine[row] if not np.isfinite(fine[row]) else coarse[row]
            raise NumericError(f"the integral on {where(int(origin[row]))} is {float(value)!r}: "
                               "the integrand overflows there")
        redo = np.flatnonzero(~_converged(coarse, fine))
        if redo.size == 0 or depth == _MAX_REFINE:
            break
        rounds.append((fine, redo))
        mid = 0.5 * (lo[redo] + hi[redo])
        lo = np.column_stack((lo[redo], mid)).ravel()
        hi = np.column_stack((mid, hi[redo])).ravel()
        z, origin = np.repeat(z[redo], 2), np.repeat(origin[redo], 2)
    if redo.size:
        errors = {}  # summed |fine - coarse| of each unresolved piece
        for i, err in zip(origin[redo].tolist(), abs(fine - coarse)[redo].tolist()):
            errors[i] = errors.get(i, 0.0) + err
        i, err = max(errors.items(), key=lambda item: item[1])
        raise NumericError(
            f"quadrature unresolved on {len(errors)} piece(s) after "
            f"{_MAX_REFINE} bisections; the worst, {where(i)}, has error {err:.3g} "
            f"between orders, above the relative tolerance {_QUAD_REL_TOL:g}"
        )
    for parent, halved in reversed(rounds):
        parent[halved] = fine[0::2] + fine[1::2]
        fine = parent
    total = 0.0
    for value in fine.tolist():
        total += value
    return float(total)


# -- built-in named functionals ------------------------------------------

def _power(p: int) -> SmoothFunctional:
    def deriv(k):
        coeff = 1.0
        for j in range(k):
            coeff *= (p - j)
        expo = p - k
        if expo < 0 or coeff == 0.0:
            return lambda z, x: 0.0 * np.asarray(z, dtype=float)
        return lambda z, x: coeff * np.asarray(z, dtype=float) ** expo

    return SmoothFunctional(
        g=deriv(0), gdot=deriv(1), gddot=deriv(2), z_max=1e9,
        x_free=True, vanishes_at_zero=True, name=f"power:{p}",
    )


def _xz2() -> SmoothFunctional:
    return SmoothFunctional(
        g=lambda z, x: np.asarray(x, dtype=float) * z * z,
        gdot=lambda z, x: 2.0 * (np.asarray(x, dtype=float) * z),
        gddot=lambda z, x: 2.0 * np.asarray(x, dtype=float),
        z_max=1e9,
        vanishes_at_zero=True,
        name="xz2",
    )


_BUILTIN_NAMES = ("power:p (integer p >= 1)", "xz2", "identity")


@lru_cache(maxsize=None)
def by_name(name: str):
    """Look up a built-in functional: ``power:p``, ``xz2``, ``identity``."""
    if name == "identity":
        return _power(1)
    if name == "xz2":
        return _xz2()
    if name.startswith("power:"):
        try:
            p = int(name.split(":", 1)[1])
        except ValueError:
            p = 0
        if p >= 1:
            return _power(p)
    raise InputError(
        f"unknown functional {name!r}; valid names: " + ", ".join(_BUILTIN_NAMES)
    )
