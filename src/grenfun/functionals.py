"""Plug-in functionals of a step density.

One type, :class:`SmoothFunctional`, describes every target, the
integral of g(f(x), x) dx.  Its ``x_free`` case g(z, x) = h(z), a
functional of the density alone, reduces to exact finite sums over the
density pieces; only the x-dependent case needs quadrature.  That
quadrature is batched: for each of two Gauss-Legendre orders, g is
evaluated once on a (pieces x order) node matrix, and each row is
reduced by its own ``np.dot`` (never one matrix-vector product, which
sums in another order), so every piece gets the same float as when
integrated alone, provided g computes the same on arrays as on scalars
(numpy's scalar ``**`` can differ from its array ``**`` in the last
bit; ``*`` and ``+`` do not).  Only pieces whose two orders disagree
are bisected, one at a time; a g that cannot take a matrix of nodes
falls back to that one-piece path for all pieces.  A piece still
unresolved after 10 bisections raises :class:`NumericError` instead of
returning a value of unknown accuracy.

The identity between the carrier-measure average and the empirical
average of h(f(X_i)) is a structural property of the Grenander fit and
is asserted as a test invariant, not enforced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericError
from .grenander import StepDensity, evaluate
from .samples import Sample, default_stream

_VALIDATION_SEED = 0x5EED5
_REL_TOL_DERIV = 1e-4
_QUAD_REL_TOL = 1e-10
_MAX_REFINE = 10


def _apply(fn, arr):
    """Evaluate a scalar-or-vectorized callable on an array."""
    try:
        out = np.asarray(fn(arr), dtype=float)
        if out.shape == arr.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(float(z))) for z in arr])


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
    sums).  ``vanishes_at_zero`` declares g(0, x) = 0 for all x, which
    makes the tail beyond the density's support drop out; without it,
    integrals over an unbounded domain are rejected.  The derivatives
    are checked against central finite differences at 32 deterministic
    probe points in (0, z_max] on construction.
    """

    g: callable
    gdot: callable
    gddot: callable
    z_max: float = 8.0
    x_free: bool = False
    vanishes_at_zero: bool = False
    x_probe_max: float = 10.0
    name: str = None

    def __post_init__(self):
        rng = default_stream(_VALIDATION_SEED)
        hi = min(self.z_max, 8.0)
        lo = min(1e-3, hi / 10.0)
        zs = lo + (hi - lo) * rng.random(32)
        xs = self.x_probe_max * rng.random(32)
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


def _step_sum(phi, d: StepDensity, domain) -> float:
    """Exact integral of phi(f(x), x) dx over [0, T] or [0, inf) for an
    x-free phi, which is read as phi(z, 0)."""
    tail = 0.0
    at_zero = float(phi(0.0, 0.0))
    if domain is None:
        if at_zero != 0.0:
            raise NumericError(
                "divergent tail: the integrand does not vanish at density 0 "
                "on an unbounded domain; declare a compact domain [0, T]"
            )
    else:
        t_end = float(domain[1])
        if t_end < d.support_end:
            raise InputError("declared domain ends inside the density's support")
        tail = at_zero * (t_end - d.support_end)
    hv = _apply(lambda z: phi(z, 0.0), d.levels)
    return float(np.dot(hv, d.piece_widths)) + tail


def nu_plugin(G: SmoothFunctional, d: StepDensity) -> float:
    """Integral of h(f(x)) f(x) dx, h = g(., 0) of an x-free functional:
    the plug-in carrier-measure average."""
    _require_x_free(G, "nu_plugin")
    hv = _apply(lambda z: G.g(z, 0.0), d.levels)
    return float(np.dot(hv * d.levels, d.piece_widths))


def empirical_average(G: SmoothFunctional, s: Sample, d: StepDensity) -> float:
    """(1/n) sum of h(f(X_i)), h = g(., 0) of an x-free functional, with
    f the fitted density of the sample."""
    _require_x_free(G, "empirical_average")
    return float(np.mean(_apply(lambda z: G.g(z, 0.0), evaluate(d, s.values))))


def one_step_correction(G: SmoothFunctional, s: Sample, d: StepDensity) -> float:
    """Explicit first-order bias-correction term for the carrier average.

    Empirical mean of w(f(X_i)) minus the plug-in integral of w(f) f dx,
    with w(z) = h(z) + z h'(z) and h = g(., 0) of an x-free functional.
    For the Grenander fit this is identically zero, so the one-step
    estimator collapses onto the plug-in.
    """
    _require_x_free(G, "one_step_correction")

    def w(z):
        z = np.asarray(z, dtype=float)
        return _apply(lambda v: G.g(v, 0.0), z) + z * _apply(lambda v: G.gdot(v, 0.0), z)

    fitted = evaluate(d, s.values)
    plug = float(np.dot(w(d.levels) * d.levels, d.piece_widths))
    return float(np.mean(w(fitted))) - plug


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gl_integrate(fn, a, b, order):
    nodes, weights = _gl_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, _apply(fn, mid + half * nodes)))


def _converged(coarse, fine):
    return abs(fine - coarse) <= _QUAD_REL_TOL * np.maximum(1.0, abs(fine))


def _integrate_piece(fn, a, b, order, depth=0):
    """Adaptive Gauss-Legendre on [a, b]: accept when two successive
    orders agree to 1e-10 relative, else bisect, at most 10 levels deep.

    Returns the integral and the summed |fine - coarse| of the
    sub-pieces that reached the depth cap without agreeing (0.0 when
    every sub-piece agreed)."""
    coarse = _gl_integrate(fn, a, b, order)
    fine = _gl_integrate(fn, a, b, 2 * order)
    if _converged(coarse, fine):
        return fine, 0.0
    if depth >= _MAX_REFINE:
        return fine, abs(fine - coarse)
    mid = 0.5 * (a + b)
    left, left_err = _integrate_piece(fn, a, mid, order, depth + 1)
    right, right_err = _integrate_piece(fn, mid, b, order, depth + 1)
    return left + right, left_err + right_err


def _gl_rows(g, levels, a, b, order):
    """One Gauss-Legendre pass over every piece at once: row i holds the
    nodes of [a[i], b[i]] and g is evaluated at (levels[i], node).  Each
    row is reduced by its own ``np.dot``, the arithmetic of
    :func:`_gl_integrate`.  None when g does not broadcast over a node
    matrix with a column of levels."""
    nodes, weights = _gl_nodes(order)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * nodes
    try:
        vals = np.asarray(g(levels[:, None], x), dtype=float)
    except (TypeError, ValueError):
        return None
    if vals.shape != x.shape:
        return None
    return half * np.fromiter(map(weights.dot, vals), float, len(vals))


def tau_plugin(G: SmoothFunctional, d: StepDensity, domain=None, order: int = 16) -> float:
    """Integral of g(f(x), x) dx for a step density f.

    Gauss-Legendre quadrature per piece (the integrand is smooth in x on
    each piece), at ``order`` and ``2 * order`` nodes, batched: g is
    evaluated once per order on a (pieces x order) node matrix, each row
    reduced by its own ``np.dot`` and the pieces summed left to right, so
    the result is the same float as a loop over the pieces (see the
    module docstring for the proviso on g).  A piece
    whose two orders disagree beyond 1e-10 relative is bisected
    adaptively, at most 10 levels deep; a piece still unresolved there
    raises :class:`NumericError` naming it.  A g that does not broadcast
    over a 2-D x with a column of z values (a scalar-only callable)
    takes the same quadrature one piece at a time.

    An x-free g needs no quadrature: the integral is the exact step sum
    of g(f, 0) against the piece widths.  Without a compact ``domain``
    [0, T], g(0, 0) = 0 is required there (otherwise the tail beyond the
    support diverges); with one, the tail contributes g(0, 0) (T - t_k).
    """
    if G.x_free:
        return _step_sum(G.g, d, domain)
    if domain is None and not G.vanishes_at_zero:
        raise NumericError(
            "divergent tail: g(0, .) not declared zero on an unbounded domain; "
            "declare a compact domain [0, T]"
        )
    if domain is not None and float(domain[1]) < d.support_end:
        raise InputError("declared domain ends inside the density's support")
    edges = np.concatenate(([0.0], d.breakpoints))
    tail = None
    if domain is not None and float(domain[1]) > d.support_end and not G.vanishes_at_zero:
        tail = (d.support_end, float(domain[1]))
    return _quadrature(G.g, d.levels, edges[:-1], edges[1:], order, tail)


def _quadrature(g, levels, a, b, order: int, tail=None) -> float:
    """The quadrature of :func:`tau_plugin`: the sum over pieces i, left to
    right, of the integral of g(levels[i], x) dx on [a[i], b[i]], plus
    that of g(0, x) dx on the ``tail`` interval if one is given."""
    coarse = _gl_rows(g, levels, a, b, order)
    fine = None if coarse is None else _gl_rows(g, levels, a, b, 2 * order)
    if fine is None:
        fine = np.empty(levels.size)
        redo = range(levels.size)
    else:
        redo = np.flatnonzero(~_converged(coarse, fine))
    unresolved = []  # (error, where) of each piece left at the depth cap
    for i in redo:
        v = levels[i]
        fine[i], err = _integrate_piece(lambda x, v=v: g(v, x), a[i], b[i], order)
        if err:
            unresolved.append((err, f"piece {i} on [{float(a[i])!r}, {float(b[i])!r}]"))
    total = 0.0
    for value in fine.tolist():
        total += value
    if tail is not None:
        value, err = _integrate_piece(lambda x: g(0.0, x), tail[0], tail[1], order)
        if err:
            unresolved.append((err, f"the tail on [{tail[0]!r}, {tail[1]!r}]"))
        total += value
    if unresolved:
        err, where = max(unresolved, key=lambda item: item[0])
        raise NumericError(
            f"quadrature unresolved on {len(unresolved)} piece(s) after "
            f"{_MAX_REFINE} bisections; the worst, {where}, has error {err:.3g} "
            f"between orders, above the relative tolerance {_QUAD_REL_TOL:g}"
        )
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
        gdot=lambda z, x: 2.0 * np.asarray(x, dtype=float) * z,
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
