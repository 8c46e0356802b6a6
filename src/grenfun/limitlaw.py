"""Sampling the limiting random variable of the plug-in estimator.

The limit of sqrt(n) (tau_hat - tau) is Y = integral of psi dh, with
psi(x) = gdot(f(x), x) and h the directional derivative of the least
concave majorant at F applied to a Brownian bridge B: h = B(F) where F
is strictly concave, and on each affine piece of a piecewise-affine F
the concave majorant of B(F) over that piece, its end values kept.
Since h vanishes at both ends this is minus the Stieltjes integral of h
against dpsi, the jumps of psi included.  Both regimes are drawn
exactly, with no grid.

*Normal regime* (:func:`_limit_is_normal`: an x-free g, or a strictly
concave truth).  There Y is linear in B, so Y ~ N(0, sigma^2_eff) with
sigma^2_eff = Var psi(X) computed as the truths are
(:func:`grenfun.inference._true_variance`): one normal per draw.

*Hull regime* (a piecewise-affine truth and an x-dependent g).  The
bridge is drawn at the truth's breakpoints u_k = F(t_k) alone.  Given
those values, the bridge on piece k (length du_k in u) is the chord plus
sqrt(du_k) times an independent standard bridge, so h there is the chord
plus sqrt(du_k) times the concave majorant C_k of that bridge on [0, 1].
C_k is drawn by uniform stick-breaking (Pitman & Uribe Bravo 2012,
Ann. Probab. 40; the discrete analogue is Abramson & Pitman 2011,
Combin. Probab. Comput. 20): sticks L_i = U_i (1 - U_1)...(1 - U_(i-1))
for i <= STICKS = 48, plus the remainder R = 1 - sum L_i as one more
stick; on each, the bridge increment d_i = xi_i - L_i sum(xi) with
xi_i ~ N(0, L_i) independent; the faces of C_k are these sticks laid in
decreasing order of slope d_i / L_i.  With infinitely many sticks this
is the law of the majorant exactly; the remainder stands in for all the
sticks after the 48th as one face.  The bridge values, the stick
uniforms and the face normals each come from a stream of their own (the
last two spawned from the caller's), every one read row after row, so
the draws do not depend on how many rows a batch holds.

By parts, with s the position along a piece and Psi_k(s) the mean of
psi over the first s of piece k (so Psi_k(1) is its mean over the whole
piece),

    Y = sum_k [ (B(u_k) - B(u_(k-1))) Psi_k(1)
                + sqrt(du_k) sum_i sigma_i (Psi_k(s_i) - Psi_k(s_(i-1))) ],

where face i of C_k ends at s_i and has slope sigma_i.  Psi_k is read
from one table per piece, built once per call: the integral of psi over
each cell of a uniform cut of the piece by :func:`_gl_rows` at two
orders, and the table read by cubic Hermite interpolation, which also
takes psi itself at the cell ends (Psi' = psi).  That is exact when psi
is affine on each piece, as for ``xz2``.  A table is accepted when its
two orders agree, and its Hermite value at each cell's midpoint agrees
with the integral to there, both to 1e-10; cells are doubled until they
do, and a table that still does not converge raises
:class:`NumericError`.

``tail_bound`` bounds what the remainder leaves out.  Replacing the
faces inside the remainder by their chord moves C_k by at most the sum
of |d'_j - L'_j d_R| over them, whose mean given R is at most
2 sqrt(2/pi) sqrt(R) (the d'_j - L'_j d_R are the increments of a
bridge over R on the sticks L'_j of a further uniform stick-breaking,
and the mean of sum sqrt(L'_j) is 2); by parts again, a move of C_k by
at most c moves Y by at most sqrt(du_k) c TV_k(psi).  ``tail_bound`` is
the largest over the draws of sum_k 2 sqrt(2/pi) sqrt(du_k R_k)
TV_k(psi), TV_k taken on the table's nodes: a bound on the mean error
of a draw given its remainders.  R is about e^-48 for a typical draw.
It is 0 in the normal regime.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericError
from .functionals import SmoothFunctional, _converged, _evaluate, _gl_rows
from .inference import _true_variance
from .samples import ScenarioSpec, default_stream

#: sticks drawn for each concave majorant before its remainder
STICKS = 48
#: cells of a piece's psi table before any doubling
_TABLE_CELLS = 16
#: times a piece's table cells may be doubled
_TABLE_DOUBLINGS = 8
#: Gauss-Legendre orders of the table's cell integrals: this and twice it
_TABLE_ORDER = 16
#: faces (draws x pieces x (STICKS + 1)) laid out per batch of draws, so
#: an array of a batch is at most 128 KiB.  That alone does not keep its
#: memory: under glibc's default thresholds a batch's frees leave the heap
#: top past the trim threshold, which gives it back to the OS for the
#: next batch to fault in again (about 6 000 faults in 2000 paper_pwa
#: draws).  The command line's allocator setting keeps it mapped
#: (grenfun.harness._keep_freed_memory).
_BATCH_FACES = 1 << 14
#: draws turned into text per write of a limit-law CSV, so the text held
#: at once stays a few MB whatever the number of draws
_CSV_BLOCK = 1 << 16


def _limit_is_normal(G: SmoothFunctional, spec: ScenarioSpec) -> bool:
    """Whether the limit is N(0, sigma^2_eff): for an x-free functional,
    and for any functional when the truth is strictly concave."""
    return G.x_free or spec.is_strictly_concave


def _bridge_values(u: np.ndarray, draws: int, stream) -> np.ndarray:
    """Rows of bridge values on the grid u (u[0] = 0); pinned to 0 at
    u = 1 exactly when the grid ends at 1."""
    w = np.cumsum(stream.standard_normal((draws, u.size - 1)) * np.sqrt(np.diff(u)), axis=1)
    out = np.empty((draws, u.size))
    out[:, 0] = 0.0
    out[:, 1:] = w - np.outer(w[:, -1], u[1:])
    return out


class _PsiTable(NamedTuple):
    """Hermite tables of Psi_k(s), the mean of psi = gdot(f, .) over the
    first s of piece k, for every piece of a step density."""

    #: the cubic coefficients, in t in [0, 1] within its cell, of every
    #: cell of every piece: shape (4, cells of all pieces)
    coef: np.ndarray
    #: piece k's first cell in ``coef``
    first: np.ndarray
    #: piece k's cell count
    cells: np.ndarray
    #: the total variation of psi on piece k, over its table's nodes
    tv: np.ndarray


def _psi_table(G: SmoothFunctional, d) -> _PsiTable:
    """The :class:`_PsiTable` of psi = gdot(f, .) for the step density
    ``d``.  A piece's cell count doubles until its table converges (see
    the module docstring); past ``_TABLE_DOUBLINGS`` doublings this
    raises :class:`NumericError` naming the piece."""
    edges = np.concatenate(([0.0], d.breakpoints))
    coefs, cells, tv = [], [], []
    for k, (a, b, z) in enumerate(zip(edges[:-1], edges[1:], d.levels)):
        for doubling in range(_TABLE_DOUBLINGS + 1):
            m = _TABLE_CELLS << doubling
            x = a + (b - a) * (np.arange(m + 1) / m)
            lo, hi, level = x[:-1], x[1:], np.full(m, z)
            # the increments of Psi_k over each cell, at two orders, and
            # over its left half
            coarse = _gl_rows(G.gdot, level, lo, hi, _TABLE_ORDER) / (b - a)
            fine = _gl_rows(G.gdot, level, lo, hi, 2 * _TABLE_ORDER) / (b - a)
            half = _gl_rows(G.gdot, level, lo, 0.5 * (lo + hi), 2 * _TABLE_ORDER) / (b - a)
            psi = _evaluate(G.gdot, z, x)
            slope = psi / m  # dPsi_k/dt, t the position within a cell
            mid = 0.5 * fine + (slope[:-1] - slope[1:]) / 8.0
            if np.all(_converged(coarse, fine) & _converged(mid, half)):
                break
        else:
            raise NumericError(
                f"psi table of piece {k} on [{float(a)!r}, {float(b)!r}] unresolved with "
                f"{m} cells: Gauss-Legendre orders or the Hermite midpoint disagree beyond "
                f"the relative tolerance 1e-10")
        start = np.concatenate(([0.0], np.cumsum(fine[:-1])))
        coefs.append((start, slope[:-1], 3.0 * fine - 2.0 * slope[:-1] - slope[1:],
                      slope[:-1] + slope[1:] - 2.0 * fine))
        cells.append(m)
        tv.append(float(np.sum(np.abs(np.diff(psi)))))
    cells = np.array(cells)
    first = np.concatenate(([0], np.cumsum(cells[:-1])))
    return _PsiTable(np.hstack([np.array(c) for c in coefs]), first, cells, np.array(tv))


def _cells(table: _PsiTable, s: np.ndarray):
    """For positions ``s`` of shape (..., pieces, faces) in [0, 1], piece k
    along the second-to-last axis: the table cell of each (a flat index
    into the coefficients), the position t in [0, 1] within it, and the
    cell's four cubic coefficients."""
    t = s * table.cells[:, None]
    j = np.minimum(t.astype(np.intp), table.cells[:, None] - 1)
    t -= j
    j += table.first[:, None]
    return j, t, [np.take(c, j) for c in table.coef]


def _psi_at(table: _PsiTable, s: np.ndarray) -> np.ndarray:
    """Psi_k(s), positions laid out as for :func:`_cells`."""
    _, t, (c0, c1, c2, c3) = _cells(table, s)
    return c0 + t * (c1 + t * (c2 + t * c3))


def _face_means(table: _PsiTable, ends: np.ndarray, widths: np.ndarray):
    """The mean of psi over each face of piece k, faces laid end to end
    along the last axis from s = 0, face i ending at ``ends[..., i]``
    with width ``widths[..., i]``; and Psi_k at the last end.

    A face within one table cell takes the divided difference of the
    cell's cubic, which keeps its digits for a face too short for its
    ends to be told apart near s = 1 (a stick of 1e-17, say); a face
    across cells takes the increment of Psi_k over its width."""
    j, t, (c0, c1, c2, c3) = _cells(table, ends)
    psi = c0 + t * (c1 + t * (c2 + t * c3))
    t0 = np.zeros_like(t)
    t0[..., 1:] = t[..., :-1]
    across = np.empty(j.shape, dtype=bool)
    np.not_equal(j[..., 1:], j[..., :-1], out=across[..., 1:])
    np.not_equal(j[..., 0], table.first, out=across[..., 0])
    both = t0 + t
    means = c1 + c2 * both + c3 * (t0 * both + t * t)
    means *= table.cells[:, None]
    rise = np.empty_like(psi)  # of Psi_k over each face, from Psi_k(0) = 0
    rise[..., 0] = psi[..., 0]
    np.subtract(psi[..., 1:], psi[..., :-1], out=rise[..., 1:])
    np.divide(rise, widths, out=means, where=across)
    return means, psi[..., -1]


def _majorant_sums(table: _PsiTable, rows: int, uniforms, normals):
    """For each of ``rows`` draws and each piece, the sum over the faces
    of an independent standard bridge's concave majorant, drawn by
    stick-breaking, of slope times the increment of Psi_k over the face,
    which is its rise times the mean of psi over it; and the remainder
    stick of each.  Both have shape (rows, pieces).  The stick uniforms
    are read from the stream ``uniforms``, the face normals from
    ``normals``."""
    pieces = table.cells.size
    u = uniforms.random((rows, pieces, STICKS))
    z = normals.standard_normal((rows, pieces, STICKS + 1))
    sticks = np.empty_like(z)
    rest = np.cumprod(1.0 - u, axis=2)
    sticks[..., 0] = u[..., 0]
    np.multiply(u[..., 1:], rest[..., :-1], out=sticks[..., 1:-1])
    sticks[..., -1] = rest[..., -1]
    xi = np.sqrt(sticks) * z
    # faces by decreasing slope: d_i / L_i = xi_i / L_i - sum(xi), the
    # last term the same for every face of a row; a stick of length 0
    # (U = 0, probability 2^-53) gets a finite slope, and adds no width
    # and no rise wherever it falls
    order = np.argsort(z / np.sqrt(np.maximum(sticks, np.finfo(float).tiny)), axis=2)[..., ::-1]
    # one flat index into the C-ordered (rows, pieces, STICKS + 1) arrays
    # serves both gathers
    flat = order + (STICKS + 1) * np.arange(rows * pieces).reshape(rows, pieces, 1)
    widths = sticks.take(flat)
    means, psi_end = _face_means(table, np.cumsum(widths, axis=2), widths)
    sums = np.einsum("rpi,rpi->rp", xi.take(flat), means)
    return sums - xi.sum(axis=2) * psi_end, sticks[..., -1]


def _hull_draws(G: SmoothFunctional, spec: ScenarioSpec, draws: int, stream):
    """Draws of the limit under a piecewise-affine truth by stick-breaking
    (see the module docstring), and their ``tail_bound``."""
    d = spec.true_density()
    u = np.concatenate(([0.0], np.asarray(spec.cdf(d.breakpoints), dtype=float)))
    root_du = np.sqrt(np.diff(u))
    table = _psi_table(G, d)
    whole = _psi_at(table, np.ones((root_du.size, 1)))[:, 0]  # Psi_k(1)
    remainder_cost = 2.0 * math.sqrt(2.0 / math.pi) * root_du * table.tv
    ys = np.empty(draws)
    tail_bound = 0.0
    uniforms, normals = stream.spawn(2)
    batch = max(1, _BATCH_FACES // (root_du.size * (STICKS + 1)))
    for done in range(0, draws, batch):
        rows = min(batch, draws - done)
        bridge = _bridge_values(u, rows, stream)
        sums, remainder = _majorant_sums(table, rows, uniforms, normals)
        ys[done:done + rows] = (np.diff(bridge, axis=1) * whole + sums * root_du).sum(axis=1)
        tail_bound = max(tail_bound, float(np.max(np.sqrt(remainder) @ remainder_cost)))
    return ys, tail_bound


def draw_y_samples(G: SmoothFunctional, spec: ScenarioSpec, draws: int, stream):
    """Exact draws of the limit variable, with no grid (see the module
    docstring).

    Returns ``(ys, info)``.  info names the method (``normal`` or
    ``stick_breaking``), the sticks per majorant (0 for ``normal``) and
    the ``tail_bound`` of what the remainder stick leaves out (0 for
    ``normal``).
    """
    if draws < 1:
        raise InputError("need at least one draw")
    if _limit_is_normal(G, spec):
        ys = math.sqrt(_true_variance(spec, G)) * stream.standard_normal(draws)
        method, sticks, tail_bound = "normal", 0, 0.0
    else:
        ys, tail_bound = _hull_draws(G, spec, draws, stream)
        method, sticks = "stick_breaking", STICKS
    info = {
        "model": spec.to_json(),
        "functional": G.name,
        "method": method,
        "sticks": sticks,
        "tail_bound": tail_bound,
        "draws": int(draws),
    }
    return ys, info


def emit_y_csv(path, ys: np.ndarray, info: dict) -> None:
    """Write samples as a single-column CSV headed by a JSON metadata line.

    Each draw is written as Python's shortest round-trip ``repr`` of the
    float, so the file reads back bit for bit."""
    ys = np.asarray(ys, dtype=float)
    with open(path, "w") as out:
        out.write("# " + json.dumps(info, sort_keys=True) + "\n")
        for start in range(0, ys.size, _CSV_BLOCK):
            out.write("\n".join(map(repr, ys[start:start + _CSV_BLOCK].tolist())) + "\n")


def _seeded_y_samples(G: SmoothFunctional, spec: ScenarioSpec, draws: int, seed: int,
                      path=None):
    """:func:`draw_y_samples` from ``seed``, which joins the info, written by
    :func:`emit_y_csv` to ``path`` (its directory made) unless that is None."""
    ys, info = draw_y_samples(G, spec, draws, default_stream(seed))
    info["seed"] = int(seed)
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        emit_y_csv(path, ys, info)
    return ys, info
