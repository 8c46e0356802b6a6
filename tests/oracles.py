"""Definition-based oracles, implemented independently of the package's
algorithms so they can arbitrate correctness.

The hull oracle decides vertex membership by checking every chord, which
is the definition of the upper concave envelope; the row-hull reference
hulls one row and one interval at a time, and the chord fill turns the
kernel's vertex indices into hull values; the isotonic oracle is a
plain pool-adjacent-violators pass over weighted block means; the data
file oracle parses one line at a time with Python's ``float``; the
quadrature oracle integrates one Grenander piece at a time.
"""

from pathlib import Path

import numpy as np


def brute_force_hull_indices(xs, ys):
    """Canonical upper-hull vertex indices by exhaustive chord domination.

    Point i is a vertex iff it lies strictly above every chord spanned by
    points j < i < k (cross-multiplied, no division).  Endpoints are
    always vertices.  O(n^3) comparisons, vectorized per point.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.size
    if n == 1:
        return [0]
    keep = [0]
    for i in range(1, n - 1):
        xj = xs[:i, None]
        yj = ys[:i, None]
        xk = xs[None, i + 1:]
        yk = ys[None, i + 1:]
        chord_ok = ys[i] * (xk - xj) <= yj * (xk - xs[i]) + yk * (xs[i] - xj)
        if not bool(np.any(chord_ok)):
            keep.append(i)
    keep.append(n - 1)
    return keep


def stack_scan_hull_indices(xs, ys):
    """Canonical upper-hull vertex indices by a plain monotone-chain scan
    over every point (no pruning), with the package's cross-product test.
    xs must be strictly increasing.  O(n) amortized, pure Python."""
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    stack = []
    for i in range(len(xs)):
        while len(stack) >= 2:
            j1, j2 = stack[-2], stack[-1]
            if (ys[j2] - ys[j1]) * (xs[i] - xs[j2]) <= (ys[i] - ys[j2]) * (xs[j2] - xs[j1]):
                stack.pop()
            else:
                break
        stack.append(i)
    return stack


def hull_rows_by_row(values, grid, fixed):
    """Replace each row of ``values`` with its upper concave hull over
    every run of ``grid`` between fixed columns, one row and one run at a
    time: vertices by the unpruned scan, hull values by ``np.interp``,
    never below the input.  In place; returns the flat indices into
    ``values.reshape(-1)`` of every row's vertices, in increasing order."""
    ends = np.flatnonzero(fixed)
    vertices = []
    for r, row in enumerate(values):
        base = r * grid.size
        vertices.append(base + ends[0])
        for ia, ib in zip(ends[:-1], ends[1:]):
            seg_grid = grid[ia:ib + 1]
            seg = row[ia:ib + 1]
            idx = stack_scan_hull_indices(seg_grid, seg)
            vertices.extend(base + ia + i for i in idx[1:])
            if len(idx) < seg_grid.size:
                row[ia:ib + 1] = np.maximum(seg, np.interp(seg_grid, seg_grid[idx], seg[idx]))
    return np.array(vertices, dtype=np.intp)


def fill_chords(values, xs, vertices):
    """Raise every point of the C-contiguous rows ``values`` (abscissae
    ``xs``) that is not among the flat ``vertices`` to the chord of the
    vertices on either side, in place.  The chord is np.interp's
    arithmetic, slope * (x - x_k) + y_k from the left vertex k; every row
    must start and end with a vertex.  The reference for the hull values
    that the kernel's vertices define."""
    flat = values.reshape(-1)
    x = np.tile(xs, values.shape[0])
    vx = x[vertices]
    vy = flat[vertices]
    slope = np.empty(vertices.size)
    np.divide(vy[1:] - vy[:-1], vx[1:] - vx[:-1], out=slope[:-1])
    slope[-1] = 0.0
    vertex = np.zeros(flat.size, dtype=bool)
    vertex[vertices] = True
    k = np.cumsum(vertex)
    k -= 1
    chord = slope[k] * (x - vx[k]) + vy[k]
    np.maximum(flat, chord, out=flat, where=~vertex)


def brute_force_hull_values(xs, ys):
    """Upper concave envelope evaluated at every input point."""
    idx = brute_force_hull_indices(xs, ys)
    return np.interp(xs, np.asarray(xs)[idx], np.asarray(ys)[idx])


def pava_antitonic(mass, w):
    """Weighted least-squares antitonic (nonincreasing) regression of the
    ratios mass/w with weights w, by pool-adjacent-violators.  A block's
    fitted value is its total mass over its total weight, so no ratio is
    ever multiplied back by its weight.  Returns the fitted values."""
    blocks = []  # [mass, weight, count]
    for mi, wi in zip(mass, w):
        blocks.append([float(mi), float(wi), 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] <= blocks[-1][0] / blocks[-1][1]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            blocks.append([m1 + m2, w1 + w2, c1 + c2])
    out = np.empty(len(w))
    pos = 0
    for total, weight, count in blocks:
        out[pos:pos + count] = total / weight
        pos += count
    return out


def grenander_levels_by_pava(sample_values):
    """Grenander fitted values at each sorted observation, via antitonic
    regression of the raw histogram slopes (mass 1/n per observation
    over its spacing) with spacing weights.

    Tied observations form one block carrying their count; observations
    at exactly 0 carry no width and join the first positive block, so
    they get the first level.  Needs one positive observation."""
    x = np.asarray(sample_values, dtype=float)
    n = x.size
    distinct, counts = np.unique(x, return_counts=True)
    if distinct[0] == 0.0:
        counts[1] += counts[0]
        distinct, counts = distinct[1:], counts[1:]
    fitted = pava_antitonic(counts / n, np.diff(distinct, prepend=0.0))
    return fitted[np.searchsorted(distinct, x)]


def read_observations_by_line(path):
    """Sorted observations of a data file, parsed one line at a time:
    strip each line, skip blank lines and lines starting with '#', and
    ``float`` the rest.  Raises ValueError naming the first line that
    ``float`` rejects."""
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a decimal number: {text!r}") from None
    return np.sort(np.array(values, dtype=float))


def tau_plugin_by_piece(G, d, domain=None, order=16):
    """Integral of g(f(x), x) dx for a step density f, one piece at a
    time: adaptive Gauss-Legendre on each piece, accepted when orders
    ``order`` and ``2 * order`` agree to 1e-10 relative, else bisected
    at most 10 levels deep (returning the finer value there), the pieces
    summed left to right, plus the g(0, .) tail over a compact domain
    unless g vanishes at 0."""
    rules = {k: np.polynomial.legendre.leggauss(k) for k in (order, 2 * order)}

    def gl(fn, a, b, k):
        nodes, weights = rules[k]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid + half * nodes
        try:
            vals = np.asarray(fn(x), dtype=float)
            if vals.shape != x.shape:
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([float(fn(float(t))) for t in x])
        return half * float(np.dot(weights, vals))

    def piece(fn, a, b, depth=0):
        coarse = gl(fn, a, b, order)
        fine = gl(fn, a, b, 2 * order)
        if abs(fine - coarse) <= 1e-10 * max(1.0, abs(fine)) or depth >= 10:
            return fine
        mid = 0.5 * (a + b)
        return piece(fn, a, mid, depth + 1) + piece(fn, mid, b, depth + 1)

    edges = np.concatenate(([0.0], d.breakpoints))
    total = 0.0
    for i, v in enumerate(d.levels):
        total += piece(lambda x, v=v: G.g(v, x), edges[i], edges[i + 1])
    if domain is not None and domain[1] > d.support_end and not G.vanishes_at_zero:
        total += piece(lambda x: G.g(0.0, x), d.support_end, float(domain[1]))
    return float(total)
