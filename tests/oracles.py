"""Definition-based oracles, implemented independently of the package's
algorithms so they can arbitrate correctness.

The hull oracle decides vertex membership by checking every chord, which
is the definition of the upper concave envelope, on points whose ties
:func:`pool_ties` has pooled; the row-hull reference hulls one row and
one interval at a time, and the chord fill turns the kernel's vertex
indices into hull values; the limit-law oracles draw the
limit variable on a grid, by the definition of the LCM derivative, and
by the linear breakpoint formula, and draw grid-hull areas through the
cycle law of a random permutation; the isotonic oracle is a
plain pool-adjacent-violators pass over weighted block means; the data
file oracle parses one line at a time with Python's ``float``, and so
does the reader of limit-law CSVs; the quadrature oracle integrates one
Grenander piece at a time.  The scenario helpers give the support end
and the affine pieces of a truth, which only the tests ask for;
``unchecked_density`` builds a step density that skips the checks, for
perturbations that break them; the truths by name, the carrier-measure
averages, the one-step correction and the scenario-file reader are
helpers that only the tests call; and ``EDGE_FLOATS`` are the values
that pin the bytes of the CSV writers.
"""

import json
import math
from pathlib import Path

import numpy as np


def brute_force_hull_indices(xs, ys):
    """Canonical upper-hull vertex indices by exhaustive chord domination.

    Point i is a vertex iff it lies strictly above every chord spanned by
    points j < i < k (cross-multiplied, no division).  Endpoints are
    always vertices.  O(n^3) comparisons, vectorized per point.

    Exact when every difference, product and sum in the test is a float
    without rounding, as for dyadic coordinates of a few bits (the
    ``dyadic`` point sets of the tests).  On other floats each of them
    rounds, so a point within rounding of a chord can be misjudged: on
    the ECDF of [0, 1 + 2^-52, 2, 3], anchored at the origin, it drops
    the true vertex (2, 0.75), which the hull kernel keeps.  There, and
    on near-collinear ECDFs in general, compare the kernel with
    :func:`stack_scan_hull_indices`, which shares its arithmetic.
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


def pool_ties(xs, ys):
    """The distinct xs, by ``np.unique``, each with the largest of its ys:
    the points the hull kernel takes."""
    xs_u, inverse = np.unique(xs, return_inverse=True)
    ys_u = np.full(xs_u.size, -np.inf)
    np.maximum.at(ys_u, inverse, ys)
    return xs_u, ys_u


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


def walk_bridge(u, draws, rng):
    """Rows of Brownian-bridge values at the points u (u[0] = 0,
    u[-1] = 1): a Gaussian walk with step variances diff(u), less u times
    its last value."""
    u = np.asarray(u, dtype=float)
    w = np.cumsum(rng.standard_normal((draws, u.size - 1)) * np.sqrt(np.diff(u)), axis=1)
    out = np.zeros((draws, u.size))
    out[:, 1:] = w - np.outer(w[:, -1], u[1:])
    return out


def affine_piece_mask(spec, grid):
    """The grid columns a per-piece hull keeps: the ends of every affine
    piece of a piecewise-affine truth, and every column past the last."""
    edges = np.concatenate(([0.0], spec.true_density().breakpoints))
    ends = np.searchsorted(grid, edges)
    if np.any(ends >= grid.size) or np.any(grid[np.minimum(ends, grid.size - 1)] != edges):
        raise ValueError("the grid must hold 0 and every breakpoint of the truth")
    fixed = np.zeros(grid.size, dtype=bool)
    fixed[ends] = True
    fixed[ends[-1]:] = True
    return fixed


def grid_lcm_derivative(spec, grid, paths):
    """Rows of ``paths`` (values on ``grid``, which holds every breakpoint
    of the piecewise-affine truth ``spec``) through the LCM derivative:
    each row replaced by its concave majorant over each affine piece,
    one row and one piece at a time (:func:`hull_rows_by_row`)."""
    hat = np.array(paths, dtype=float, ndmin=2)
    hull_rows_by_row(hat, grid, affine_piece_mask(spec, grid))
    return hat


def psi_jumps(G, d):
    """Jumps of psi(x) = gdot(f(x), x) at the breakpoints of the step
    density ``d`` (f = 0 past the last)."""
    right = np.append(d.levels[1:], 0.0)
    return np.array([float(G.gdot(r, t)) - float(G.gdot(v, t))
                     for t, v, r in zip(d.breakpoints, d.levels, right)])


def grid_y_samples(G, spec, grid_size, draws, rng):
    """The limit variable drawn on a grid, under a piecewise-affine truth:
    bridge values on the uniform grid of the support merged with the
    breakpoints, each row through :func:`grid_lcm_derivative`, and minus
    the trapezoid sum of the hulled row against the increments of
    psi(x) = gdot(f(x), x) within each piece, less the row's values at
    the breakpoints times the jumps of psi there.  Its law is the
    limit's but for a mean bias of order grid_size^(-1/2)."""
    d = spec.true_density()
    grid = np.union1d(np.linspace(0.0, d.support_end, grid_size + 1), d.breakpoints)
    paths = walk_bridge(np.minimum(spec.cdf(grid), 1.0), draws, rng)
    hat = grid_lcm_derivative(spec, grid, paths)
    # the level of a cell is the density at its right end
    level = np.array([d.levels[min(i, d.levels.size - 1)]
                      for i in np.searchsorted(d.breakpoints, grid[1:])])
    dpsi = np.array([float(G.gdot(z, b)) - float(G.gdot(z, a))
                     for z, a, b in zip(level, grid[:-1], grid[1:])])
    cont = ((hat[:, :-1] + hat[:, 1:]) / 2.0) @ dpsi
    jumps = paths[:, np.searchsorted(grid, d.breakpoints)] @ psi_jumps(G, d)
    return -(cont + jumps)


def linear_y_samples(G, spec, draws, rng):
    """Draws of the limit variable for an x-free functional under a
    piecewise-affine truth, by the linear breakpoint formula: minus the
    sum over breakpoints t of B(F(t)) times the jump of h'(f) there,
    h = g(., 0)."""
    if not G.x_free:
        raise ValueError("the linear formula needs a functional of the density alone (x_free)")
    d = spec.true_density()
    u = np.concatenate(([0.0], np.minimum(spec.cdf(d.breakpoints), 1.0)))
    u[-1] = 1.0
    return -(walk_bridge(u, draws, rng)[:, 1:] @ psi_jumps(G, d))


def cycle_law_hull_areas(steps, draws, rng):
    """Areas under the concave majorant of a Gaussian walk bridge of
    ``steps`` steps on [0, 1] (step variance 1/steps), drawn through the
    law of its faces (Abramson & Pitman 2011): their lengths are the
    cycle lengths of a uniform random permutation of ``steps``, each
    cycle a uniform share of the steps left (Feller's coupling); each
    face rises by the walk's increment over as many fresh steps less its
    share of the total; the faces are laid by decreasing slope."""
    areas = np.empty(draws)
    for r in range(draws):
        lengths = []
        left = steps
        while left:
            lengths.append(int(rng.integers(1, left + 1)))
            left -= lengths[-1]
        width = np.array(lengths) / steps
        rise = rng.standard_normal(width.size) * np.sqrt(width)
        rise -= width * rise.sum()
        order = np.argsort(-rise / width)
        width, rise = width[order], rise[order]
        top = np.cumsum(rise)
        areas[r] = float(np.sum(width * (top - rise / 2.0)))
    return areas


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


def tau_plugin_by_piece(G, d, order=16):
    """Integral of g(f(x), x) dx for a step density f, one piece at a
    time: adaptive Gauss-Legendre on each piece, accepted when orders
    ``order`` and ``2 * order`` agree to 1e-10 relative, else bisected
    at most 10 levels deep (returning the finer value there), the pieces
    summed left to right."""
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
    return float(total)


def support_end(spec):
    """Right end of the support of the scenario ``spec`` (inf for an
    exponential truth)."""
    return math.inf if spec.is_strictly_concave else spec.true_density().support_end


def affine_intervals(spec):
    """Closed intervals on which the CDF of the piecewise truth ``spec``
    is affine: one per piece of its density."""
    edges = np.concatenate(([0.0], spec.true_density().breakpoints))
    return [(float(edges[i]), float(edges[i + 1])) for i in range(edges.size - 1)]


def unchecked_density(breakpoints, levels):
    """A :class:`StepDensity` on ``breakpoints`` and ``levels`` built
    without its checks, so it may have equal levels or a mass off 1."""
    # imported here: perfbench/checks.py loads this module where grenfun
    # is not importable
    from grenfun import StepDensity

    d = object.__new__(StepDensity)
    object.__setattr__(d, "breakpoints", np.asarray(breakpoints, dtype=float))
    object.__setattr__(d, "levels", np.asarray(levels, dtype=float))
    return d


def load_y_csv(path):
    """The draws of a limit-law CSV in file order, and its metadata: the
    JSON after the ``#`` of the first line, then ``float`` of each later
    line."""
    header, *rows = Path(path).read_text().splitlines()
    if not header.startswith("#"):
        raise ValueError(f"{path}: missing JSON metadata header line")
    return np.array([float(row) for row in rows], dtype=float), json.loads(header[1:])



# The helpers below compute through grenfun and import it when called:
# perfbench/checks.py loads this module where grenfun is not importable.

def true_tau(spec, functional_name):
    """Value of the named functional at the scenario truth."""
    from grenfun.functionals import by_name
    from grenfun.inference import _truth

    return _truth(spec, by_name(functional_name))[0]


def true_sigma_eff(spec, functional_name):
    """Efficient variance Var(gdot(f(X), X)) of the named functional at
    the scenario truth."""
    from grenfun.functionals import by_name
    from grenfun.inference import _truth

    return _truth(spec, by_name(functional_name))[1]


def nu_plugin(G, d):
    """Integral of h(f(x)) f(x) dx, h = g(., 0) of an x-free functional:
    the plug-in carrier-measure average."""
    from grenfun.functionals import _evaluate, _require_x_free

    _require_x_free(G, "nu_plugin")
    hv = _evaluate(G.g, d.levels, 0.0)
    return float(np.dot(hv * d.levels, d.piece_widths))


def empirical_average(G, s, d):
    """(1/n) sum of h(f(X_i)), h = g(., 0) of an x-free functional, with
    f the fitted density of the sample."""
    from grenfun import evaluate
    from grenfun.functionals import _evaluate, _require_x_free

    _require_x_free(G, "empirical_average")
    return float(np.mean(_evaluate(G.g, evaluate(d, s.values), 0.0)))


def one_step_correction(G, s, d):
    """Explicit first-order bias-correction term for the carrier average.

    Empirical mean of w(f(X_i)) minus the plug-in integral of w(f) f dx,
    with w(z) = h(z) + z h'(z) and h = g(., 0) of an x-free functional.
    For the Grenander fit this is identically zero, so the one-step
    estimator collapses onto the plug-in.
    """
    from grenfun import evaluate
    from grenfun.functionals import _evaluate, _require_x_free

    _require_x_free(G, "one_step_correction")

    def w(z):
        return _evaluate(G.g, z, 0.0) + z * _evaluate(G.gdot, z, 0.0)

    fitted = evaluate(d, s.values)
    plug = float(np.dot(w(d.levels) * d.levels, d.piece_widths))
    return float(np.mean(w(fitted))) - plug


def read_scenario(path):
    """Load a scenario spec from a JSON file ``{kind, params}``."""
    from grenfun import ScenarioSpec
    from grenfun.samples import read_json_object

    return ScenarioSpec.from_json(read_json_object(path, "scenario"))

#: signed zeros, the least subnormal and normal, both sides of repr's
#: switch to exponent form (1e-05, 1e16), a repeating binary fraction,
#: and a large negative value
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.0001, 0.1, 1.0 / 3.0,
               1e16, -1.5e300]
