"""Definition-based oracles, implemented independently of the package's
algorithms so they can arbitrate correctness.

The hull oracle decides vertex membership by checking every chord, which
is the definition of the upper concave envelope; the row-hull reference
hulls one row and one interval at a time; the isotonic oracle is a
plain pool-adjacent-violators pass over weighted block means; the data
file oracle parses one line at a time with Python's ``float``.
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


def hull_rows_by_row(values, grid, ia, ib):
    """Replace values[:, ia:ib+1] with each row's upper concave hull, one
    row at a time: vertices by the unpruned scan, hull values by
    ``np.interp``, never below the input.  In place."""
    seg_grid = grid[ia:ib + 1]
    for row in values:
        seg = row[ia:ib + 1]
        idx = stack_scan_hull_indices(seg_grid, seg)
        if len(idx) < seg_grid.size:
            row[ia:ib + 1] = np.maximum(seg, np.interp(seg_grid, seg_grid[idx], seg[idx]))


def brute_force_hull_values(xs, ys):
    """Upper concave envelope evaluated at every input point."""
    idx = brute_force_hull_indices(xs, ys)
    return np.interp(xs, np.asarray(xs)[idx], np.asarray(ys)[idx])


def pava_antitonic(y, w):
    """Weighted least-squares antitonic (nonincreasing) regression by
    pool-adjacent-violators.  Returns the fitted values."""
    blocks = []  # [mean, weight, count]
    for yi, wi in zip(y, w):
        blocks.append([float(yi), float(wi), 1])
        while len(blocks) > 1 and blocks[-2][0] <= blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            tot = w1 + w2
            blocks.append([(m1 * w1 + m2 * w2) / tot, tot, c1 + c2])
    out = np.empty(len(y))
    pos = 0
    for mean, _, count in blocks:
        out[pos:pos + count] = mean
        pos += count
    return out


def grenander_levels_by_pava(sample_values):
    """Grenander fitted values at each sorted observation, via antitonic
    regression of the raw histogram slopes with spacing weights."""
    x = np.asarray(sample_values, dtype=float)
    n = x.size
    spacings = np.diff(x, prepend=0.0)
    raw = (1.0 / n) / spacings
    return pava_antitonic(raw, spacings)


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
