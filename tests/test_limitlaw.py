import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grenfun
from grenfun import (
    NumericError,
    ScenarioSpec,
    SmoothFunctional,
    by_name,
    default_stream,
    draw_y_samples,
    ks_distance,
)
from grenfun import limitlaw
from grenfun.limitlaw import (STICKS, _bridge_values, _face_means, _majorant_sums, _psi_at,
                              _psi_table, emit_y_csv)

from oracles import (EDGE_FLOATS, affine_intervals, brute_force_hull_indices,
                     cycle_law_hull_areas, grid_lcm_derivative, grid_y_samples,
                     linear_y_samples, load_y_csv, true_sigma_eff)

Z2 = by_name("power:2")
XZ2 = by_name("xz2")
PWA = ScenarioSpec.paper_pwa()
EXP = ScenarioSpec.exponential(1.0)
UNIF = ScenarioSpec.uniform(1.0)
THREE = ScenarioSpec.piecewise([0.5, 1.0, 2.0], [1.0, 0.6, 0.2])
# psi = 2 x^2 f(x) is not affine in x within a piece
X2Z2 = SmoothFunctional(g=lambda z, x: x * x * z * z, gdot=lambda z, x: 2.0 * x * x * z,
                        gddot=lambda z, x: 2.0 * x * x + 0.0 * z, vanishes_at_zero=True,
                        name="x2z2")
#: mean of the area under the concave majorant of a standard Brownian
#: bridge on [0, 1]
MEAN_MAJORANT_AREA = math.sqrt(2.0 * math.pi) / 6.0


def var_with_se(ys):
    """Sample variance and its empirical standard error."""
    v = float(np.var(ys, ddof=1))
    centered = ys - np.mean(ys)
    return v, math.sqrt((float(np.mean(centered ** 4)) - v * v) / ys.size)


def mean_with_se(ys):
    return float(np.mean(ys)), float(np.std(ys, ddof=1)) / math.sqrt(ys.size)


class TestBridgePath:
    def test_pinned_exactly(self):
        grid = np.linspace(0.0, 1.0, 257)
        vals = _bridge_values(grid, 5, default_stream(0))
        assert np.all(vals[:, 0] == 0.0)
        assert np.all(vals[:, -1] == 0.0)

    def test_variance_at_half(self):
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        vals = _bridge_values(grid, 100_000, default_stream(10))
        assert float(np.var(vals[:, 2])) == pytest.approx(0.25, abs=0.005)

    def test_covariance_quarters(self):
        grid = np.array([0.0, 0.25, 0.75, 1.0])
        vals = _bridge_values(grid, 100_000, default_stream(11))
        cov = float(np.mean(vals[:, 1] * vals[:, 2]))
        assert cov == pytest.approx(0.0625, abs=0.005)

    def test_in_place_values_match_direct_formula(self):
        # the formula before the in-place rewrite, kept as the reference
        def direct(u, draws, stream):
            incr = stream.standard_normal((draws, u.size - 1)) * np.sqrt(np.diff(u))
            w = np.cumsum(incr, axis=1)
            out = np.empty((draws, u.size))
            out[:, 0] = 0.0
            out[:, 1:] = w - np.outer(w[:, -1], u[1:])
            return out

        for u, draws, seed in ((np.linspace(0.0, 1.0, 1001), 300, 20),
                               (np.linspace(0.0, 0.9, 77), 1000, 21),
                               (np.array([0.0, 1.0]), 5, 22)):
            got = _bridge_values(u, draws, default_stream(seed))
            assert np.array_equal(got, direct(u, draws, default_stream(seed)))


class TestHadamardDerivative:
    """The LCM derivative that the limit variable applies to the bridge.
    Under a strictly concave truth it is the identity, so the limit is
    exactly normal; on a grid it is the per-piece hull of the grid
    oracle, which the discrete-law test below ties to the stick-breaking
    majorant."""

    def test_strictly_concave_identity_bit_exact(self):
        # the derivative is the identity, or psi is constant on each
        # piece: Y = sigma_eff Z, one normal per draw, bit for bit
        for spec, name in ((EXP, "xz2"), (EXP, "power:2"), (PWA, "power:2"), (THREE, "power:3")):
            ys, info = draw_y_samples(by_name(name), spec, 5001, default_stream(8))
            sigma = math.sqrt(true_sigma_eff(spec, name))
            assert ys.tobytes() == (sigma * default_stream(8).standard_normal(5001)).tobytes()
            assert info["method"] == "normal" and info["tail_bound"] == 0.0

    def test_single_interval_affine_unchanged(self):
        grid = np.arange(33) / 32.0
        out = grid_lcm_derivative(UNIF, grid, 2.0 * grid)
        assert np.array_equal(out[0], 2.0 * grid)

    def test_values_past_the_last_interval_stay_fixed(self):
        # the grid runs past the uniform truth's support [0, 1]
        grid = np.arange(65) / 32.0
        values = np.sin(5.0 * grid)  # not concave past 1: a hull would move it
        out = grid_lcm_derivative(UNIF, grid, values)[0]
        inside = grid_lcm_derivative(UNIF, grid[:33], values[:33])[0]
        assert out[:33].tobytes() == inside.tobytes()
        assert np.array_equal(out[33:], values[33:])

    def test_misaligned_grid_rejected(self):
        grid = np.linspace(0.0, 1.0, 100)  # does not contain the kink
        with pytest.raises(ValueError, match="breakpoint"):
            grid_lcm_derivative(PWA, grid, np.zeros(100))

    def test_per_interval_hulls_match_oracle(self):
        grid = np.union1d(np.linspace(0.0, 1.0, 201), PWA.true_density().breakpoints)
        paths = _bridge_values(PWA.cdf(grid), 20, default_stream(42))
        out = grid_lcm_derivative(PWA, grid, paths)
        for vals, hulled in zip(paths, out):
            expected = vals.copy()
            for a, b in affine_intervals(PWA):
                ia = int(np.searchsorted(grid, a))
                ib = int(np.searchsorted(grid, b))
                idx = brute_force_hull_indices(grid[ia:ib + 1], vals[ia:ib + 1])
                seg = np.interp(grid[ia:ib + 1], grid[ia:ib + 1][idx],
                                vals[ia:ib + 1][idx])
                expected[ia:ib + 1] = np.maximum(vals[ia:ib + 1], seg)
            assert np.array_equal(hulled, expected)

    def test_majorizes_input_with_endpoint_equality(self):
        grid = np.union1d(np.linspace(0.0, 1.0, 301), PWA.true_density().breakpoints)
        paths = _bridge_values(PWA.cdf(grid), 10, default_stream(9))
        out = grid_lcm_derivative(PWA, grid, paths)
        assert np.all(out >= paths)
        for a, b in affine_intervals(PWA):
            for endpoint in (a, b):
                i = int(np.searchsorted(grid, endpoint))
                assert np.array_equal(out[:, i], paths[:, i])


class TestPsiTable:
    """Psi_k(s), the mean of psi = gdot(f, .) over the first s of piece k,
    read from its Hermite table."""

    @staticmethod
    def _closed_form(d, s, power):
        # psi = 2 x^power f_k on piece k = [a, b]: the mean over [a, a + s (b - a)]
        edges = np.concatenate(([0.0], d.breakpoints))
        a, b = edges[:-1, None], edges[1:, None]
        x = a + s * (b - a)
        return 2.0 * d.levels[:, None] * (x ** (power + 1) - a ** (power + 1)) / (
            (power + 1) * (b - a))

    @pytest.mark.parametrize("spec", [PWA, THREE, UNIF], ids=["paper_pwa", "three", "uniform"])
    def test_exact_for_affine_psi(self, spec):
        d = spec.true_density()
        table = _psi_table(XZ2, d)
        assert np.all(table.cells == 16)  # accepted without refinement
        s = np.sort(default_stream(1).random((d.levels.size, 300)), axis=1)
        s[:, -1] = 1.0
        np.testing.assert_allclose(_psi_at(table, s), self._closed_form(d, s, 1),
                                   rtol=1e-13, atol=1e-15)

    def test_converges_for_a_curved_psi(self):
        d = THREE.true_density()
        table = _psi_table(X2Z2, d)
        s = default_stream(2).random((d.levels.size, 300))
        np.testing.assert_allclose(_psi_at(table, s), self._closed_form(d, s, 2),
                                   rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(table.tv, [2.0 * v * (b * b - a * a) for a, b, v in
                                              zip([0.0, 0.5, 1.0], [0.5, 1.0, 2.0], d.levels)])

    def test_unresolved_table_is_numeric_error(self):
        # psi jumps inside the first piece of paper_pwa: no cell count
        # resolves the cell that holds the jump
        def weight(x):
            return np.where(np.asarray(x) < 0.1, 1.0, 2.0)

        step = SmoothFunctional(g=lambda z, x: z * z * weight(x),
                                gdot=lambda z, x: 2.0 * z * weight(x),
                                gddot=lambda z, x: 2.0 * weight(x) + 0.0 * z,
                                vanishes_at_zero=True, name="step")
        with pytest.raises(NumericError, match="piece 0"):
            draw_y_samples(step, PWA, 10, default_stream(0))


#: Gauss-Legendre nodes and weights on [0, 1], exact for psi of degree
#: up to 15 within a piece
GL_S, GL_W = np.polynomial.legendre.leggauss(8)
GL_S, GL_W = (GL_S + 1.0) / 2.0, GL_W / 2.0


def face_by_face(G, spec, rows, uniforms, normals):
    """The stick-breaking sums of ``_majorant_sums``, drawn from the same
    streams one row and one piece at a time: the faces built as sticks
    and bridge increments, laid by decreasing slope, and each face's rise
    times the mean of psi over it (Gauss-Legendre on the face, exact for
    the polynomial psi of ``xz2`` and ``x2z2``).  Returns the sums and
    the sums of the terms' absolute values, each (rows, pieces)."""
    d = spec.true_density()
    edges = np.concatenate(([0.0], d.breakpoints))
    pieces = d.levels.size
    u = uniforms.random((rows, pieces, STICKS))
    z = normals.standard_normal((rows, pieces, STICKS + 1))
    sums = np.empty((rows, pieces))
    scale = np.empty((rows, pieces))
    for r in range(rows):
        for k in range(pieces):
            lengths, rest = [], 1.0
            for v in u[r, k]:
                lengths.append(v * rest)
                rest *= 1.0 - v
            lengths = np.array(lengths + [rest])
            xi = np.sqrt(lengths) * z[r, k]
            rise = xi - lengths * xi.sum()
            order = np.argsort(-rise / lengths)
            ends = np.concatenate(([0.0], np.cumsum(lengths[order])))
            terms = []
            for i, face in enumerate(order):
                s = ends[i] + (ends[i + 1] - ends[i]) * GL_S
                x = edges[k] + s * (edges[k + 1] - edges[k])
                terms.append(rise[face] * float(GL_W @ G.gdot(d.levels[k], x)))
            sums[r, k] = math.fsum(terms)
            scale[r, k] = math.fsum(abs(t) for t in terms)
    return sums, scale


def per_row_draws(G, spec, rows, stream):
    """Draws of the limit one row at a time from ``stream``, its stick and
    face streams spawned as :func:`draw_y_samples` spawns them: the chord
    term sum_k (B(u_k) - B(u_(k-1))) Psi_k(1) plus sqrt(du_k) times the
    face-by-face sums.  Returns the draws and the sums of their terms'
    absolute values."""
    d = spec.true_density()
    edges = np.concatenate(([0.0], d.breakpoints))
    u = np.concatenate(([0.0], spec.cdf(d.breakpoints)))
    uniforms, normals = stream.spawn(2)
    bridge = _bridge_values(u, rows, stream)
    sums, face_scale = face_by_face(G, spec, rows, uniforms, normals)
    whole = np.array([float(GL_W @ G.gdot(z, a + GL_S * (b - a)))
                      for a, b, z in zip(edges[:-1], edges[1:], d.levels)])
    root_du = np.sqrt(np.diff(u))
    chords = np.diff(bridge, axis=1) * whole
    return ((chords + sums * root_du).sum(axis=1),
            (np.abs(chords) + face_scale * root_du).sum(axis=1))


class TestStickBreaking:
    @pytest.mark.parametrize("spec", [PWA, THREE], ids=["paper_pwa", "three"])
    def test_sums_match_a_face_by_face_integral(self, spec):
        table = _psi_table(XZ2, spec.true_density())
        sums, remainder = _majorant_sums(table, 40, default_stream(5), default_stream(6))
        expected, _ = face_by_face(XZ2, spec, 40, default_stream(5), default_stream(6))
        np.testing.assert_allclose(sums, expected, rtol=0.0, atol=1e-14)
        assert np.all((remainder > 0.0) & (remainder < 1e-6))

    def test_draws_sum_chords_and_faces(self, monkeypatch):
        # with every majorant flat (no faces), a draw is the chord term
        # alone: sum_k (B(u_k) - B(u_(k-1))) Psi_k(1)
        monkeypatch.setattr(limitlaw, "_majorant_sums",
                            lambda table, rows, *streams: (np.zeros((rows, table.cells.size)),
                                                           np.zeros((rows, table.cells.size))))
        ys, info = draw_y_samples(XZ2, PWA, 7, default_stream(6))
        d = PWA.true_density()
        u = np.concatenate(([0.0], PWA.cdf(d.breakpoints)))
        bridge = _bridge_values(u, 7, default_stream(6))
        means = [2.0 * d.levels[0] * 0.5 * d.breakpoints[0],
                 2.0 * d.levels[1] * 0.5 * (d.breakpoints[0] + d.breakpoints[1])]
        np.testing.assert_allclose(ys, np.diff(bridge, axis=1) @ means, rtol=1e-13)
        assert info["tail_bound"] == 0.0


class TestPlanRowHulls:
    """The plan of a hull-regime draw: one psi table per piece, and every
    row's majorants drawn and summed on their faces, many rows to a batch.
    Every row must come out as its own majorants summed face by face, and
    the batched sum by parts on the faces must keep its digits."""

    @pytest.mark.parametrize("spec", [PWA, THREE], ids=["paper_pwa", "three"])
    @pytest.mark.parametrize("seed,rows", [(50, 400), (1000, 70), (3000, 25)])
    def test_apply_matches_per_row_reference(self, spec, seed, rows):
        # 400 rows cross the batch edges (167 rows to a batch of two
        # pieces, 111 of three)
        ys, _ = draw_y_samples(XZ2, spec, rows, default_stream(seed + rows))
        expected, scale = per_row_draws(XZ2, spec, rows, default_stream(seed + rows))
        assert np.all(np.abs(ys - expected) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           spec=st.sampled_from([PWA, THREE]),
           G=st.sampled_from([XZ2, X2Z2]),
           rows=st.integers(1, 12),
           rows_per_batch=st.integers(1, 4),
           slack=st.floats(0.0, 0.99))
    def test_vertex_sum_matches_filled_trapezoid(self, seed, spec, G, rows, rows_per_batch,
                                                  slack):
        # the sum by parts on the faces, read from the Hermite tables,
        # against the integral of psi over each face of the filled hull;
        # x2z2's psi is not affine within a piece, and the batch is cut
        # so that rows cross batches
        pieces = spec.true_density().levels.size
        faces = (rows_per_batch + slack) * pieces * (STICKS + 1)
        with mock.patch.object(limitlaw, "_BATCH_FACES", int(faces)):
            ys, _ = draw_y_samples(G, spec, rows, default_stream(seed))
        expected, scale = per_row_draws(G, spec, rows, default_stream(seed))
        assert np.all(np.abs(ys - expected) <= 1e-12 * scale)

    def test_vertex_sum_keeps_its_digits_on_a_fine_grid(self):
        # faces far shorter than the spacing of doubles near s = 1 (the
        # remainder stick is about e^-48): their ends cannot be told
        # apart, so a mean of psi taken as a difference of Psi over the
        # width would keep no digits; psi = 2 x f_k is affine, so the
        # mean over a face is psi at its middle
        d = PWA.true_density()
        table = _psi_table(XZ2, d)
        widths = np.array([0.25, 1e-17, 0.5, 3e-12, 0.2, 1e-21, 0.05 - 3e-12, 4e-19])
        widths = np.tile(widths, (d.levels.size, 1))
        ends = np.cumsum(widths, axis=1)
        means, psi_end = _face_means(table, ends, widths)
        edges = np.concatenate(([0.0], d.breakpoints))
        a, b = edges[:-1, None], edges[1:, None]
        middle = a + (ends - widths / 2.0) * (b - a)
        np.testing.assert_allclose(means, 2.0 * d.levels[:, None] * middle, rtol=1e-14)
        # Psi_k(s) = f_k s (x + a) at x = a + s (b - a)
        s = ends[:, -1:]
        np.testing.assert_allclose(psi_end, (d.levels[:, None] * s * (2.0 * a + s * (b - a)))[:, 0],
                                   rtol=1e-14)


@pytest.mark.slow
class TestExactLaw:
    def test_paper_pwa_xz2_mean_matches_closed_form(self):
        # E[Y] = -E[A] sum_k (s_k / f_k) du_k^(3/2), E[A] the mean majorant
        # area; for xz2 (s_k = 2 f_k) under paper_pwa (u_1 = 1/sqrt2) that
        # is -(sqrt(2 pi)/3) (u_1^(3/2) + (1 - u_1)^(3/2)) = -0.62926.  The
        # earlier grid sampler drew -0.58 at grid size 1000.
        u1 = 1.0 / math.sqrt(2.0)
        target = -2.0 * MEAN_MAJORANT_AREA * (u1 ** 1.5 + (1.0 - u1) ** 1.5)
        assert target == pytest.approx(-0.62926, abs=1e-5)
        ys, info = draw_y_samples(XZ2, PWA, 100_000, default_stream(77))
        mean, se = mean_with_se(ys)
        assert abs(mean - target) < 3.0 * se
        assert info["method"] == "stick_breaking" and info["sticks"] == STICKS
        assert 0.0 < info["tail_bound"] < 1e-4

    def test_grid_hulls_follow_the_cycle_law(self):
        # the discrete law: under the uniform truth Y = -2 x (area under
        # the hull); the faces of the hull of a 64-step walk bridge have
        # the cycle law of a random permutation of 64 (the grid sampler's
        # hulls are the brute-force hulls, test_per_interval_hulls_match_oracle)
        draws = 10_000
        grid = grid_y_samples(XZ2, UNIF, 64, draws, default_stream(31))
        cycles = -2.0 * cycle_law_hull_areas(64, draws, default_stream(32))
        assert ks_distance(grid, cycles) < 1.628 * math.sqrt(2.0 / draws)
        # the grid hull falls short of the continuum's area by about
        # 0.58/sqrt(64) (Asmussen, Glynn & Pitman 1995); stick-breaking
        # draws the continuum
        exact, _ = draw_y_samples(XZ2, UNIF, draws, default_stream(33))
        gap = (float(np.mean(grid)) - float(np.mean(exact))) / 2.0
        assert 0.5 / 8.0 < gap < 0.7 / 8.0


class TestSampleY:
    def test_single_draw_is_finite_float(self):
        for G, spec in ((Z2, EXP), (XZ2, PWA)):
            ys, _ = draw_y_samples(G, spec, 1, default_stream(0))
            assert ys.shape == (1,) and ys.dtype == float and math.isfinite(ys[0])

    def test_uniform_truth_quadratic_is_degenerate(self):
        ys, _ = draw_y_samples(Z2, UNIF, 50, default_stream(3))
        assert np.array_equal(ys, np.zeros(50))

    def test_y_from_path_matches_batch_logic(self):
        # the grid oracle's LCM derivative takes a 1-D path as a one-row batch
        grid = np.union1d(np.linspace(0.0, 1.0, 101), PWA.true_density().breakpoints)
        paths = _bridge_values(PWA.cdf(grid), 7, default_stream(5))
        batch = grid_lcm_derivative(PWA, grid, paths)
        for k in (0, 3, 6):
            assert grid_lcm_derivative(PWA, grid, paths[k]).tobytes() == batch[k].tobytes()

    def test_metadata_reports_method_and_tail_bound(self):
        _, info = draw_y_samples(Z2, EXP, 20, default_stream(1))
        assert info == {"model": EXP.to_json(), "functional": "power:2",
                        "method": "normal", "sticks": 0, "tail_bound": 0.0, "draws": 20}
        _, info = draw_y_samples(XZ2, PWA, 20, default_stream(1))
        assert info["method"] == "stick_breaking" and info["sticks"] == STICKS
        assert 0.0 < info["tail_bound"] < 1e-4

    @pytest.mark.parametrize("spec", [EXP, PWA], ids=["exponential", "paper_pwa"])
    def test_draws_do_not_depend_on_the_batch(self, spec, monkeypatch):
        # 4099 draws in batches of 1, 3, 167 (two pieces' default) and
        # all rows; the exponential truth draws normals and no batch
        sums = limitlaw._majorant_sums
        digests = set()
        for faces in (1, 3 * 2 * (STICKS + 1), limitlaw._BATCH_FACES, 1 << 24):
            monkeypatch.setattr(limitlaw, "_BATCH_FACES", faces)
            rows = []
            monkeypatch.setattr(limitlaw, "_majorant_sums",
                                lambda table, n, *streams: rows.append(n) or sums(table, n, *streams))
            ys, _ = draw_y_samples(XZ2, spec, 4099, default_stream(7))
            batch = max(1, faces // (2 * (STICKS + 1)))
            expected = [batch] * (4099 // batch) + [4099 % batch] * (4099 % batch > 0)
            assert rows == (expected if spec is PWA else [])
            digests.add(ys.tobytes())
        assert len(digests) == 1

    @pytest.mark.parametrize("name,draws", [("xz2", 1000), ("power:2", 8000)])
    def test_draws_do_not_depend_on_blas_threads(self, name, draws):
        # the thread count is read when numpy loads, so each count gets a
        # fresh interpreter; normal draws (exponential) and, for xz2,
        # stick-breaking draws (paper_pwa) must keep their bytes
        script = ("import hashlib, sys\n"
                  "import grenfun as gf\n"
                  "for spec in (gf.ScenarioSpec.exponential(1.0), gf.ScenarioSpec.paper_pwa()):\n"
                  "    ys, _ = gf.draw_y_samples(gf.by_name(sys.argv[1]), spec, int(sys.argv[2]),"
                  " gf.default_stream(3))\n"
                  "    print(hashlib.sha1(ys.tobytes()).hexdigest())\n")
        src = str(Path(grenfun.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script, name, str(draws)],
                                 env=env, capture_output=True, text=True, check=True)
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_linear_formula_needs_an_x_free_functional(self):
        with pytest.raises(ValueError, match="density alone"):
            linear_y_samples(XZ2, PWA, 10, default_stream(0))

    def test_emit_and_load_round_trip(self, tmp_path):
        ys, info = draw_y_samples(XZ2, PWA, 10_000, default_stream(2))
        path = tmp_path / "y.csv"
        emit_y_csv(path, ys, info)
        back, meta = load_y_csv(path)
        assert back.dtype == ys.dtype and back.tobytes() == ys.tobytes()
        assert meta == info

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_each_draw_is_its_repr(self, tmp_path, as_list):
        info = {"draws": len(EDGE_FLOATS), "method": "normal"}
        expected = ['# {"draws": 10, "method": "normal"}']
        expected += [repr(float(y)) for y in EDGE_FLOATS]
        path = tmp_path / "y.csv"
        emit_y_csv(path, EDGE_FLOATS if as_list else np.array(EDGE_FLOATS), info)
        assert path.read_text() == "\n".join(expected) + "\n"
        back, _ = load_y_csv(path)
        assert back.tobytes() == np.array(EDGE_FLOATS).tobytes()

    def test_blocks_join_into_one_line_per_draw(self, tmp_path):
        # two whole blocks and one draw more: no line lost, doubled or split
        ys = default_stream(4).standard_normal(2 * limitlaw._CSV_BLOCK + 1)
        info = {"draws": ys.size}
        path = tmp_path / "y.csv"
        emit_y_csv(path, ys, info)
        expected = "\n".join(['# {"draws": %d}' % ys.size] + [repr(y) for y in ys.tolist()])
        assert path.read_text() == expected + "\n"


@pytest.mark.slow
class TestDistributionalInvariants:
    def test_variance_matches_the_limit_at_grid_1000(self):
        # exponential/xz2: the limit's variance is 8/27 - 1/4 = 0.046296
        ys, _ = draw_y_samples(XZ2, EXP, 100_000, default_stream(500))
        v, se = var_with_se(ys)
        assert abs(v - (8.0 / 27.0 - 0.25)) < 3.0 * se

    def test_linear_formula_agrees_with_path_sampler(self):
        # x-free functional, piecewise-affine truth: the normal draws and
        # the linear formula share one law (KS < 0.01 at 1e5 draws, and
        # variances within 4 standard errors)
        ys_path, _ = draw_y_samples(Z2, PWA, 100_000, default_stream(100))
        ys_lin = linear_y_samples(Z2, PWA, 100_000, default_stream(200))
        assert ks_distance(ys_path, ys_lin) < 0.01
        (v_path, se_path), (v_lin, se_lin) = var_with_se(ys_path), var_with_se(ys_lin)
        assert abs(v_path - v_lin) < 4.0 * math.hypot(se_path, se_lin)
        target = 8.0 * math.sqrt(2.0) - 8.0
        assert v_lin == pytest.approx(target, abs=0.05)
