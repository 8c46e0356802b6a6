import gzip
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grenfun import (
    InputError,
    Sample,
    ScenarioSpec,
    default_stream,
    derive_seed,
    draw,
    ecdf,
    fit,
    ingest,
    read_observations,
)
from grenfun.samples import PWA_KINK, SQRT2

from oracles import read_observations_by_line, read_scenario, support_end


class TestIngest:
    def test_sorts_raw_values(self):
        s = ingest([2.0, 1.0, 3.0])
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_zero_is_admitted(self):
        s = ingest([0.0])
        assert np.array_equal(s.values, [0.0])

    def test_negative_entry_rejected_with_index(self):
        with pytest.raises(InputError, match="negative observation at index 1"):
            ingest([1.0, -0.5])

    def test_nan_and_inf_rejected(self):
        with pytest.raises(InputError, match="non-finite observation at index 0"):
            ingest([float("nan"), 1.0])
        with pytest.raises(InputError, match="non-finite observation at index 2"):
            ingest([1.0, 2.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ingest([])

    def test_duplicates_retained(self):
        assert ingest([1.0, 1.0]).n == 2


class TestEcdf:
    def test_two_points(self):
        xs, ys = ecdf(ingest([1.0, 2.0]))
        assert np.array_equal(xs, [0.0, 1.0, 2.0])
        assert np.array_equal(ys, [0.0, 0.5, 1.0])

    def test_duplicates_pooled(self):
        xs, ys = ecdf(ingest([1.0, 1.0]))
        assert np.array_equal(xs, [0.0, 1.0])
        assert np.array_equal(ys, [0.0, 1.0])

    def test_single_observation(self):
        xs, ys = ecdf(ingest([0.5]))
        assert np.array_equal(xs, [0.0, 0.5])
        assert np.array_equal(ys, [0.0, 1.0])

    def test_zero_observation_replaces_origin(self):
        xs, ys = ecdf(ingest([0.0, 1.0]))
        assert np.array_equal(xs, [0.0, 1.0])
        assert np.array_equal(ys, [0.5, 1.0])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=200))
    def test_nondecreasing_and_ends_at_one(self, values):
        xs, ys = ecdf(ingest(values))
        assert np.all(np.diff(xs) > 0)
        assert np.all(np.diff(ys) > 0)
        assert ys[-1] == 1.0

    @pytest.mark.parametrize("decimals, zero", [
        (0, False), (1, False), (2, False), (None, False), (None, True),
    ], ids=["0", "1", "2", "unrounded", "unrounded-zero"])
    def test_heavy_ties_match_unique_reference(self, decimals, zero):
        # the runs of equal values found on the sorted sample, and the
        # shortcut taken by a sample with no tie and no zero, must give
        # what a re-sort with np.unique gives, bit for bit
        raw = default_stream(3 if decimals is None else decimals).exponential(1.0, 20_000)
        if decimals is not None:
            raw = np.round(raw, decimals)
        if zero:
            raw = np.append(raw, 0.0)
        s = ingest(raw)
        if decimals is None:
            assert np.all(s.values[1:] > s.values[:-1])
        vals, counts = np.unique(s.values, return_counts=True)
        heights = np.cumsum(counts) / float(s.n)
        if vals[0] != 0.0:
            vals = np.concatenate(([0.0], vals))
            heights = np.concatenate(([0.0], heights))
        xs, ys = ecdf(s)
        assert np.array_equal(xs, vals)
        assert np.array_equal(ys, heights)
        assert ys[-1] == 1.0


class TestScenarioSpec:
    def test_unknown_kind_lists_valid(self):
        with pytest.raises(InputError, match="valid kinds"):
            ScenarioSpec("weibull", {})

    def test_piecewise_mass_validated(self):
        with pytest.raises(InputError, match="mass"):
            ScenarioSpec.piecewise([1.0, 2.0], [0.9, 0.2])

    def test_piecewise_levels_must_decrease(self):
        with pytest.raises(InputError, match="strictly decreasing"):
            ScenarioSpec.piecewise([0.5, 1.0], [1.0, 1.0])

    def test_piecewise_non_finite_rejected(self):
        with pytest.raises(InputError, match="must be finite"):
            ScenarioSpec.piecewise([float("nan")], [1.0])

    @pytest.mark.parametrize("kind,key", [("exponential", "rate"), ("uniform", "upper")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameter_named(self, kind, key, value):
        # by its field, not by the quadrature that meets it later
        with pytest.raises(InputError, match=f"field {key!r} has an invalid value"):
            ScenarioSpec(kind, {key: value})

    def test_paper_pwa_expansion(self):
        spec = ScenarioSpec.paper_pwa()
        assert spec.cdf(PWA_KINK) == pytest.approx(1.0 / SQRT2, abs=1e-15)
        # slopes of the benchmark CDF
        assert spec.density(0.1) == pytest.approx(1.0 / (SQRT2 - 1.0), rel=1e-15)
        assert spec.density(0.9) == pytest.approx(SQRT2 - 1.0, rel=1e-15)

    @pytest.mark.parametrize("spec", [
        ScenarioSpec.paper_pwa(),
        ScenarioSpec.uniform(3.0),
        ScenarioSpec.piecewise([0.5, 1.0, 2.0], [1.0, 0.6, 0.2]),
        # piece masses that sum to 0.9999999999999999 in floats
        ScenarioSpec.piecewise([0.345, 0.674, 2.666],
                               [0.5584537074625977, 0.5492598720095778, 0.31457177361157257]),
        # a Grenander fit whose 15 piece masses sum to 0.9999999999999999
        fit(draw(ScenarioSpec.paper_pwa(), 3000, default_stream(17))),
    ], ids=["paper_pwa", "uniform", "three", "mass_below_one", "fitted"])
    def test_cdf_is_exactly_one_from_the_end_of_support(self, spec):
        # the piece masses sum to 1 only up to rounding (paper_pwa's to
        # 1.0000000000000002); the limit-law grid extends when cdf < 1
        end = support_end(spec) if isinstance(spec, ScenarioSpec) else spec.support_end
        xs = [end, np.nextafter(end, np.inf), end + 1.0, 1e300, np.inf]
        assert all(spec.cdf(x) == 1.0 for x in xs)
        assert np.all(spec.cdf(np.array(xs)) == 1.0)

    def test_one_piece_quantile_is_u_times_end(self):
        # rounded once: u / (1/3) differs from u * 3 on about 21% of uniforms
        u = default_stream(8).random(10_000)
        assert ScenarioSpec.uniform(3.0).quantile(u).tobytes() == (u * 3.0).tobytes()
        assert ScenarioSpec.uniform(3.0).quantile(float(u[0])) == float(u[0]) * 3.0

    def test_one_piece_piecewise_draws_like_uniform(self):
        one_piece = draw(ScenarioSpec.piecewise([3.0], [1.0 / 3.0]), 10_000, default_stream(9))
        uniform = draw(ScenarioSpec.uniform(3.0), 10_000, default_stream(9))
        assert one_piece.values.tobytes() == uniform.values.tobytes()

    @pytest.mark.parametrize("spec", [
        ScenarioSpec.paper_pwa(), ScenarioSpec.uniform(2.0),
        ScenarioSpec.piecewise([0.5, 2.0], [1.5, 1.0 / 6.0]),
    ], ids=lambda spec: spec.kind)
    def test_truth_is_built_once(self, spec):
        assert spec.true_density() is spec.true_density()

    def test_quantile_inverts_cdf(self):
        for spec in (ScenarioSpec.exponential(2.0), ScenarioSpec.uniform(3.0),
                     ScenarioSpec.paper_pwa()):
            u = np.linspace(0.001, 0.999, 101)
            x = spec.quantile(u)
            assert np.allclose(spec.cdf(x), u, atol=1e-12)
            assert spec.quantile(float(u[7])) == x[7]

    def test_json_round_trip(self, tmp_path):
        spec = ScenarioSpec.piecewise([0.5, 2.0], [1.5, 1.0 / 6.0])
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.to_json()))
        assert set(spec.to_json()) == {"kind", "params"}
        back = read_scenario(path)
        assert back == spec

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            read_scenario(path)


class TestDraw:
    def test_uniform_support(self):
        s = draw(ScenarioSpec.uniform(1.0), 3, default_stream(0))
        assert s.n == 3
        assert np.all((s.values >= 0.0) & (s.values <= 1.0))

    def test_exponential_mean_lln(self):
        # law of large numbers at desk scale: mean of Exp(1) is 1
        s = draw(ScenarioSpec.exponential(1.0), 10 ** 6, default_stream(42))
        assert abs(float(np.mean(s.values)) - 1.0) < 0.01

    def test_pwa_kink_fraction(self):
        # fraction below the kink estimates F(kink) = 1/sqrt(2)
        s = draw(ScenarioSpec.paper_pwa(), 10 ** 6, default_stream(7))
        frac = float(np.mean(s.values <= PWA_KINK))
        assert abs(frac - 1.0 / SQRT2) < 0.005

    def test_bit_for_bit_reproducibility(self):
        spec = ScenarioSpec.exponential(1.0)
        a = draw(spec, 1000, default_stream(123))
        b = draw(spec, 1000, default_stream(123))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("spec", [
        ScenarioSpec.exponential(2.0),
        ScenarioSpec.uniform(2.0),
        ScenarioSpec.piecewise([0.5, 2.0], [1.5, 1.0 / 6.0]),
        ScenarioSpec.paper_pwa(),
    ], ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("n", [1, 10_000])
    def test_sorts_the_quantiles_of_its_stream(self, spec, n):
        # draw sorts the quantile array in place: the values are those of
        # a sorted copy, bit for bit
        u = default_stream(11).random(n)
        s = draw(spec, n, default_stream(11))
        assert np.array_equal(s.values, np.sort(spec.quantile(u)))

    def test_derive_seed_decorrelates_studies(self):
        kits = [derive_seed(seed, rep) for seed in (0, 1) for rep in range(100)]
        assert len(set(kits)) == len(kits)

    @pytest.mark.parametrize("spec", [
        ScenarioSpec.exponential(1.0),
        ScenarioSpec.uniform(2.0),
        ScenarioSpec.paper_pwa(),
    ], ids=["exponential", "uniform", "paper_pwa"])
    def test_dkw_closeness(self, spec):
        # sup |F_n - F| < 0.01 at n = 1e5 fails with probability < 2e-9
        s = draw(spec, 10 ** 5, default_stream(5))
        xs, ys = ecdf(s)
        assert float(np.max(np.abs(ys - spec.cdf(xs)))) < 0.01


_NUMBER_LINE = st.builds(
    lambda v, fmt, left, right: left + fmt(v) + right,
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([repr, lambda v: "%.17g" % v, lambda v: "%.6e" % v]),
    st.sampled_from(["", " ", "\t", "  \t"]),
    st.sampled_from(["", " ", "\t", " \t "]),
)
_FILLER_LINE = st.sampled_from(["", " ", "\t \t", "# comment", "  # indented comment", "#"])
#: a data file's lines: finite nonnegative doubles in three spellings,
#: padded with blanks, mixed with blank, whitespace-only and comment lines
_DATA_LINES = st.lists(st.one_of(_NUMBER_LINE, _NUMBER_LINE, _FILLER_LINE),
                       min_size=1, max_size=60).filter(
    lambda lines: any(t.strip() and not t.strip().startswith("#") for t in lines))


class TestDataFiles:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("# header\n1.25\n\n0.5\n# trailing\n2e-1\n")
        s = read_observations(path)
        assert np.array_equal(s.values, [0.2, 0.5, 1.25])

    def test_malformed_line_reported(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0\noops\n")
        with pytest.raises(InputError, match="obs.txt:2"):
            read_observations(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "obs.txt"
        for text in ("# nothing here\n", "", "# only a comment\n\n  \n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError, match="obs.txt: no observations found"):
                    read_observations(path)

    def test_inline_comment_accepted(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.5  # note\n0.25# tight\n")
        assert np.array_equal(read_observations(path).values, [0.25, 1.5])

    @pytest.mark.parametrize("bad, message", [
        ("0.5 0.75", "not a decimal number: '0.5 0.75'"),
        ("1_000", "not a decimal number: '1_000'"),
        ("\u0661\u0662", "not a decimal number: '\u0661\u0662'"),
        ("1e400", "non-finite observation: '1e400'"),
        ("nan", "non-finite observation: 'nan'"),
        ("-1", "negative observation: '-1'"),
    ])
    def test_bad_line_named(self, tmp_path, bad, message):
        path = tmp_path / "obs.txt"
        path.write_text(f"# header\n1.0  # fine\n\n{bad}\n2.0\n", encoding="utf-8")
        with pytest.raises(InputError) as info:
            read_observations(path)
        assert str(info.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("text", ["1.0 2.0\n", "1.0 2.0\n3.0 4.0\n"])
    def test_two_column_file_rejected(self, tmp_path, text):
        # every line has two numbers, which the loader reads as a table
        path = tmp_path / "obs.txt"
        path.write_text(text)
        with pytest.raises(InputError, match=r"obs.txt:1: not a decimal number: '1.0 2.0'"):
            read_observations(path)

    def test_first_bad_line_named(self, tmp_path):
        # ingest checks finiteness before sign; the scan goes by line
        path = tmp_path / "obs.txt"
        path.write_text("1.0\n-2.0\ninf\n")
        with pytest.raises(InputError, match="obs.txt:2: negative"):
            read_observations(path)

    def test_compressed_file_read_and_bad_line_named(self, tmp_path):
        # the scan reads the decompressed text the loader read
        path = tmp_path / "obs.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0.5\n2.0\n")
        assert np.array_equal(read_observations(path).values, [0.5, 2.0])
        with gzip.open(path, "wt") as fh:
            fh.write("0.5\n# comment\nx\n")
        with pytest.raises(InputError, match="obs.txt.gz:3: not a decimal number: 'x'"):
            read_observations(path)

    def test_undecodable_file_is_input_error(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_bytes(b"1.0\n\xff\xfe\n")
        # under a single-byte locale encoding the bytes decode, and the
        # line is no number instead
        with pytest.raises(InputError, match=r"obs\.txt(: not a text file|:2: not a decimal)"):
            read_observations(path)

    @given(_DATA_LINES, st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_matches_line_oracle(self, tmp_path_factory, lines, newline, final_newline):
        path = tmp_path_factory.mktemp("obs") / "obs.txt"
        path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
        got = read_observations(path).values
        assert got.tobytes() == read_observations_by_line(path).tobytes()

    def test_matches_line_oracle_on_large_file(self, tmp_path):
        values = draw(ScenarioSpec.paper_pwa(), 100_000, default_stream(4)).values
        path = tmp_path / "obs.txt"
        path.write_text("\n".join(map(repr, default_stream(5).permutation(values).tolist())) + "\n")
        assert read_observations(path).values.tobytes() == read_observations_by_line(path).tobytes()


class TestSampleInvariants:
    def test_unsorted_rejected_by_type(self):
        with pytest.raises(InputError):
            Sample(np.array([2.0, 1.0]))

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=10))
    def test_draws_sorted_nonnegative(self, n, seed):
        s = draw(ScenarioSpec.exponential(1.0), n, default_stream(seed))
        assert np.all(np.diff(s.values) >= 0)
        assert np.all(s.values >= 0)
