"""Tests for matrix file reading/writing and trace CSV round trips."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adacur.driver import StepTrace
from adacur.errors import InvalidInput, ParseError
from adacur.fileio import (
    CSV_HEADER,
    load_sequence_dir,
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)
from adacur.oracles import DenseOracle, ParamMatrixSequence


class TestMatrixMarket:
    def test_array_round_trip_bitwise(self, tmp_path, rng):
        a = rng.standard_normal((7, 5))
        path = str(tmp_path / "a.mtx")
        write_matrix_market(path, a)
        fmt, back = read_matrix_market(path)
        assert fmt == "array"
        np.testing.assert_array_equal(back, a)

    def test_coordinate_round_trip(self, tmp_path, rng):
        a = sp.random(20, 15, density=0.2, random_state=42, format="csr")
        path = str(tmp_path / "s.mtx")
        write_matrix_market(path, a)
        fmt, back = read_matrix_market(path)
        assert fmt == "coordinate"
        assert (back != a).nnz == 0

    def test_explicit_zero_entry_preserved(self, tmp_path):
        path = str(tmp_path / "z.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix coordinate real general\n")
            f.write("3 3 3\n")
            f.write("1 1 1.5\n")
            f.write("2 2 0.0\n")
            f.write("3 1 -2.0\n")
        fmt, back = read_matrix_market(path)
        assert back.nnz == 3  # structural zero must survive

    def test_dense_default_for_ndarray_sparse_for_csr(self, tmp_path):
        d = str(tmp_path / "d.mtx")
        write_matrix_market(d, np.eye(3))
        assert "array" in open(d).readline()
        s = str(tmp_path / "s.mtx")
        write_matrix_market(s, sp.eye(3, format="csr"))
        assert "coordinate" in open(s).readline()

    def test_bad_value_reports_line(self, tmp_path):
        path = str(tmp_path / "bad.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array real general\n")
            f.write("2 2\n")
            f.write("1.0\n2.0\nbogus\n4.0\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert info.value.line == 5
        assert "bogus" in str(info.value)

    def test_bad_banner_rejected(self, tmp_path):
        path = str(tmp_path / "nb.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array complex general\n1 1\n1\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert info.value.line == 1

    def test_out_of_bounds_coordinate(self, tmp_path):
        path = str(tmp_path / "ob.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix coordinate real general\n")
            f.write("2 2 1\n")
            f.write("3 1 1.0\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert info.value.line == 3

    def test_truncated_array_body(self, tmp_path):
        path = str(tmp_path / "tr.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(ParseError):
            read_matrix_market(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "c.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array real general\n")
            f.write("% a comment\n\n2 1\n\n1.0\n% mid comment\n2.0\n")
        fmt, back = read_matrix_market(path)
        np.testing.assert_array_equal(back, [[1.0], [2.0]])

    @pytest.mark.parametrize("fmt, size, line", [
        ("coordinate", "2 2 -1", 2),
        ("coordinate", f"2 2 {10 ** 20}", 3),   # one entry found
        ("array", f"{10 ** 10} {10 ** 10}", 3),  # three values found
        ("coordinate", f"{10 ** 20} 2 1", 2),    # beyond the index dtype
    ])
    def test_impossible_size_line_reports_line(self, tmp_path, fmt, size,
                                               line):
        # a count no buffer can hold must not escape as numpy's ValueError
        path = str(tmp_path / "size.mtx")
        with open(path, "w") as f:
            f.write(f"%%MatrixMarket matrix {fmt} real general\n")
            f.write(f"{size}\n1 1 1.0\n")
        with pytest.raises(ParseError) as info:
            read_matrix_market(path)
        assert info.value.line == line

    def test_column_major_order(self, tmp_path):
        path = str(tmp_path / "cm.mtx")
        with open(path, "w") as f:
            f.write("%%MatrixMarket matrix array real general\n")
            f.write("2 2\n1\n2\n3\n4\n")
        _, back = read_matrix_market(path)
        np.testing.assert_array_equal(back, [[1.0, 3.0], [2.0, 4.0]])


# Small valid files whose size and entry lines the property test mutates.
VALID_MTX = {
    "coordinate": ["%%MatrixMarket matrix coordinate real general",
                   "3 2 2", "1 1 1.5", "3 2 -2.0"],
    "array": ["%%MatrixMarket matrix array real general",
              "2 2", "1.0", "2.0 3.0", "4.0"],
}
# Integers stay small enough that no dimension a mutant declares can
# ask the sparse assembly for more than a few megabytes.
MTX_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-10 ** 5, 10 ** 5).map(str),
    st.sampled_from(["", "0", "-1", "1.5", "-0", "nan", "1e400", "%", "x"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
)


@st.composite
def mutated_mtx(draw, line):
    """A valid file with one token of its size line or an entry line changed."""
    lines = list(VALID_MTX[draw(st.sampled_from(sorted(VALID_MTX)))])
    at = 1 if line == "size" else draw(st.integers(2, len(lines) - 1))
    toks = lines[at].split()
    pos = draw(st.integers(0, len(toks)))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "insert" or pos == len(toks):
        toks.insert(pos, draw(MTX_TOKENS))
    elif edit == "replace":
        toks[pos] = draw(MTX_TOKENS)
    else:
        del toks[pos]
    lines[at] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("line", ["size", "entry"])
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_lines_raise_only_parse_error(tmp_path, line, data):
    # a mutant may still parse; any exception but ParseError fails
    path = tmp_path / "mut.mtx"
    path.write_text(data.draw(mutated_mtx(line)), encoding="utf-8")
    try:
        read_matrix_market(str(path))
    except ParseError:
        pass


class TestSequenceDir:
    def make_dir(self, tmp_path, count=4, with_params=True):
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((6, 5)) for _ in range(count)]
        for k, a in enumerate(mats):
            write_matrix_market(str(tmp_path / f"step_{k}.mtx"), a)
        if with_params:
            with open(tmp_path / "params.txt", "w") as f:
                f.write("\n".join(str(0.5 * k) for k in range(count)))
        return mats

    def test_numeric_ordering(self, tmp_path):
        # step_10 must sort after step_2 (integer keys, not lexicographic)
        rng = np.random.default_rng(1)
        mats = {k: rng.standard_normal((3, 3)) for k in [0, 1, 2, 10]}
        for k, a in mats.items():
            write_matrix_market(str(tmp_path / f"step_{k}.mtx"), a)
        seq = load_sequence_dir(str(tmp_path))
        assert len(seq) == 4
        np.testing.assert_array_equal(
            seq.oracle(3).col_block(np.arange(3)), mats[10])

    def test_params_file_used(self, tmp_path):
        self.make_dir(tmp_path)
        seq = load_sequence_dir(str(tmp_path))
        np.testing.assert_allclose(seq.params, [0.0, 0.5, 1.0, 1.5])

    def test_missing_params_defaults_to_indices(self, tmp_path):
        self.make_dir(tmp_path, with_params=False)
        seq = load_sequence_dir(str(tmp_path))
        np.testing.assert_allclose(seq.params, [0.0, 1.0, 2.0, 3.0])

    def test_param_count_mismatch(self, tmp_path):
        self.make_dir(tmp_path, count=3)
        with open(tmp_path / "params.txt", "w") as f:
            f.write("0.0\n1.0\n")
        with pytest.raises(InvalidInput):
            load_sequence_dir(str(tmp_path))

    def test_mixed_shapes_rejected(self, tmp_path):
        write_matrix_market(str(tmp_path / "step_0.mtx"), np.eye(3))
        write_matrix_market(str(tmp_path / "step_1.mtx"), np.eye(4))
        with pytest.raises(InvalidInput) as info:
            load_sequence_dir(str(tmp_path))
        assert "step_1.mtx" in str(info.value)

    def test_parse_error_carries_filename(self, tmp_path):
        write_matrix_market(str(tmp_path / "step_0.mtx"), np.eye(2))
        with open(tmp_path / "step_1.mtx", "w") as f:
            f.write("%%MatrixMarket matrix array real general\n2 2\nx\n")
        with pytest.raises(ParseError) as info:
            load_sequence_dir(str(tmp_path))
        assert "step_1.mtx" in str(info.value)
        assert info.value.line == 3
        assert str(info.value).count("line 3") == 1

    def test_params_error_names_file_and_true_line(self, tmp_path):
        # blank lines count toward the reported line number
        self.make_dir(tmp_path, count=3)
        with open(tmp_path / "params.txt", "w") as f:
            f.write("0.0\n\n\nabc\n1.0\n")
        with pytest.raises(ParseError) as info:
            load_sequence_dir(str(tmp_path))
        assert info.value.line == 4
        assert "params.txt" in str(info.value)
        assert str(info.value).count("line 4") == 1

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_param_names_file_and_line(self, tmp_path, token):
        self.make_dir(tmp_path, count=3)
        with open(tmp_path / "params.txt", "w") as f:
            f.write(f"0.0\n1.0\n{token}\n")
        with pytest.raises(ParseError, match="finite") as info:
            load_sequence_dir(str(tmp_path))
        assert info.value.line == 3
        assert "params.txt" in str(info.value)

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            load_sequence_dir(str(tmp_path))


class TestParamMatrixSequence:
    @pytest.mark.parametrize("params, index", [
        ([np.nan], 0), ([0.0, np.inf], 1), ([-np.inf, 0.0, 1.0], 0),
        ([0.0, 1.0, np.nan], 2)])
    def test_non_finite_params_rejected(self, params, index):
        with pytest.raises(InvalidInput, match=rf"params\[{index}\]"):
            ParamMatrixSequence(params, lambda j: DenseOracle(np.eye(2)),
                                (2, 2))

    def test_unordered_params_rejected(self):
        with pytest.raises(InvalidInput, match="strictly increasing"):
            ParamMatrixSequence([0.0, 0.0], lambda j: DenseOracle(np.eye(2)),
                                (2, 2))


class TestTraceCsv:
    def traces(self):
        return [
            StepTrace(step=0, t=0.0, rank=5, est_rel_err=1.2e-7,
                      true_rel_err=None, action="RECOMPUTE", h1_cum=0,
                      h2_cum=0, matvecs=23, wall_ms=1.25),
            StepTrace(step=1, t=0.1, rank=5, est_rel_err=3.0e-8,
                      true_rel_err=2.9e-8, action="REUSE", h1_cum=0,
                      h2_cum=0, matvecs=5, wall_ms=0.75),
            StepTrace(step=2, t=0.2, rank=6, est_rel_err=None,
                      true_rel_err=None, action="EXPAND", h1_cum=0,
                      h2_cum=1, matvecs=0, wall_ms=0.5),
        ]

    def test_header_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_trace_csv(self.traces(), path)
        first = open(path).readline().strip()
        assert first == CSV_HEADER
        assert first.split(",") == [f.name for f in
                                    dataclasses.fields(StepTrace)]

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "t.csv")
        orig = self.traces()
        write_trace_csv(orig, path)
        back = read_trace_csv(path)
        assert len(back) == 3
        for a, b in zip(orig, back):
            assert a.step == b.step
            assert a.t == b.t
            assert a.rank == b.rank
            assert a.est_rel_err == b.est_rel_err
            assert a.true_rel_err == b.true_rel_err
            assert a.action == b.action
            assert a.h1_cum == b.h1_cum and a.h2_cum == b.h2_cum
            assert a.matvecs == b.matvecs
            assert a.wall_ms == b.wall_ms

    def test_every_field_but_wall_time_round_trips(self, tmp_path):
        path = str(tmp_path / "t.csv")
        orig = [dataclasses.replace(tr, entries_read=1000 * k + 7)
                for k, tr in enumerate(self.traces())]
        write_trace_csv(orig, path)
        back = read_trace_csv(path)
        names = [f.name for f in dataclasses.fields(StepTrace)
                 if f.name != "wall_ms"]
        assert [[getattr(tr, k) for k in names] for tr in back] == \
            [[getattr(tr, k) for k in names] for tr in orig]

    def test_none_serialized_as_empty_field(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_trace_csv(self.traces(), path)
        lines = open(path).read().splitlines()
        assert lines[1].split(",")[4] == ""  # true_rel_err of step 0
        assert lines[3].split(",")[3] == ""  # est_rel_err of step 2

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as f:
            f.write("step,t,rank\n0,0.0,5\n")
        with pytest.raises(ParseError) as info:
            read_trace_csv(path)
        assert info.value.line == 1
