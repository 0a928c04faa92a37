"""Tests for matrix file reading/writing and trace CSV round trips."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adacur import fileio
from adacur.driver import StepTrace
from adacur.errors import InvalidInput, ParseError
from adacur.fileio import (
    CSV_HEADER,
    MAX_COORDINATE_DIM,
    load_sequence_dir,
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)
from adacur.oracles import DenseOracle, ParamMatrixSequence, SparseOracle


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


def assert_bitwise_equal(a, b):
    """Same matrix type, shape, dtypes and bits (NaN and -0.0 included)."""
    assert type(a) is type(b) and a.shape == b.shape
    if sp.issparse(a):
        for name in ("indices", "indptr"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
        a, b = a.data, b.data
    assert a.dtype == b.dtype == np.float64
    assert a.flags.f_contiguous == b.flags.f_contiguous
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def scan_only(text):
    """Read ``text`` with the line scan alone, bypassing the bulk parse."""
    lines = text.splitlines()
    fmt, size, start = fileio._read_head(lines)
    return fmt, fileio._scan_body(fmt, size, lines, start, len(text))


def outcome(read, arg):
    """``(format, matrix)`` of a read, or ``(None, (detail, line))``."""
    try:
        return read(arg)
    except ParseError as exc:
        return None, (exc.detail, exc.line)


def assert_bulk_agrees_with_scan(path):
    """The reader and the bulk parse each agree with the line scan.

    Returns whether the bulk parse accepted the body.
    """
    text = path.read_text(encoding="utf-8")
    fast, slow = outcome(read_matrix_market, path), outcome(scan_only, text)
    assert fast[0] == slow[0]
    if slow[0] is None:
        assert fast[1] == slow[1]
    else:
        assert_bitwise_equal(fast[1], slow[1])
    lines = text.splitlines()
    try:
        fmt, size, start = fileio._read_head(lines)
    except ParseError:
        return False
    bulk = fileio._bulk_body(fmt, size, lines, start)
    if bulk is not None:
        assert slow[0] is not None
        assert_bitwise_equal(bulk, slow[1])
    return bulk is not None


@pytest.mark.parametrize("line", ["size", "entry"])
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_lines_bulk_matches_scan(tmp_path, line, data):
    path = tmp_path / "mut.mtx"
    path.write_text(data.draw(mutated_mtx(line)), encoding="utf-8")
    assert_bulk_agrees_with_scan(path)


COORD_12 = "%%MatrixMarket matrix coordinate real general\n12 12 {nnz}\n"
ARRAY_2X1 = "%%MatrixMarket matrix array real general\n2 1\n"


@pytest.mark.parametrize("text, bulk", [
    # ragged lines whose token counts add up to two full entries
    (COORD_12.format(nnz=2) + "1 1\n2 2 3.0 4.0\n", False),
    (COORD_12.format(nnz=1) + "1 1 1.5 % note\n", False),
    (COORD_12.format(nnz=1) + "1.0 1 1.5\n", False),
    (COORD_12.format(nnz=1) + "+1 1 1.5\n", True),
    (COORD_12.format(nnz=1) + "1_0 1 1.5\n", False),
    (COORD_12.format(nnz=1) + "١ 1 1.5\n", False),
    (COORD_12.format(nnz=1) + "1 \U0010ffff 1.5\n", False),
    (COORD_12.format(nnz=1) + "1 1 1_0.5\n", False),
    (COORD_12.format(nnz=3) + "1 1 nan\n2 1 -nan\n3 3 -0\n", True),
    (COORD_12.format(nnz=2) + "1 1 1e400\n1 1 -1e400\n", True),
    (COORD_12.format(nnz=2) + "1 1 1.5\n\n", False),
    (COORD_12.format(nnz=2) + "13 1 1.5\n1 1 1.0\n", False),
    (COORD_12.format(nnz=2) + "1 1 1.5\n% a comment\n", False),
    (COORD_12.format(nnz=1) + "1 1 1.5 # note\n", False),
    (COORD_12.format(nnz=0), False),
    (ARRAY_2X1 + "1.0\n2.0\n", True),
    (ARRAY_2X1 + "1.0 2.0\n3.0 4.0\n", False),
    (ARRAY_2X1 + "1_0.5\n2.0\n", False),
    (ARRAY_2X1 + "1.0\n\n", False),
    (ARRAY_2X1 + "nan\n-0\n", True),
    # blank and comment lines between well-formed data lines
    (COORD_12.format(nnz=2) + "1 1 1.5\n% a comment\n2 2 1.0\n\n", True),
    (ARRAY_2X1 + "% c\n1.0\n\n2.0\n", True),
    (COORD_12.format(nnz=2) + "% c\n1 1 1.5\n2 x 1.0\n", False),
])
def test_targeted_bodies_bulk_matches_scan(tmp_path, text, bulk):
    path = tmp_path / "t.mtx"
    path.write_text(text, encoding="utf-8")
    assert assert_bulk_agrees_with_scan(path) == bulk


def no_scan(*args):
    raise AssertionError("line scan used for a well-formed file")


def test_well_formed_files_skip_line_scan(tmp_path, monkeypatch):
    # the scan costs about a microsecond per token; well-formed files
    # must never reach it
    rng = np.random.default_rng(3)
    flat = rng.choice(100 * 50, size=2000, replace=False)
    coo = sp.coo_matrix((rng.standard_normal(2000), divmod(flat, 50)),
                        shape=(100, 50))
    dense = rng.standard_normal((300, 100))
    write_matrix_market(tmp_path / "c.mtx", coo)
    write_matrix_market(tmp_path / "a.mtx", dense)
    monkeypatch.setattr(fileio, "_scan_body", no_scan)
    _, back = read_matrix_market(tmp_path / "c.mtx")
    assert_bitwise_equal(back, coo.tocsr())
    _, back = read_matrix_market(tmp_path / "a.mtx")
    np.testing.assert_array_equal(back, dense)


def test_blank_and_comment_lines_skip_line_scan(tmp_path, monkeypatch):
    # files from other tools annotate the body or end with a blank line
    coord = (COORD_12.format(nnz=3)
             + "1 1 1.5\n% a comment\n2 3 -2.0\n\n3 3 0.0\n\n")
    array = ARRAY_2X1 + "1.0\n  % indented\n\n2.0\n\n"
    want = [scan_only(text)[1] for text in (coord, array)]
    monkeypatch.setattr(fileio, "_scan_body", no_scan)
    for text, mat in zip((coord, array), want):
        path = tmp_path / "t.mtx"
        path.write_text(text, encoding="utf-8")
        assert_bitwise_equal(read_matrix_market(path)[1], mat)


def test_bad_entry_after_comment_names_its_line(tmp_path):
    path = tmp_path / "t.mtx"
    path.write_text(COORD_12.format(nnz=2) + "% c\n\n1 1 1.5\n2 x 1.0\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read_matrix_market(path)
    assert info.value.line == 6


EDGE_VALUES = [-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e-05, 1e+16, 0.0]
# a decimal file keeps no NaN payload or sign, so the NaN drawn is the
# canonical one
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False))


@st.composite
def small_matrices(draw):
    """A small dense matrix and a mask of the entries a sparse copy stores."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vals = draw(st.lists(VALUES, min_size=m * n, max_size=m * n))
    mask = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    return (np.array(vals, dtype=float).reshape(m, n),
            np.array(mask).reshape(m, n))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mat=small_matrices())
def test_round_trip_bitwise(tmp_path, mat):
    dense, mask = mat
    path = tmp_path / "rt.mtx"
    write_matrix_market(path, dense)
    fmt, back = read_matrix_market(path)
    assert fmt == "array"
    assert_bitwise_equal(back, np.asfortranarray(dense))
    # stored entries, explicit zeros among them, survive as stored
    rows, cols = np.nonzero(mask)
    sparse = sp.csr_matrix((dense[rows, cols], (rows, cols)),
                           shape=dense.shape)
    write_matrix_market(path, sparse)
    fmt, back = read_matrix_market(path)
    assert fmt == "coordinate" and back.nnz == mask.sum()
    assert_bitwise_equal(back, sparse)


# Exact writer output for two small matrices, pinned so that a change of
# format shows.
GOLDEN_ARRAY = ("%%MatrixMarket matrix array real general\n2 3\n"
                "-0.0\nnan\n5e-324\n1e-05\ninf\n1e+16\n")
GOLDEN_COORDINATE = ("%%MatrixMarket matrix coordinate real general\n"
                     "3 3 4\n1 2 0.0\n1 1 -inf\n3 3 0.1\n3 2 2.5e-308\n")


def test_writer_bytes_match_golden(tmp_path):
    write_matrix_market(tmp_path / "a.mtx",
                        [[-0.0, 5e-324, np.inf], [np.nan, 1e-05, 1e+16]])
    coo = sp.csr_matrix(([0.0, -np.inf, 0.1, 2.5e-308], [1, 0, 2, 1],
                         [0, 2, 2, 4]), shape=(3, 3))
    write_matrix_market(tmp_path / "c.mtx", coo)
    assert (tmp_path / "a.mtx").read_bytes() == GOLDEN_ARRAY.encode()
    assert (tmp_path / "c.mtx").read_bytes() == GOLDEN_COORDINATE.encode()


class TestCoordinateSizeLimit:
    def write(self, tmp_path, size):
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{size}\n1 1 1.0\n", encoding="utf-8")
        return path

    def test_huge_dimension_fails_before_allocating(self, tmp_path):
        assert MAX_COORDINATE_DIM >= 10 ** 8
        path = self.write(tmp_path, f"{10 ** 12} 2 1")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"{10 ** 12}x2") as info:
                read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.line == 2
        assert peak < 2 ** 20

    def test_million_rows_read(self, tmp_path):
        _, back = read_matrix_market(self.write(tmp_path, f"{10 ** 6} 2 1"))
        assert back.shape == (10 ** 6, 2) and back.nnz == 1


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

    def test_same_step_twice_rejected(self, tmp_path):
        # step_1 and step_01 both parse to k = 1; neither may drop out
        self.make_dir(tmp_path, count=2, with_params=False)
        write_matrix_market(str(tmp_path / "step_01.mtx"), np.eye(6, 5))
        with pytest.raises(InvalidInput) as info:
            load_sequence_dir(str(tmp_path))
        assert str(info.value) == "step_01.mtx and step_1.mtx are both step 1"

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


class TestSparseOracle:
    def test_products_bitwise_and_counted(self):
        rng = np.random.default_rng(11)
        a = sp.random(300, 100, density=0.13, random_state=rng, format="csr")
        orc = SparseOracle(a)
        x, y = rng.standard_normal((300, 16)), rng.standard_normal(300)
        for _ in range(2):
            assert_bitwise_equal(orc.rmatmat(x), a.T @ x)
        # one transposed view, built once, on the CSC arrays
        assert orc._csc_t is orc._csc_t
        assert np.shares_memory(orc._csc_t.data, orc._csc.data)
        assert_bitwise_equal(orc.rmatvec(y), a.T @ y)
        assert_bitwise_equal(orc.matmat(x[:100]), a @ x[:100])
        c = orc.counters
        assert (c.matvecs, c.rmatvecs, c.entries_read) == (16, 33, 0)


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

    def test_provider_returning_non_oracle_rejected(self):
        # an array has the right shape but no counters; it fails at the
        # sequence boundary, naming the step
        seq = ParamMatrixSequence([0.0, 1.0], lambda j: np.eye(2), (2, 2))
        with pytest.raises(InvalidInput, match="ndarray at step 1"):
            seq.oracle(1)


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
