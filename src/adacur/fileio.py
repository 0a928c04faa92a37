"""Matrix Market sequence ingestion and CSV trace output.

The Matrix Market support is deliberately small: real general
matrices in array or coordinate format, with parse failures reported
by line number and explicitly stored zeros kept as structural entries
(scipy's reader offers neither). CSV traces round-trip losslessly.
"""

import csv
import re
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .driver import StepTrace
from .errors import InvalidInput, ParseError
from .oracles import DenseOracle, ParamMatrixSequence, SparseOracle

__all__ = ["read_matrix_market", "write_matrix_market",
           "load_sequence_dir", "write_trace_csv", "read_trace_csv",
           "CSV_HEADER"]

CSV_HEADER = ("step,t,rank,est_rel_err,true_rel_err,action,"
              "h1_cum,h2_cum,matvecs,wall_ms,entries_read")


# -- Matrix Market -------------------------------------------------------

def _tokens(lines, start):
    """Yield (lineno, token list) for non-blank, non-comment lines."""
    for lineno in range(start, len(lines)):
        stripped = lines[lineno].strip()
        if not stripped or stripped.startswith("%"):
            continue
        yield lineno + 1, stripped.split()


def read_matrix_market(path):
    """Read a real general Matrix Market file.

    Returns ``("array", ndarray)`` for array format or
    ``("coordinate", csr_matrix)`` for coordinate format. Explicitly
    stored zeros in coordinate files stay stored. Any malformed
    content raises :class:`ParseError` with its line number.
    """
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    head = lines[0].split()
    if len(head) != 5 or head[0] != "%%MatrixMarket":
        raise ParseError("expected '%%MatrixMarket matrix <format> "
                         "real general' banner", line=1)
    _, obj, fmt, field, symmetry = (w.lower() for w in head)
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", line=1)
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}", line=1)
    if field != "real":
        raise ParseError(f"unsupported field {field!r}", line=1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)

    body = _tokens(lines, 1)
    try:
        lineno, size = next(body)
    except StopIteration:
        raise ParseError("missing size line", line=len(lines)) from None

    if fmt == "array":
        if len(size) != 2:
            raise ParseError("array size line must be 'rows cols'",
                             line=lineno)
        m, n = _parse_dims(size, lineno)
        # each value takes at least one character of the file, which
        # bounds the buffers here and below whatever the size line says
        vals = np.empty(min(m * n, len(text)))
        count = 0
        for lineno, toks in body:
            for tok in toks:
                if count >= m * n:
                    raise ParseError("more values than rows*cols",
                                     line=lineno)
                vals[count] = _parse_real(tok, lineno)
                count += 1
        if count != m * n:
            raise ParseError(f"expected {m * n} values, found {count}",
                             line=len(lines))
        # array format stores values column by column
        return "array", vals.reshape((m, n), order="F")

    if len(size) != 3:
        raise ParseError("coordinate size line must be 'rows cols nnz'",
                         line=lineno)
    m, n = _parse_dims(size[:2], lineno)
    nnz = _parse_count(size[2], lineno)
    if nnz < 0:
        raise ParseError(f"nnz must be non-negative, got {nnz}", line=lineno)
    cap = min(nnz, len(text))
    rows = np.empty(cap, dtype=np.intp)
    cols = np.empty(cap, dtype=np.intp)
    vals = np.empty(cap)
    count = 0
    for lineno, toks in body:
        if len(toks) != 3:
            raise ParseError("coordinate entry must be 'i j value'",
                             line=lineno)
        if count >= nnz:
            raise ParseError("more entries than the declared nnz",
                             line=lineno)
        i = _parse_count(toks[0], lineno)
        jj = _parse_count(toks[1], lineno)
        if not (1 <= i <= m and 1 <= jj <= n):
            raise ParseError(f"entry ({i}, {jj}) outside {m}x{n}",
                             line=lineno)
        rows[count] = i - 1
        cols[count] = jj - 1
        vals[count] = _parse_real(toks[2], lineno)
        count += 1
    if count != nnz:
        raise ParseError(f"expected {nnz} entries, found {count}",
                         line=len(lines))
    mat = sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)))
    return "coordinate", mat


def _parse_dims(toks, lineno):
    m = _parse_count(toks[0], lineno)
    n = _parse_count(toks[1], lineno)
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m}x{n}",
                         line=lineno)
    return m, n


def _parse_count(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"expected an integer, got {tok!r}",
                         line=lineno) from None


def _parse_real(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"expected a real number, got {tok!r}",
                         line=lineno) from None


def write_matrix_market(path, a, fmt=None):
    """Write a matrix as real general Matrix Market.

    Dense input defaults to array format (values written column by
    column), sparse input to coordinate format with all stored entries
    kept, explicit zeros included. Values use shortest round-trip
    decimals, so a read of the written file reproduces them exactly.
    """
    if fmt is None:
        fmt = "coordinate" if sp.issparse(a) else "array"
    if fmt not in ("array", "coordinate"):
        raise InvalidInput(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if fmt == "array":
            dense = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
            m, n = dense.shape
            f.write(f"{m} {n}\n")
            for v in dense.ravel(order="F"):
                f.write(repr(float(v)) + "\n")
        else:
            coo = sp.coo_matrix(a)
            f.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, jj, v in zip(coo.row, coo.col, coo.data):
                f.write(f"{i + 1} {jj + 1} {repr(float(v))}\n")


_STEP_FILE = re.compile(r"step_(\d+)\.mtx")


def load_sequence_dir(path):
    """Build a matrix sequence from ``step_<k>.mtx`` files in a directory.

    Files are ordered by the integer k in their names. An optional
    ``params.txt`` supplies one parameter value per line (strictly
    increasing); without it the parameters are the k values themselves.
    Sparse files become sparse-matvec oracles, dense files are held
    densified.
    """
    root = Path(path)
    if not root.is_dir():
        raise InvalidInput(f"not a directory: {path}")
    found = {}
    for entry in root.iterdir():
        match = _STEP_FILE.fullmatch(entry.name)
        if match:
            found[int(match.group(1))] = entry
    if not found:
        raise InvalidInput(f"no step_<k>.mtx files in {path}")
    keys = sorted(found)

    oracles = []
    shape = None
    for k in keys:
        entry = found[k]
        try:
            kind, mat = read_matrix_market(entry)
        except ParseError as exc:
            raise ParseError(f"{entry.name}: {exc}", line=exc.line) from exc
        if shape is None:
            shape = mat.shape
        elif mat.shape != shape:
            raise InvalidInput(
                f"{entry.name}: dimensions {mat.shape} differ from "
                f"{shape} of earlier files")
        oracles.append(SparseOracle(mat) if kind == "coordinate"
                       else DenseOracle(mat))

    params_file = root / "params.txt"
    if params_file.exists():
        with open(params_file, encoding="utf-8") as f:
            plines = [(i, ln.strip()) for i, ln in
                      enumerate(f.read().splitlines(), start=1)]
        try:
            params = [_parse_real(ln, i) for i, ln in plines if ln]
        except ParseError as exc:
            raise ParseError(f"{params_file.name}: {exc}",
                             line=exc.line) from exc
        if len(params) != len(keys):
            raise InvalidInput(
                f"params.txt has {len(params)} values for "
                f"{len(keys)} matrices")
    else:
        params = [float(k) for k in keys]

    return ParamMatrixSequence(np.asarray(params),
                               lambda j: oracles[j], shape)


# -- CSV traces ----------------------------------------------------------

def _fmt_opt(x):
    return "" if x is None else repr(float(x))


def write_trace_csv(traces, path):
    """Write step traces as CSV with the fixed header.

    Missing optional errors become empty fields; floats use shortest
    round-trip decimals. Unwritable paths raise the propagated OSError.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for tr in traces:
            writer.writerow([tr.step, _fmt_opt(tr.t), tr.rank,
                             _fmt_opt(tr.est_rel_err),
                             _fmt_opt(tr.true_rel_err), tr.action,
                             tr.h1_cum, tr.h2_cum, tr.matvecs,
                             _fmt_opt(tr.wall_ms), tr.entries_read])


def read_trace_csv(path):
    """Parse a trace CSV written by :func:`write_trace_csv`."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if header != CSV_HEADER.split(","):
            raise ParseError(f"unexpected header {','.join(header)!r}",
                             line=1)
        traces = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}",
                    line=lineno)
            try:
                traces.append(StepTrace(
                    step=int(row[0]), t=float(row[1]), rank=int(row[2]),
                    est_rel_err=None if row[3] == "" else float(row[3]),
                    true_rel_err=None if row[4] == "" else float(row[4]),
                    action=row[5], h1_cum=int(row[6]), h2_cum=int(row[7]),
                    matvecs=int(row[8]), wall_ms=float(row[9]),
                    entries_read=int(row[10])))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    return traces
