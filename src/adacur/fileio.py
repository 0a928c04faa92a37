"""Matrix Market sequence ingestion and CSV trace output.

The Matrix Market support is deliberately small: real general
matrices in array or coordinate format, with parse failures reported
by line number and explicitly stored zeros kept as structural entries
(scipy's reader offers neither). A well-formed body, one value or entry
per line between any blank and comment lines, is parsed in one
``np.loadtxt`` call; any other body falls back to a line-by-line scan
that yields the same matrix or the :class:`ParseError` naming the bad
line. A coordinate size line above :data:`MAX_COORDINATE_DIM` rows or
columns is refused before anything is allocated. The writer formats a
whole body in one join. CSV traces round-trip losslessly.
"""

import csv
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .driver import StepTrace
from .errors import InvalidInput, ParseError
from .oracles import DenseOracle, ParamMatrixSequence, SparseOracle

__all__ = ["read_matrix_market", "write_matrix_market",
           "load_sequence_dir", "write_trace_csv", "read_trace_csv",
           "CSV_HEADER"]

_FIELDS = dataclasses.fields(StepTrace)
CSV_HEADER = ",".join(f.name for f in _FIELDS)


# -- Matrix Market -------------------------------------------------------

#: Largest row or column count a coordinate file may declare. The sparse
#: assembly allocates index pointers sized by the dimensions, not by the
#: file, so a larger size line is refused before anything is allocated.
MAX_COORDINATE_DIM = 10 ** 8

# array sizes are bounded by the values the file holds; this limit only
# keeps their indices inside the index dtype
_MAX_ARRAY_DIM = np.iinfo(np.intp).max

_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])


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
    fmt, size, start = _read_head(lines)
    mat = _bulk_body(fmt, size, lines, start)
    if mat is None:
        mat = _scan_body(fmt, size, lines, start, len(text))
    return fmt, mat


def _read_head(lines):
    """Check the banner and size line.

    Returns the format, the sizes it declares (``(m, n)`` for array,
    ``(m, n, nnz)`` for coordinate) and the index of the first line
    after the size line.
    """
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

    first = next(_tokens(lines, 1), None)
    if first is None:
        raise ParseError("missing size line", line=len(lines))
    lineno, size = first
    if fmt == "array":
        if len(size) != 2:
            raise ParseError("array size line must be 'rows cols'",
                             line=lineno)
        return fmt, _parse_dims(size, lineno, _MAX_ARRAY_DIM), lineno
    if len(size) != 3:
        raise ParseError("coordinate size line must be 'rows cols nnz'",
                         line=lineno)
    m, n = _parse_dims(size[:2], lineno, MAX_COORDINATE_DIM)
    nnz = _parse_count(size[2], lineno)
    if nnz < 0:
        raise ParseError(f"nnz must be non-negative, got {nnz}", line=lineno)
    return fmt, (m, n, nnz), lineno


def _bulk_body(fmt, size, lines, start):
    """Parse a body of one value or entry per line in one numpy call.

    Blank and comment lines are dropped, as the scan skips them, when
    the body's line count is not the declared one. Returns None for any
    body it does not take as well formed: a data line count other than
    the declared one, ragged lines, non-ASCII text, an index out of
    range, or any token numpy rejects (it is stricter than ``int()`` and
    ``float()``, for ``1_0`` say). The line scan then gives the same
    matrix or the error with its line, so whatever this returns equals
    the scan's result bit for bit.
    """
    body = lines[start:]
    count = size[0] * size[1] if fmt == "array" else size[2]
    if len(body) != count:
        body = [line for line in body if line.strip()[:1] not in ("", "%")]
    # numpy 2.4's integer parser can crash on a non-ASCII character (a
    # segfault for U+10FFFF in an index field), so only ASCII goes to it
    if count == 0 or len(body) != count or not all(map(str.isascii, body)):
        return None
    try:
        # no comment character, as loadtxt would drop text after it; a
        # warning (an all-blank body) declines like an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt(body, dtype=float if fmt == "array"
                                else _ENTRY, comments=None, ndmin=1)
    except Exception:  # whatever numpy refuses, the scan decides
        return None
    if parsed.shape != (count,):
        return None
    if fmt == "array":
        return parsed.reshape(size, order="F")
    m, n, _ = size
    i, j = parsed["i"], parsed["j"]
    if not (1 <= i.min() and i.max() <= m and 1 <= j.min() and j.max() <= n):
        return None
    return _assemble(i - 1, j - 1, parsed["v"], m, n)


def _scan_body(fmt, size, lines, start, text_len):
    """Parse the body line by line, raising at the first bad line.

    The reference parse: it accepts every body :func:`_bulk_body` does
    and more, and gives the line number of whatever it rejects.
    """
    body = _tokens(lines, start)
    if fmt == "array":
        m, n = size
        # each value takes at least one character of the file, which
        # bounds the buffers here and below whatever the size line says
        vals = np.empty(min(m * n, text_len))
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
        return vals.reshape((m, n), order="F")

    m, n, nnz = size
    cap = min(nnz, text_len)
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
    return _assemble(rows, cols, vals, m, n)


def _assemble(rows, cols, vals, m, n):
    """CSR of 0-based entries, duplicates summed and zeros kept."""
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)))


def _parse_dims(toks, lineno, limit):
    m = _parse_count(toks[0], lineno)
    n = _parse_count(toks[1], lineno)
    if m < 1 or n < 1:
        raise ParseError(f"dimensions must be positive, got {m}x{n}",
                         line=lineno)
    if max(m, n) > limit:
        raise ParseError(f"dimensions {m}x{n} exceed the limit {limit}",
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


def _parse_param(tok, lineno):
    value = _parse_real(tok, lineno)
    if not np.isfinite(value):
        raise ParseError(f"parameter must be finite, got {tok!r}", lineno)
    return value


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
    # %r of a Python float is its shortest round-trip repr
    if fmt == "array":
        dense = np.asarray(a.toarray() if sp.issparse(a) else a, dtype=float)
        m, n = dense.shape
        size = f"{m} {n}"
        body = map("%r\n".__mod__, dense.ravel(order="F").tolist())
    else:
        coo = sp.coo_matrix(a)
        size = f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"
        body = map("%d %d %r\n".__mod__,
                   zip((coo.row + 1).tolist(), (coo.col + 1).tolist(),
                       coo.data.astype(float).tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"%%MatrixMarket matrix {fmt} real general\n{size}\n")
        f.write("".join(body))


_STEP_FILE = re.compile(r"step_(\d+)\.mtx")


def load_sequence_dir(path):
    """Build a matrix sequence from ``step_<k>.mtx`` files in a directory.

    Files are ordered by the integer k in their names; two names with
    the same k (``step_1.mtx`` and ``step_01.mtx``) raise
    :class:`InvalidInput` naming both. An optional ``params.txt``
    supplies one parameter value per line (finite and strictly
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
        if not match:
            continue
        k = int(match.group(1))
        if k in found:
            names = sorted([found[k].name, entry.name])
            raise InvalidInput(f"{names[0]} and {names[1]} are both step {k}")
        found[k] = entry
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
            raise ParseError(f"{entry.name}: {exc.detail}",
                             line=exc.line) from exc
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
            params = [_parse_param(ln, i) for i, ln in plines if ln]
        except ParseError as exc:
            raise ParseError(f"{params_file.name}: {exc.detail}",
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

def _format_field(field, value):
    """One value as a CSV cell; floats round-trip, a missing one is ''.

    A cell holding a comma, a quote or a line break is quoted. The csv
    module's writer would leave a lone carriage return bare, and its
    reader would then end the row there.
    """
    if field.type in (float, float | None):
        return "" if value is None else repr(float(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_field(field, text):
    """One CSV cell as the type ``field`` declares; '' is a missing float."""
    if field.type == float | None:
        return None if text == "" else float(text)
    return field.type(text)


def write_trace_csv(traces, path):
    """Write step traces as CSV, one column per :class:`StepTrace` field.

    Missing optional floats become empty fields; floats use shortest
    round-trip decimals. Unwritable paths raise the propagated OSError.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for tr in traces:
            f.write(",".join(_format_field(fld, getattr(tr, fld.name))
                             for fld in _FIELDS) + "\n")


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
                traces.append(StepTrace(*(_parse_field(fld, text)
                                          for fld, text in zip(_FIELDS, row))))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    return traces
