"""Plain-text matrix files and solution serialization.

Format: the first non-comment line holds ``rows cols``; each following
line holds one row of whitespace-separated decimal floats.  Files are
UTF-8 with LF newlines.  Values are written with 17 significant digits,
which round-trips float64 exactly.  Lines starting with ``#`` carry
``key=value`` metadata and are skipped by the matrix reader.
"""

import numpy as np

from .errors import MatrixParseError
from .matcore import as_matrix


def format_float(x):
    """Shortest decimal form with enough digits to round-trip float64."""
    return "%.17g" % float(x)


def format_matrix(M, header=None):
    """The text form of ``M``, ending in a newline.

    Parameters
    ----------
    M : array_like, shape (rows, cols)
    header : dict, optional
        Written as ``# key=value`` lines before the dimension line.
    """
    M = as_matrix(M, "matrix to write")
    lines = ["# %s=%s" % kv for kv in (header or {}).items()]
    lines.append("%d %d" % M.shape)
    for row in M:
        lines.append(" ".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(path, M, header=None):
    """Write ``format_matrix(M, header)`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_matrix(M, header))


def read_matrix(path):
    """Read a matrix written by ``write_matrix``.

    Raises MatrixParseError naming the 1-based line number on any
    malformed content: bad dimension line, wrong entry count in a row,
    unparseable floats, or missing rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")

    body = [(i + 1, line) for i, line in enumerate(raw) if not line.startswith("#")]
    # drop trailing blank lines but reject blanks inside the body
    while body and body[-1][1].strip() == "":
        body.pop()
    if not body:
        raise MatrixParseError("%s: no dimension line found" % path)

    lineno, dim_line = body[0]
    parts = dim_line.split()
    if len(parts) != 2:
        raise MatrixParseError(
            "%s: line %d: expected 'rows cols', got %r" % (path, lineno, dim_line)
        )
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixParseError(
            "%s: line %d: dimensions must be integers, got %r" % (path, lineno, dim_line)
        ) from None
    if rows <= 0 or cols <= 0:
        raise MatrixParseError(
            "%s: line %d: dimensions must be positive, got %d %d" % (path, lineno, rows, cols)
        )

    data_lines = body[1:]
    if len(data_lines) != rows:
        raise MatrixParseError(
            "%s: expected %d data rows, found %d" % (path, rows, len(data_lines))
        )
    out = np.empty((rows, cols), dtype=float)
    for i, (lineno, line) in enumerate(data_lines):
        fields = line.split()
        if len(fields) != cols:
            raise MatrixParseError(
                "%s: line %d: expected %d entries, got %d" % (path, lineno, cols, len(fields))
            )
        try:
            out[i] = [float(f) for f in fields]
        except ValueError:
            raise MatrixParseError(
                "%s: line %d: could not parse a float in %r" % (path, lineno, line)
            ) from None
    return out


def read_header(path):
    """Return the ``# key=value`` metadata lines of a file as a dict."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
    return meta


def solution_header(sol):
    """The ``# key=value`` metadata of a PsdpSolution, as a dict of strings."""
    header = {"objective": format_float(sol.objective)}
    if sol.infimum is not None:
        header["infimum"] = format_float(sol.infimum)
    if sol.attained is not None:
        header["attained"] = "true" if sol.attained else "false"
    if sol.epsilon is not None:
        header["epsilon"] = format_float(sol.epsilon)
    return header


def write_solution(path, sol):
    """Serialize a PsdpSolution: metadata header then the matrix A."""
    write_matrix(path, sol.A, header=solution_header(sol))
