"""File formats and formatting helpers.

Problem and scenario files are JSON. Matrices are stored as row-major
flat lists; Python's float repr is shortest-round-trip, so a file that
``json.dumps`` wrote loads back bit exact. ``write_csv`` is the one
table writer: every CSV the package writes (trajectories, benchmark
rows, closed-loop steps, visited vertices) goes through it. All writes
go through a temp file in the target directory followed by an atomic
rename.
"""

import json
import math
import os
import tempfile

import numpy as np

from .errors import FileFormatError

__all__ = [
    "fmt", "atomic_write_text", "write_csv", "load_qp",
    "load_mpc_scenario", "load_binary_problem",
]


def fmt(v) -> str:
    """Decimal text for a float with 17 significant digits (round-trip
    exact for IEEE doubles)."""
    return f"{float(v):.17g}"


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, header: str, rows) -> None:
    """Write ``header`` and one comma-joined line per row, atomically.
    A ``str`` cell is written as it is, a Python ``int`` (a count, a
    seed, an index) in full, and any other cell through ``fmt`` (NaN
    as ``nan``)."""
    lines = [header] + [",".join(str(c) if isinstance(c, (str, int))
                                 else fmt(c) for c in row) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise FileFormatError("file", str(e)) from e
    except json.JSONDecodeError as e:
        raise FileFormatError("json", str(e)) from e


def _get(doc, field, kind=None):
    if field not in doc:
        raise FileFormatError(field, "missing")
    val = doc[field]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise FileFormatError(field, "expected an integer")
    if kind is float:
        if (not isinstance(val, (int, float)) or isinstance(val, bool)
                or not math.isfinite(val)):
            raise FileFormatError(field, "expected a finite number")
    return val


def _is_numbers(val):
    """val is a number or a (nested) list of numbers; a bool or a
    numeric string is neither."""
    if isinstance(val, list):
        return all(_is_numbers(v) for v in val)
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _floats(doc, field):
    """A number or a (nested) list of numbers -> flat float array; every
    entry must be finite (JSON NaN and Infinity are rejected)."""
    raw = _get(doc, field)
    if not _is_numbers(raw):
        raise FileFormatError(field, "expected numbers")
    try:
        arr = np.asarray(raw, dtype=float).reshape(-1)
    except (TypeError, ValueError) as e:
        raise FileFormatError(field, str(e)) from e
    if not np.all(np.isfinite(arr)):
        raise FileFormatError(field, "entries must be finite")
    return arr


def _matrix(doc, field, rows, cols):
    """Row-major flat list -> (rows, cols) array, dimension checked."""
    arr = _floats(doc, field)
    if arr.size != rows * cols:
        raise FileFormatError(
            field, f"expected {rows * cols} entries, got {arr.size}")
    return arr.reshape(rows, cols)


def _vector(doc, field, size):
    return _matrix(doc, field, size, 1).reshape(size)


def load_qp(path):
    """Read a QP file with fields n, nc, H, F, A, B; returns QpData."""
    from .qp import QpData
    doc = _load_json(path)
    n = _get(doc, "n", int)
    nc = _get(doc, "nc", int)
    if n < 1:
        raise FileFormatError("n", "must be >= 1")
    if nc < 0:
        raise FileFormatError("nc", "must be >= 0")
    return QpData(
        H=_matrix(doc, "H", n, n),
        F=_vector(doc, "F", n),
        A=_matrix(doc, "A", nc, n) if nc else np.zeros((0, n)),
        B=_vector(doc, "B", nc) if nc else np.zeros(0),
    )


def load_mpc_scenario(path):
    """Read an MPC scenario: plant (A_d, B_d), horizon, u_max, weights
    Q, R, P, plus optional xi0 and steps. Returns a plain dict of arrays
    and scalars for mpc.condense to consume."""
    doc = _load_json(path)
    plant = _get(doc, "plant")
    if not isinstance(plant, dict):
        raise FileFormatError("plant", "expected an object")
    n_xi = _get(plant, "n_xi", int)
    n_u = _get(plant, "n_u", int)
    if n_xi < 1 or n_u < 1:
        raise FileFormatError("plant", "dimensions must be >= 1")
    A_d = _matrix(plant, "A_d", n_xi, n_xi)
    B_d = _matrix(plant, "B_d", n_xi, n_u)
    N = _get(doc, "horizon", int)
    if N < 1:
        raise FileFormatError("horizon", "must be >= 1")
    u_max = float(_get(doc, "u_max", float))
    if u_max < 0.0:
        raise FileFormatError("u_max", "must be >= 0")
    out = {
        "A_d": A_d, "B_d": B_d, "N": N, "u_max": u_max,
        "Q": _matrix(doc, "Q", n_xi, n_xi),
        "R": _matrix(doc, "R", n_u, n_u),
        "P": _matrix(doc, "P", n_xi, n_xi),
    }
    out["xi0"] = (_vector(doc, "xi0", n_xi) if "xi0" in doc
                  else np.zeros(n_xi))
    steps = doc.get("steps", 60)
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise FileFormatError("steps", "must be a positive integer")
    out["steps"] = steps
    return out


def load_binary_problem(path):
    """Read a binary problem: n, quadratic objective (H, F), optional
    native linear constraints (A, B). Returns the Problem that
    ``binary.binary_quadratic`` builds from them."""
    from .binary import binary_quadratic
    doc = _load_json(path)
    n = _get(doc, "n", int)
    if n < 1:
        raise FileFormatError("n", "must be >= 1")
    H = _matrix(doc, "H", n, n)
    F = _vector(doc, "F", n)
    if ("A" in doc) != ("B" in doc):
        raise FileFormatError("A", "A and B must be given together")
    if "A" in doc:
        raw = _floats(doc, "A")
        if raw.size % n != 0:
            raise FileFormatError("A", f"size not a multiple of n={n}")
        nbar = raw.size // n
        A = raw.reshape(nbar, n)
        B = _vector(doc, "B", nbar)
    else:
        A, B = None, None
    return binary_quadratic(H, F, A, B)
