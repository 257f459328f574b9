"""The single interchange format: a JSON document with fields ``n``, ``rows``
and an optional ``name``.  Floats are serialized with full precision so a
write/read round trip reproduces entries bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .linalg import SymMatrix

# the interpreter's built-in SHA-256: hashlib would load OpenSSL's _hashlib,
# 2-4 ms of every analyze process, for one digest of the same bytes
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without it
        from hashlib import sha256

__all__ = ["MatrixDocument", "loads", "load_path", "dumps"]


class MatrixDocument:
    """A matrix with an optional instance name; immutable."""

    __slots__ = ("matrix", "name")

    def __init__(self, matrix: SymMatrix, name: str | None = None):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixDocument is immutable")

    def digest(self) -> str:
        """Stable hash of the document content."""
        payload = json.dumps(
            {"n": self.matrix.n, "rows": self.matrix.a.tolist()},
            separators=(",", ":"),
        )
        return sha256(payload.encode()).hexdigest()[:16]


def loads(text: str) -> MatrixDocument:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # a document nested deeper than the parser's recursion limit is
        # malformed input, not a numerical failure
        raise ValueError(f"malformed matrix document: {exc}") from exc
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError("matrix document must be an object with a 'rows' field")
    rows = doc["rows"]
    if not isinstance(rows, list):
        raise ValueError("'rows' must be a list of rows")
    n = doc.get("n", len(rows))
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"'n' must be an integer, got {n!r}")
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("'rows' must be a list of rows")
    # numpy would also convert numeric strings and booleans
    if not all(type(v) in (int, float) for row in rows for v in row):
        raise ValueError("'rows' must hold JSON numbers only")
    try:
        arr = np.array(rows, dtype=float)
    except (OverflowError, ValueError) as exc:
        # ragged rows, or an integer beyond the float range
        raise ValueError(f"'rows' must be a square array of floats: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (n, n):
        raise ValueError(f"'rows' must be a {n}x{n} array, got shape {arr.shape}")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("'name' must be a string")
    return MatrixDocument(matrix=SymMatrix(arr), name=name)


def load_path(path) -> MatrixDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(A: SymMatrix, name: str | None = None) -> str:
    doc = {"n": A.n, "rows": A.a.tolist()}
    if name is not None:
        doc["name"] = name
    return json.dumps(doc, indent=2) + "\n"
