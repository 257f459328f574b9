"""Dense symmetric linear algebra with deterministic, tolerance-driven behavior.

The eigensolver is LAPACK ``eigh`` (through numpy) followed by a fixed sign
normalization, so identical input bits give identical output bits on one
installation; reproducible certificates and reports rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceError", "SymMatrix"]

# asymmetry SymMatrix symmetrizes away, relative to max(1, ||A||_F)
_SYMMETRY_RTOL = 1e-9
# off-diagonal magnitude is_diagonal treats as zero, relative to max(1, ||A||_F)
_DIAGONAL_RTOL = 1e-12


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge."""


class SymMatrix:
    """Dense symmetric n-by-n real matrix.

    Entries are symmetrized as (A + A^T)/2 on construction; asymmetry beyond
    _SYMMETRY_RTOL * max(1, ||A||_F) is rejected as an input error, as are
    entries so large that the norm or the symmetrization overflows.
    The stored array is read-only.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(a))
        if not np.isfinite(norm):
            raise ValueError(
                "matrix entries are too large: the Frobenius norm overflows"
            )
        scale = max(1.0, norm)
        skew = float(np.abs(a - a.T).max()) if a.size else 0.0
        if skew > _SYMMETRY_RTOL * scale:
            raise ValueError(
                f"matrix is not symmetric (max |a_ij - a_ji| = {skew:g})"
            )
        sym = (a + a.T) / 2.0
        if not np.all(np.isfinite(sym)):
            raise ValueError("matrix entries are too large: symmetrization overflows")
        sym.setflags(write=False)
        object.__setattr__(self, "a", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def norm_fro(self) -> float:
        return float(np.linalg.norm(self.a))

    def quad(self, x: np.ndarray) -> float:
        """The quadratic form <Ax, x>."""
        x = np.asarray(x, dtype=float)
        return float(x @ self.a @ x)

    def __repr__(self):
        return f"SymMatrix({self.a.tolist()!r})"

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash(self.a.tobytes())


def as_sym_matrix(a) -> SymMatrix:
    """Coerce an array-like or SymMatrix to SymMatrix."""
    if isinstance(a, SymMatrix):
        return a
    return SymMatrix(a)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with an orthonormal, sign-normalized basis.

    ``vectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``; in each
    column the entry of largest magnitude is nonnegative.  ``residual`` is
    the Frobenius norm of A - V diag(w) V^T.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def scale(self) -> float:
        """Frobenius norm of the decomposed matrix."""
        return float(np.linalg.norm(self.eigenvalues))


def eigen_decompose(A: SymMatrix) -> EigenSystem:
    """Full eigendecomposition by LAPACK ``eigh``, sign-normalized.

    Raises ConvergenceError when LAPACK reports non-convergence.
    """
    A = as_sym_matrix(A)
    try:
        w, v = np.linalg.eigh(A.a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc

    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]

    # deterministic sign: largest-magnitude entry of each column is >= 0
    flip = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0.0
    v *= np.where(flip, -1.0, 1.0)

    residual = float(np.linalg.norm(A.a - (v * w) @ v.T))
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenSystem(eigenvalues=w, vectors=v, residual=residual)


def _max_offdiag(a: np.ndarray) -> float:
    n = a.shape[0]
    if n < 2:
        return 0.0
    mask = ~np.eye(n, dtype=bool)
    return float(np.abs(a[mask]).max())


def cluster_tol(scale: float) -> float:
    """Largest gap at which two eigenvalues of a matrix with Frobenius norm
    ``scale`` count as one; eigen_decompose's round-off grows with the norm."""
    return 1e-8 * max(1.0, scale)


def cluster_eigenvalues(E: EigenSystem) -> list:
    """Merge consecutive eigenvalues within cluster_tol(||A||_F) into
    clusters: a list of (value, multiplicity), values strictly increasing.

    Merging is transitive: a chain of gaps each below the tolerance forms a
    single cluster.  A cluster's value is the mean of its members.
    """
    w = E.eigenvalues
    cut = np.flatnonzero(np.diff(w) > cluster_tol(E.scale())) + 1
    bounds = [0, *cut.tolist(), w.size]
    # a singleton's mean is its value; skipping .mean() there is bit-identical
    return [
        (float(w[s:e].mean()) if e - s > 1 else float(w[s]), e - s)
        for s, e in zip(bounds, bounds[1:])
    ]


def is_diagonal(A: SymMatrix) -> bool:
    """True iff every off-diagonal magnitude is at most
    _DIAGONAL_RTOL * max(1, ||A||_F)."""
    A = as_sym_matrix(A)
    return _max_offdiag(A.a) <= _DIAGONAL_RTOL * max(1.0, A.norm_fro())
