"""Dense symmetric linear algebra with deterministic, tolerance-driven behavior.

The eigensolver is LAPACK ``eigh`` (through numpy) followed by a fixed sign
normalization, so identical input bits give identical output bits on one
installation; reproducible certificates and reports rely on that.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ConvergenceError", "SymMatrix"]

# asymmetry SymMatrix symmetrizes away, relative to ||A||_F at every scale
_SYMMETRY_RTOL = 1e-9
# a sum of squares at or above this lost at most n^2 2^-1075 to squares that
# underflow, far below its last bit; below it _frobenius rescales first
_NORMAL_SUM = 1e-290


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge."""


class SymMatrix:
    """Dense symmetric n-by-n real matrix.

    Entries are symmetrized as (A + A^T)/2 on construction; asymmetry beyond
    _SYMMETRY_RTOL * ||A||_F is rejected as an input error, as are
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
            norm = _frobenius(a.ravel(order="K"))
        if not np.isfinite(norm):
            raise ValueError(
                "matrix entries are too large: the Frobenius norm overflows"
            )
        skew = float(np.abs(a - a.T).max())
        if skew > _SYMMETRY_RTOL * norm:
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
        return _frobenius(self.a.ravel(order="K"))

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


def centred(A: SymMatrix) -> tuple[float, SymMatrix, float]:
    """(tau, B, sigma): tau = tr A / n, B = A - tau I, sigma = ||B||_F, the
    one scale of certify, which A -> tA + sI (t > 0) multiplies by t.  B, a
    copy less tau on the diagonal, is exactly symmetric: no re-validation."""
    b = A.a.copy()
    tau = float(np.add.reduce(b.diagonal())) / A.n  # .trace()'s arithmetic
    flat = b.reshape(-1)
    flat[:: A.n + 1] -= tau
    b.setflags(write=False)
    B = object.__new__(SymMatrix)
    object.__setattr__(B, "a", b)
    return tau, B, _frobenius(flat)


def _frobenius(flat: np.ndarray) -> float:
    """The 2-norm of the 1-d ``flat``: np.linalg.norm's arithmetic while the
    sum of squares is at least _NORMAL_SUM, or when every entry is zero.
    Below it squares underflow (all of them at 2^-700 A), so the entries are
    first scaled by the power of two of their largest magnitude, which is
    exact."""
    ss = float(flat.dot(flat))
    if ss >= _NORMAL_SUM or not np.count_nonzero(flat):
        return math.sqrt(ss)
    e = math.frexp(float(abs(flat).max()))[1]
    scaled = np.ldexp(flat, -e)
    return math.ldexp(math.sqrt(float(scaled.dot(scaled))), e)


class EigenSystem:
    """Ascending eigenvalues with an orthonormal, sign-normalized basis.

    ``vectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``; in each
    column the entry m of largest magnitude is nonnegative.  So a column v
    fits the orthant up to tol >= 0 whenever -v does: max v <= tol gives
    v >= -m >= -tol.  Immutable.
    """

    __slots__ = ("eigenvalues", "vectors")

    def __init__(self, eigenvalues: np.ndarray, vectors: np.ndarray):
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("EigenSystem is immutable")


def eigen_decompose(A: SymMatrix) -> EigenSystem:
    """Full eigendecomposition by LAPACK ``eigh``, sign-normalized.

    ``eigh`` returns the eigenvalues in ascending order, so they are kept as
    returned.  Raises ConvergenceError when LAPACK reports non-convergence.
    """
    A = as_sym_matrix(A)
    try:
        w, v = np.linalg.eigh(A.a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc

    # deterministic sign: largest-magnitude entry of each column is >= 0
    flip = v[abs(v).argmax(axis=0), np.arange(v.shape[1])] < 0.0
    v *= np.where(flip, -1.0, 1.0)

    w.setflags(write=False)
    v.setflags(write=False)
    return EigenSystem(eigenvalues=w, vectors=v)


def cluster_eigenvalues(w: np.ndarray, tol: float) -> list:
    """Merge consecutive values of the ascending array ``w`` whose gap is at
    most ``tol`` into clusters: a list of (value, multiplicity), values
    strictly increasing.

    Merging is transitive: a chain of gaps each below the tolerance forms a
    single cluster.  A cluster's value is the mean of its members.
    """
    cut = ((w[1:] - w[:-1] > tol).nonzero()[0] + 1).tolist()
    bounds = [0, *cut, w.size]
    # w[1:] - w[:-1] is np.diff's arithmetic and add.reduce over the count
    # .mean()'s, without their Python layers; a singleton's mean is its value
    return [
        (float(np.add.reduce(w[s:e])) / (e - s) if e - s > 1 else float(w[s]), e - s)
        for s, e in zip(bounds, bounds[1:])
    ]
