"""Matrix-cone machinery for the nonnegative orthant: Z-pattern and
irreducibility predicates, Perron dominant pairs, the full Pareto spectrum by
support enumeration, and the copositivity verdict derived from it.

The supports of one size are enumerated in chunks, each chunk's principal
submatrices decomposed by one stacked LAPACK ``eigh`` call and its acceptance
tests run on whole arrays.  Every submatrix is decomposed exactly as a lone
``eigh`` call would decompose it, so the spectrum does not depend on the
chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, takewhile

import numpy as np

from .linalg import (
    ConvergenceError,
    SymMatrix,
    as_sym_matrix,
    eigen_decompose,
)

__all__ = [
    "ParetoEigenpair",
    "ParetoSpectrum",
    "PerronPair",
    "is_z_matrix",
    "is_irreducible",
    "perron_pair",
    "pareto_spectrum",
    "is_copositive",
    "check_kz_property",
]

# slack on (Ax - lambda x)_i >= 0 outside the support
_SLACK_TOL = 1e-9
# slack on eigenvector nonnegativity
_NONNEG_TOL = 1e-10
# strict positivity floor inside the support (boundary vectors are covered by
# smaller supports in the enumeration)
_STRICT_TOL = 1e-12
# supports per stacked eigh call: bounds memory at any max_exact_dim (4096
# submatrices of size 16 take 8 MB)
_CHUNK = 4096

DEFAULT_MAX_EXACT_DIM = 16


@dataclass(frozen=True)
class ParetoEigenpair:
    """Pareto eigenvalue with a supporting unit vector.

    ``vector`` is nonnegative with unit norm, strictly positive exactly on
    ``support`` (0-based indices); (A - value I) vector vanishes on the support
    and is nonnegative off it, up to the documented slacks.
    """

    value: float
    vector: np.ndarray
    support: tuple


@dataclass(frozen=True)
class ParetoSpectrum:
    """All Pareto eigenpairs of a symmetric matrix, values ascending."""

    pairs: list
    min_value: float
    exact: bool


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue of a nonnegative matrix with a nonnegative unit
    eigenvector."""

    value: float
    vector: np.ndarray


def is_z_matrix(A: SymMatrix, tol: float = _NONNEG_TOL) -> bool:
    """True iff all off-diagonal entries are at most ``tol``."""
    A = as_sym_matrix(A)
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if A.n < 2:
        return True
    off = A.a[~np.eye(A.n, dtype=bool)]
    return bool(off.max() <= tol)


def is_irreducible(A: SymMatrix) -> bool:
    """Connectivity of the sparsity graph (edges where |a_ij| > 1e-12, i != j).

    For symmetric matrices reducibility is exactly disconnection of this graph.
    """
    A = as_sym_matrix(A)
    n = A.n
    if n == 1:
        return True
    adj = np.abs(A.a) > 1e-12
    np.fill_diagonal(adj, False)
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(adj[i]):
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


def perron_pair(A: SymMatrix) -> PerronPair:
    """Dominant eigenpair of an entrywise-nonnegative symmetric matrix."""
    A = as_sym_matrix(A)
    if float(A.a.min()) < -1e-12:
        raise ValueError("matrix must be entrywise nonnegative")
    E = eigen_decompose(A)
    lam = float(E.eigenvalues[-1])
    v = E.vectors[:, -1].copy()
    if v.sum() < 0:
        v = -v
    if float(v.min()) < -_NONNEG_TOL:
        # mixed signs can appear when the dominant eigenvalue is degenerate;
        # shifted power iteration recovers a nonnegative representative
        lam, v = _power_iteration(A)
    return PerronPair(value=lam, vector=v)


def _power_iteration(A: SymMatrix, cap: int = 10_000):
    shift = A.norm_fro()
    b = A.a + shift * np.eye(A.n)
    x = np.full(A.n, 1.0 / np.sqrt(A.n))
    for _ in range(cap):
        y = b @ x
        nrm = float(np.linalg.norm(y))
        if nrm == 0.0:
            break  # A is the zero matrix; any nonnegative unit vector works
        y /= nrm
        if float(np.linalg.norm(y - x)) <= 1e-14:
            x = y
            break
        x = y
    else:
        raise ConvergenceError("power iteration did not converge")
    lam = float(x @ A.a @ x)
    if float(np.linalg.norm(A.a @ x - lam * x)) > 1e-8 * max(1.0, A.norm_fro()):
        raise ConvergenceError("power iteration residual too large")
    return lam, x


def pareto_spectrum(
    A: SymMatrix,
    max_exact_dim: int = DEFAULT_MAX_EXACT_DIM,
    slack_tol: float = _SLACK_TOL,
) -> ParetoSpectrum:
    """Exact Pareto spectrum by enumerating all nonempty supports.

    For every support J the principal submatrix is eigendecomposed (one
    stacked ``eigh`` call per chunk of supports of one size); eigenpairs
    whose (sign-flipped) eigenvector is strictly positive on J and whose
    zero-extension keeps (Ax - lambda x) nonnegative off J are kept.
    """
    A = as_sym_matrix(A)
    _check_cap(A.n, max_exact_dim)
    found = list(_pareto_pairs(A.a, slack_tol))
    found.sort(key=lambda p: (p.value, p.support))
    pairs = _dedupe(found)
    if not pairs:
        raise ConvergenceError("empty Pareto spectrum; tolerances too tight")
    return ParetoSpectrum(pairs=pairs, min_value=pairs[0].value, exact=True)


def _check_cap(n: int, max_exact_dim: int) -> None:
    if n > max_exact_dim:
        raise ValueError(
            f"dimension {n} exceeds max_exact_dim={max_exact_dim}; "
            "use the sampling minimizer instead"
        )


def _pareto_pairs(a: np.ndarray, slack_tol: float):
    """Yield the accepted Pareto eigenpairs of ``a``, support size by size
    and, within a size, in lexicographic support order."""
    n = a.shape[0]
    for size in range(1, n + 1):
        supports = combinations(range(n), size)
        while True:
            chunk = np.array(list(islice(supports, _CHUNK)), dtype=np.intp)
            if chunk.size == 0:
                break
            yield from _chunk_pairs(a, chunk, slack_tol)


def _chunk_pairs(a: np.ndarray, chunk: np.ndarray, slack_tol: float):
    """Accepted pairs of the supports in ``chunk`` (one support per row)."""
    n = a.shape[0]
    try:
        w, v = np.linalg.eigh(a[chunk[:, :, None], chunk[:, None, :]])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    # sign +1 / -1 when u / -u is strictly positive on the support; a zero
    # inside the support makes a boundary vector, which is the interior
    # vector of a smaller support
    sign = np.where(v.min(axis=1) > _STRICT_TOL, 1.0, 0.0)
    sign[v.max(axis=1) < -_STRICT_TOL] = -1.0
    rows, ks = np.nonzero(sign)
    if rows.size == 0:
        return
    lam = w[rows, ks]
    cols = chunk[rows]
    X = np.zeros((rows.size, n))
    line = np.arange(rows.size)[:, None]
    X[line, cols] = v[rows, :, ks] * sign[rows, ks][:, None]
    resid = X @ a - lam[:, None] * X
    resid[line, cols] = np.inf
    keep = resid.min(axis=1) >= -slack_tol
    for j in np.flatnonzero(keep):
        yield ParetoEigenpair(float(lam[j]), X[j], tuple(cols[j].tolist()))


def _dedupe(pairs, value_tol: float = 1e-9, vector_tol: float = 1e-7):
    """Drop near-duplicates from ``pairs`` sorted by ascending value; a pair
    can only duplicate one of the trailing kept pairs within ``value_tol``."""
    kept = []
    for p in pairs:
        recent = takewhile(lambda q: p.value - q.value <= value_tol, reversed(kept))
        if not any(
            float(np.linalg.norm(p.vector - q.vector)) <= vector_tol for q in recent
        ):
            kept.append(p)
    return kept


def is_copositive(
    A: SymMatrix,
    max_exact_dim: int = DEFAULT_MAX_EXACT_DIM,
    tol: float = _SLACK_TOL,
) -> bool:
    """True iff the minimum of <Ax, x> over the unit orthant patch is >= -tol.

    That minimum equals the least Pareto eigenvalue, so this is exact up to
    the enumeration dimension cap.  The supports are enumerated until the
    first Pareto eigenvalue below -tol.
    """
    A = as_sym_matrix(A)
    _check_cap(A.n, max_exact_dim)
    found = False
    for p in _pareto_pairs(A.a, _SLACK_TOL):
        if p.value < -tol:
            return False
        found = True
    if not found:
        raise ConvergenceError("empty Pareto spectrum; tolerances too tight")
    return True


def check_kz_property(A: SymMatrix, pairs) -> bool:
    """Check <Ax, y> <= 0 for the supplied complementary orthant pairs.

    Each pair must satisfy x >= 0, y >= 0 and <x, y> = 0 (within slack).
    With the canonical pairs {(e_i, e_j): i != j} this equals the Z-pattern
    test.
    """
    A = as_sym_matrix(A)
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if float(x.min()) < -_NONNEG_TOL or float(y.min()) < -_NONNEG_TOL:
            raise ValueError("pair members must lie in the nonnegative orthant")
        if abs(float(x @ y)) > _NONNEG_TOL:
            raise ValueError("pair members must be orthogonal")
        if float(x @ A.a @ y) > _SLACK_TOL:
            return False
    return True
