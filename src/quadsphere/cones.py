"""Matrix-cone machinery for the nonnegative orthant: the full Pareto
spectrum by support enumeration, the copositivity verdict (exact screens at
every n, then the same enumeration), and the Perron screen: the least Pareto
value and where it is attained when the least eigenvector fits the orthant,
from one ``eigh`` up to the enumeration cap, past it from ``eigvalsh`` and
one shifted solve.  Every slack and threshold is tol_slack * ||A||_F.

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

from .config import Config, DEFAULT
from .linalg import ConvergenceError, SymMatrix, as_sym_matrix, eigen_decompose
from .sphere import SpherePoint

__all__ = [
    "ParetoEigenpair",
    "ParetoSpectrum",
    "pareto_spectrum",
    "is_copositive",
]

# strict positivity floor inside the support (boundary vectors are covered by
# smaller supports in the enumeration)
_STRICT_TOL = 1e-12
# supports per stacked eigh call: bounds memory at any dimension (4096
# submatrices of size 16 take 8 MB)
_CHUNK = 4096
# largest dimension enumerated whatever max_exact_dim says: the 2^n - 1
# supports of n = 18 take seconds and hundreds of MiB, and each unit of n
# doubles both
_MAX_DIM = 18
# pairs closer than this in value and in vector are one Pareto eigenpair
_DEDUPE_VALUE_TOL = 1e-9
_DEDUPE_VECTOR_TOL = 1e-7
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


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

    min_value: float
    exact: bool
    pairs: list


def pareto_spectrum(A: SymMatrix, config: Config = DEFAULT) -> ParetoSpectrum:
    """Exact Pareto spectrum by enumerating all nonempty supports.

    For every support J the principal submatrix is eigendecomposed (one
    stacked ``eigh`` call per chunk of supports of one size); eigenpairs
    whose (sign-flipped) eigenvector is strictly positive on J and whose
    zero-extension keeps (Ax - lambda x) >= -config.tol_slack * ||A||_F
    off J are kept; the residual scales with A, so the slack does too.
    Raises ValueError when the dimension exceeds enumeration_cap.
    """
    A = as_sym_matrix(A)
    _check_cap(A.n, config)
    found = list(_pareto_pairs(A.a, config.tol_slack * A.norm_fro()))
    found.sort(key=lambda p: (p.value, p.support))
    pairs = _dedupe(found)
    if not pairs:
        raise ConvergenceError("empty Pareto spectrum; tolerances too tight")
    return ParetoSpectrum(pairs=pairs, min_value=pairs[0].value, exact=True)


def enumeration_cap(config: Config) -> int:
    """Largest dimension whose supports the enumeration walks under
    ``config``: max_exact_dim, but never above _MAX_DIM."""
    return min(config.max_exact_dim, _MAX_DIM)


def _check_cap(n: int, config: Config) -> None:
    if n > enumeration_cap(config):
        raise ValueError(
            f"dimension {n} exceeds the exact enumeration cap "
            f"min(max_exact_dim={config.max_exact_dim}, {_MAX_DIM}); "
            "use the sampling minimizer instead"
        )


def _perron_pair(A: SymMatrix, config: Config):
    """(lambda1, x): the least eigenvalue of A and, if its unit eigenvector
    v fits the orthant up to config.tol_sign and v clipped at 0 is v or
    attains lambda1 within (tol_slack + n eps) * ||A||_F, that SpherePoint x
    (else None).

    Up to enumeration_cap the pair is eigen_decompose's first.  Past it
    lambda1 is eigvalsh's and v, sign-fixed and always checked, solves
    (A - (lambda1 - d) I) v = d 1, d = 4 n eps max|lambda| or the least normal.

    Every Pareto value is a Rayleigh quotient, so none is below lambda1,
    which is then the minimum of q_A over the orthant patch, attained at x.
    By Perron-Frobenius the column fits for every irreducible Z-matrix.
    """
    solved = A.n > enumeration_cap(config)
    if solved:
        try:
            w = np.linalg.eigvalsh(A.a)
            d = max(4.0 * A.n * _EPS * max(-w[0], w[-1]), _TINY)
            # A - s I without the identity: s * 0.0 off the diagonal and
            # s = s * 1.0 on it, the bytes of A.a - s * np.eye(n)
            s = w[0] - d
            m = A.a - s * 0.0
            m.reshape(-1)[:: A.n + 1] -= s
            v = np.linalg.solve(m, np.full(A.n, d))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
        lam1, v = float(w[0]), v / np.sqrt(v.dot(v))  # np.linalg.norm(v)
        v = -v if v[abs(v).argmax()] < 0.0 else v
    else:
        E = eigen_decompose(A)
        lam1, v = float(E.eigenvalues[0]), E.vectors[:, 0]
    x = SpherePoint(np.maximum(v, 0.0)) if v.min() >= -config.tol_sign else None
    if x is not None and (solved or v.min() < 0.0):
        # n eps ||A||_F covers the round-off of q(x) and lambda1, so that
        # tol_slack = 0 keeps every exact pair
        if A.quad(x.coords) - lam1 > (config.tol_slack + A.n * _EPS) * A.norm_fro():
            x = None
    return lam1, x


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


def _dedupe(pairs):
    """Drop near-duplicates from ``pairs`` sorted by ascending value; a pair
    can only duplicate one of the trailing kept pairs within
    _DEDUPE_VALUE_TOL."""
    kept = []
    for p in pairs:
        recent = takewhile(
            lambda q: p.value - q.value <= _DEDUPE_VALUE_TOL, reversed(kept)
        )
        if not any(
            float(np.linalg.norm(p.vector - q.vector)) <= _DEDUPE_VECTOR_TOL
            for q in recent
        ):
            kept.append(p)
    return kept


def is_copositive(A: SymMatrix, config: Config = DEFAULT) -> bool:
    """True iff the minimum of <Ax, x> over the unit orthant patch, the
    least Pareto eigenvalue, is >= -config.tol_slack * ||A||_F.

    Four exact screens run first, in this order, at every n: A >= 0
    entrywise gives True; a diagonal entry below the threshold gives False
    (at e_i); one eigendecomposition then gives True when lambda1 is at or
    above the threshold, and False when the least eigenvector clipped at 0,
    in either sign, is an x >= 0 with q(x) below the threshold * ||x||^2.
    Only when no screen decides are the supports enumerated, with
    pareto_spectrum's slack, until the first Pareto value below the
    threshold; past the enumeration cap that raises ValueError.
    """
    A = as_sym_matrix(A)
    floor = -config.tol_slack * A.norm_fro()
    a = A.a
    if (a >= 0.0).all():
        return True
    if a.diagonal().min() < floor:
        return False
    E = eigen_decompose(A)
    if E.eigenvalues[0] >= floor:
        return True
    v = E.vectors[:, 0]
    for x in (np.maximum(v, 0.0), np.maximum(-v, 0.0)):
        if x @ a @ x < floor * (x @ x):
            return False
    _check_cap(A.n, config)
    found = False
    for p in _pareto_pairs(a, -floor):
        if p.value < floor:
            return False
        found = True
    if not found:
        raise ConvergenceError("empty Pareto spectrum; tolerances too tight")
    return True
