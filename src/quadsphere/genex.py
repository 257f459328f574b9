"""Constructors for the certified example families.

Each constructor validates its parameter constraints and returns a matrix
whose quadratic form is quasi-convex on the orthant patch by construction;
the families double as golden instances and as a fuzzing source for the
certifier.
"""

from __future__ import annotations

import numpy as np

from .linalg import SymMatrix, eigen_decompose

__all__ = [
    "make_three_eigenvalue",
    "make_positive_basis",
    "make_householder",
    "make_diag_two_eig",
    "make_negative_positive",
]

# draws make_negative_positive tries before giving up
_ATTEMPTS = 100


def _require_finite(values) -> np.ndarray:
    """The parameters as a float array, rejected if one is inf or NaN."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("generator parameters must be finite")
    return values


def make_three_eigenvalue(n: int, lam: float, mu: float, nu: float) -> SymMatrix:
    """Family with spectrum (lam, mu, ..., mu, nu), lam < mu < nu.

    Quasi-convexity holds when the first basis column dominates the last in
    the entrywise sense  v1 - sqrt((nu - mu)/(mu - lam)) |vn| >= 0.  The
    basis is v1 = (e1 + en)/sqrt(2), vn = (e1 - en)/sqrt(2) and canonical
    vectors in between, which satisfies the condition exactly when
    mu >= (lam + nu)/2; that rule is checked in exact rational arithmetic.
    """
    _require_finite([lam, mu, nu])
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if not lam < mu < nu:
        raise ValueError(f"need lam < mu < nu, got {(lam, mu, nu)}")
    # imported here: fractions loads decimal, a cost every CLI start would pay
    from fractions import Fraction
    if 2 * Fraction(mu) < Fraction(lam) + Fraction(nu):
        raise ValueError(
            "basis condition violated: v1 - sqrt((nu-mu)/(mu-lam))|vn| "
            "has a negative component"
        )
    V = np.eye(n)
    V[:, 0] = 0.0
    V[0, 0] = V[n - 1, 0] = 1.0 / np.sqrt(2.0)
    V[:, n - 1] = 0.0
    V[0, n - 1] = 1.0 / np.sqrt(2.0)
    V[n - 1, n - 1] = -1.0 / np.sqrt(2.0)
    w = np.full(n, mu)
    w[0] = lam
    w[n - 1] = nu
    return SymMatrix((V * w) @ V.T)


def _positive_basis(n: int) -> np.ndarray:
    """Orthogonal basis whose first column is the normalized all-ones vector."""
    V = np.zeros((n, n))
    V[:, 0] = 1.0 / np.sqrt(n)
    for j in range(2, n + 1):
        m = n + 1 - j
        col = np.zeros(n)
        col[0] = 1.0
        col[j - 1] = -m
        col[j:] = 1.0
        V[:, j - 1] = col / np.sqrt(m + m * m)
    return V


def make_positive_basis(n: int, eigenvalues) -> SymMatrix:
    """Family built on a strictly positive smallest eigenvector.

    The basis is _positive_basis(n), whose first column is all-ones
    normalized; the eigenvalues must satisfy the strict spread bound
    lam_n < lam_2 + (1/(n(n-2))) (lam_2 - lam_1).
    """
    w = _require_finite(eigenvalues)
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if w.shape != (n,):
        raise ValueError(f"expected {n} eigenvalues")
    if not (w[0] < w[1] and np.all(np.diff(w) >= 0)):
        raise ValueError("need lam_1 < lam_2 <= ... <= lam_n")
    bound = w[1] + (w[1] - w[0]) / (n * (n - 2))
    if not w[-1] < bound:
        raise ValueError(
            f"spread bound violated: lam_n = {w[-1]:g} must be < {bound:g}"
        )
    V = _positive_basis(n)
    return SymMatrix((V * w) @ V.T)


def make_householder(v) -> SymMatrix:
    """Reflection I - 2 v v^T / ||v||^2 for a nonnegative nonzero v.

    Eigenvalues are -1 (simple, eigenvector v) and +1 (multiplicity n-1).
    """
    v = _require_finite(v)
    if v.ndim != 1 or v.shape[0] < 2:
        raise ValueError("v must be a vector of dimension at least 2")
    if float(v.min()) < 0.0:
        raise ValueError("v must be entrywise nonnegative")
    # scaling by a power of two is exact and keeps v @ v from overflowing
    # or underflowing; the reflector does not depend on the scale of v
    v = np.ldexp(v, -np.frexp(v.max())[1])
    nrm2 = float(v @ v)
    if nrm2 == 0.0:
        raise ValueError("v must be nonzero")
    return SymMatrix(np.eye(v.shape[0]) - 2.0 * np.outer(v, v) / nrm2)


def make_diag_two_eig(n: int, lam: float, mu: float) -> SymMatrix:
    """diag(lam, mu, ..., mu) with lam < mu: simple smallest eigenvalue."""
    _require_finite([lam, mu])
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if not lam < mu:
        raise ValueError(f"need lam < mu, got {(lam, mu)}")
    w = np.full(n, float(mu))
    w[0] = lam
    return SymMatrix(np.diag(w))


def make_negative_positive(n: int, seed: int) -> SymMatrix:
    """Random matrix with -A entrywise positive, simple smallest eigenvalue
    and positive second eigenvalue.

    Draws strictly negative symmetric matrices; when the second eigenvalue is
    not yet positive the matrix is shifted along the identity, and draws whose
    shift destroys entrywise negativity are rejected and redrawn.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    rng = np.random.default_rng(seed)
    for _ in range(_ATTEMPTS):
        raw = -(1.0 + 0.3 * rng.random((n, n)))
        a = (raw + raw.T) / 2.0
        w = eigen_decompose(SymMatrix(a)).eigenvalues
        shift = 0.0
        if w[1] <= 0.0:
            # a margin from the Perron-like w[0] ~ -1.15 n would grow with n
            # and push entries positive (every seed fails from n = 14)
            shift = -float(w[1]) + 0.05 * max(1.0, abs(float(w[1])))
        shifted = a + shift * np.eye(n)
        if float(shifted.max()) >= 0.0:
            continue  # -A no longer positive after the shift
        return SymMatrix(shifted)
    raise RuntimeError(
        f"could not generate an instance in {_ATTEMPTS} attempts (n={n}, seed={seed})"
    )
