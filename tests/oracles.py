"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: brute-force grids for
orthant minima, the closed-form 2x2 eigenproblem, finite differences for
derivatives along geodesics, and a one-support-at-a-time Pareto enumeration.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def simplex_grid(n: int, steps: int = 60) -> np.ndarray:
    """All barycentric grid points with the given step count, normalized to
    the unit sphere.  Rows cover the closed orthant patch."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    pts = np.array(list(compositions(steps, n)), dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def grid_min_quadratic(a: np.ndarray, steps: int = 60):
    """Brute-force minimum of <Ax, x> over the orthant patch grid."""
    pts = simplex_grid(a.shape[0], steps)
    vals = np.einsum("ij,jk,ik->i", pts, a, pts)
    k = int(np.argmin(vals))
    return float(vals[k]), pts[k]


def eig_2x2(a: float, b: float, c: float):
    """Closed-form eigensystem of [[a, b], [b, c]], ascending."""
    mean = (a + c) / 2.0
    rad = np.hypot((a - c) / 2.0, b)
    lo, hi = mean - rad, mean + rad
    if b == 0.0:
        v_lo = np.array([1.0, 0.0]) if a <= c else np.array([0.0, 1.0])
    else:
        v_lo = np.array([lo - c, b])
        v_lo /= np.linalg.norm(v_lo)
    v_hi = np.array([-v_lo[1], v_lo[0]])
    return (lo, hi), (v_lo, v_hi)


def central_difference(f, t: float, h: float = 1e-6) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


def reference_pareto(a: np.ndarray, slack_tol=1e-9, strict_tol=1e-12):
    """Pareto eigenpairs of ``a`` by a plain loop over supports, one
    ``np.linalg.eigh`` per principal submatrix.

    Acceptance: the eigenvector (either sign) is strictly positive on the
    support, and its zero-extension x keeps (Ax - lambda x) >= -slack_tol
    off it.  Returns ``(value, support, vector)`` triples sorted by value,
    then support; a triple within 1e-9 in value and 1e-7 in vector of an
    earlier kept one is dropped.
    """
    n = a.shape[0]
    found = []
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            w, v = np.linalg.eigh(a[np.ix_(idx, idx)])
            for k in range(size):
                for cand in (v[:, k], -v[:, k]):
                    if float(cand.min()) <= strict_tol:
                        continue
                    x = np.zeros(n)
                    x[idx] = cand
                    outside = np.delete(a @ x - w[k] * x, idx)
                    if outside.size == 0 or float(outside.min()) >= -slack_tol:
                        found.append((float(w[k]), support, x))
                    break
    found.sort(key=lambda t: (t[0], t[1]))
    kept = []
    for t in found:
        if not any(
            abs(t[0] - q[0]) <= 1e-9 and float(np.linalg.norm(t[2] - q[2])) <= 1e-7
            for q in kept
        ):
            kept.append(t)
    return kept
