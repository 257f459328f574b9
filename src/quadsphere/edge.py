"""The candidates behind certify step 7, the cap witness: for
lambda2 < max b_ii, pairs of points on the boundary of a shifted sublevel
cone, next to the vertex of a large diagonal entry, whose sum may leave it.

Take a shift c with lambda2 < c < max b_ii, B_c = B - cI and a vertex e_k
with b_kk > c.  Then e_k lies outside the sublevel cone
{x : x^T B_c x <= 0}, which cuts a cap around e_k out of the orthant
patch.  With J the other indices, g = B_c[J, k] and Q = B_c[J, J], the
point e_k + t z (z >= 0 on J) lies on the cone's boundary when t is a
positive root of b_kk + 2 t g^T z + t^2 z^T Q z.  As c > lambda2, B_c has
two negative eigenvalues, and bordered-matrix inertia (Haynsworth;
Chabrillac & Crouzeix, LAA 63, 1984) gives Q a negative direction w
orthogonal to g.  The directions tried are:

- z = |w| +- s w, s in _SHARES, for the two most negative eigenvectors w of
  P_g Q P_g (P_g the projection onto g-perp, I when g = 0); s = 0 is the
  split lemma's x, where |w| misses k's component;
- z = e_i for every i in J: the edge points e_i + t e_k of a diagonal entry
  below c, which for a diagonal B are step 3's diagonal witness, and the
  split lemma's y.

Every positive root gives a point, so no direction is tested for g^T z = 0.
All pairs of one vertex's unit points are scored by one product P B_c P^T,
and only the best pair is built.  The candidates come vertex by vertex at
the midpoint c = (lambda2 + max b_ii) / 2, in descending b_kk (stable),
then at each shift of _EDGE_STEPS with the vertex of the largest b_kk; the
caller verifies them and stops at the first that verifies.
"""

from __future__ import annotations

import numpy as np

from .linalg import ConvergenceError

# interior shifts of (lam2, max b_ii) tried after the midpoint, as fractions
_EDGE_STEPS = np.arange(1, 65) / 65.0
# the signed shares s of w in the cap directions |w| + s w
_SHARES = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 1.0, -1.0])


def cap_pairs(b: np.ndarray, lam2: float):
    """Yield (c, k, x, y, margin) for the symmetric ``b`` with second
    eigenvalue ``lam2``: the best pair of unit points x, y around the vertex
    e_k of B_c = b - cI, and margin = (x + y)^T B_c (x + y).  Yields nothing
    when lam2 >= max b_ii."""
    d = np.diag(b)
    top = float(d.max())
    if not top > lam2:
        return
    order = np.argsort(-d, kind="stable")
    mid = (lam2 + top) / 2.0
    grid = [(mid, int(k)) for k in order[d[order] > mid]]
    grid += [(float(c), int(order[0])) for c in lam2 + (top - lam2) * _EDGE_STEPS]
    for c, k in grid:
        if (found := _best_pair(b, c, k)) is not None:
            yield found


def _best_pair(b: np.ndarray, c: float, k: int):
    """(c, k, x, y, margin) of the best-scoring pair of cap points around
    e_k of B_c = b - cI, or None when fewer than two points exist."""
    n = b.shape[0]
    bc = b.copy()
    bc.flat[:: n + 1] -= c
    J = np.delete(np.arange(n), k)
    bkk, g, Q = bc[k, k], bc[J, k], bc[np.ix_(J, J)]
    M = Q
    gg = float(g @ g)
    if gg > 0.0:
        # P_g Q P_g = Q - h r^T - r h^T, h = g / |g|, r = Q h - (h^T Q h / 2) h
        h = g / np.sqrt(gg)
        r = Q @ h
        r -= (h @ r / 2.0) * h
        M = Q - np.outer(h, r) - np.outer(r, h)
    try:
        w = np.linalg.eigh(M)[1][:, :2]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    z = (np.abs(w)[:, :, None] + w[:, :, None] * _SHARES).reshape(n - 1, -1)
    # the roots of alpha t^2 + 2 beta t + b_kk without cancellation:
    # q / alpha and b_kk / q for q = -(beta + sign(beta) sqrt(beta^2 - alpha b_kk))
    beta = np.concatenate([g @ z, g])
    alpha = np.concatenate([np.einsum("ij,ij->j", z, Q @ z), Q.diagonal()])
    z = np.hstack([z, np.eye(n - 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(beta + np.copysign(np.sqrt(beta * beta - alpha * bkk), beta))
        t = np.concatenate([q / alpha, bkk / q])
    root = np.isfinite(t) & (t > 0.0)
    if np.count_nonzero(root) < 2:
        return None
    P = np.zeros((np.count_nonzero(root), n))
    P[:, k] = 1.0
    P[:, J] = t[root, None] * np.tile(z, 2).T[root]
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    S = P @ bc @ P.T
    np.fill_diagonal(S, -np.inf)
    i, j = divmod(int(S.argmax()), S.shape[0])
    x, y = P[i].copy(), P[j].copy()
    s = x + y
    return c, k, x, y, float(s @ bc @ s)
