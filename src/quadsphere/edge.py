"""The scan behind certify step 7, the edge witness: for lambda2 < max a_ii,
the best pair of cone boundary points next to the vertex of a large
diagonal entry, over a grid of shifts c in (lambda2, max a_ii).

For B = A - cI, each vertex e_k with b_kk > 0 lies outside the sublevel
cone {x : x^T B x <= 0}.  Each i with b_ii < 0 gives the cone boundary point
x_i = e_i + t_i e_k, t_i the positive root of b_ii + 2 t b_ik + t^2 b_kk;
two such unit points whose sum leaves the cone refute quasi-convexity (for a
Z-matrix, bordered-matrix inertia predicts that the cap cut off around e_k
bends the wrong way).  With s_i = 1 / sqrt(1 + t_i^2), the pair scores
(x_i + x_j)^T B (x_i + x_j) = 2 s_i s_j (b_ij + t_i b_kj + t_j b_ik
+ b_kk t_i t_j) are, per (c, k), a rank-2 update of B scaled by s.  They are
summed in one fixed order whatever the blocking, so the pair found does not
depend on it.

One pass scores every (c, k) row of the grid (c ascending, then k, for the
vertices of each c with at least two indices below it) over all n indices,
the pairs outside the indices below c masked, and keeps the first
(c, k, i, j) of the largest score.  When the rows hold more than
_EDGE_BLOCK scores they are visited in blocks, in descending order of a row
bound, until the next bound lies below the best score.  For i != j below c,
b_ij and b_kj are at most p = max(0, max a_ij), so with h = s t and
u = s (1 + t) a row scores at most 2 (p u_1 u_2 + b_kk h_1 h_2) over the two
largest h and u of its indices below c; p covers the tolerance band and
direct calls on non-Z input.  32 eps times the same sum with p replaced by
the largest off-diagonal magnitude, plus the least normal, covers the
round-off of the scores and of the bound, so a skipped row holds no score
at or above the best.
"""

from __future__ import annotations

import math

import numpy as np

# interior shifts of (lam2, max a_ii) that the edge witness tries, as fractions
_EDGE_STEPS = np.arange(1, 65) / 65.0
# numbers the scan holds per array, but at least one row: scores, (c, k)
# rows x n^2, and prelude entries, rows x n.  The rows of every input at
# n <= 6 fit in one block; past it a block is a few dozen rows, about as
# many as the bound leaves to score on spread-diagonal Z-matrices at n = 20
_EDGE_BLOCK = 1 << 14


def best_edge_pair(a: np.ndarray, lam2: float):
    """(c, k, i, j, t_i, t_j) of the best pair x_i = e_i + t_i e_k,
    x_j = e_j + t_j e_k for the symmetric ``a`` with second eigenvalue
    ``lam2``, or None when lam2 >= max a_ii or no (c, k) row has a pair."""
    n = a.shape[0]
    d = np.diag(a)
    top = float(d.max())
    if not top > lam2:
        return None
    cs = lam2 + (top - lam2) * _EDGE_STEPS
    # the (c, k) rows in grid order: every vertex d_k > c of each shift c
    # with at least two indices below it
    vertex = d > cs[:, None]
    vertex &= (np.searchsorted(np.sort(d), cs) >= 2)[:, None]
    row_c, row_k = np.nonzero(vertex)
    row_c = cs[row_c]
    rows = row_k.size
    step = max(1, _EDGE_BLOCK // (n * n))
    bound = None
    if rows > step:
        bound = _edge_bounds(a, d, row_c, row_k)
    order = np.arange(rows) if bound is None else np.argsort(-bound, kind="stable")
    best = -np.inf
    found = None
    for r0 in range(0, rows, step):
        if bound is not None and bound[order[r0]] < best:
            break
        # the block's rows in grid order: its first maximum is the earliest
        in_block = np.zeros(rows, dtype=bool)
        in_block[order[r0:r0 + step]] = True
        block = np.flatnonzero(in_block)
        score, row, i, j, ti, tj = _edge_block(a, d, row_c[block], row_k[block])
        here = (int(block[row]), i, j)
        if score > best or (score == best > -np.inf and here < found[:3]):
            best = score
            found = here + (ti, tj)
    if found is None:
        return None
    row, i, j, ti, tj = found
    return float(row_c[row]), int(row_k[row]), i, j, ti, tj


def _edge_block(a: np.ndarray, d: np.ndarray, c: np.ndarray, k: np.ndarray):
    """(score, row, i, j, t_i, t_j): the largest pair score over the (c, k)
    rows of one block, NaN scores passed over (NaN if every score is), and
    the first row and pair that attain it with their roots."""
    n = d.size
    g, bkk, t, s = _edge_rows(a, d, c, k)
    # (b_ij + t_i b_kj) + t_j b_ik, + (b_kk t_i) t_j, then ((2 m) s_i) s_j:
    # one order for every block size
    with np.errstate(over="ignore", invalid="ignore"):
        tg = t[:, :, None] * g[:, None, :]
        m = a + tg
        m += np.multiply(g[:, :, None], t[:, None, :], out=tg)
        m += np.multiply((bkk * t)[:, :, None], t[:, None, :], out=tg)
        m *= 2.0
        m *= s[:, :, None]
        m *= s[:, None, :]
    # s is NaN off the indices below c, so every pair outside them scores
    # NaN, as does i = j; fmax passes over NaN
    m.reshape(k.size, -1)[:, :: n + 1] = np.nan
    score = float(np.fmax.reduce(m, axis=None))
    row, ij = divmod(int((m == score).argmax()), n * n)
    i, j = divmod(ij, n)
    return score, row, i, j, float(t[row, i]), float(t[row, j])


def _edge_rows(a: np.ndarray, d: np.ndarray, c: np.ndarray, k: np.ndarray):
    """For the (c, k) rows: b_k. (b_ik for i != k), b_kk as a column, and
    the root t and factor s = 1 / sqrt(1 + t^2) at every index; t is
    meaningless and s NaN at the indices not below c.  Four rows x n arrays
    are live at most."""
    g = a[k]
    bkk = (d[k] - c)[:, None]
    bii = d - c[:, None]
    outside = bii >= 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = g * g
        r -= bii * bkk
        np.sqrt(r, out=r)
        # the positive root, in the form without cancellation:
        # (r - g) / b_kk for g <= 0, else -b_ii / (g + r)
        t = r - g
        t /= bkk
        r += g
        np.negative(bii, out=bii)
        np.divide(bii, r, out=r)
        np.copyto(t, r, where=g > 0.0)
        s = np.multiply(t, t, out=r)
        s += 1.0
        np.sqrt(s, out=s)
        np.divide(1.0, s, out=s)
    s[outside] = np.nan
    return g, bkk, t, s


def _edge_bounds(a: np.ndarray, d: np.ndarray, c: np.ndarray, k: np.ndarray):
    """The upper bound on each (c, k) row's scores, its round-off allowance
    included and NaN read as inf.  The rows go through _edge_rows in chunks
    whose four live rows x n arrays hold at most _EDGE_BLOCK numbers
    together."""
    n = d.size
    offd = a[~np.eye(n, dtype=bool)]
    p = max(0.0, float(offd.max()))
    mag = float(np.abs(offd).max())
    tol = 32.0 * math.ulp(1.0)
    bound = np.empty(k.size)
    chunk = max(1, _EDGE_BLOCK // (4 * n))
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, k.size, chunk):
            bkk, t, s = _edge_rows(a, d, c[r0:r0 + chunk], k[r0:r0 + chunk])[1:]
            # h = s t and u = s (1 + t), 0 off the indices below c (and
            # where s t is 0 * inf, whose pairs score NaN)
            h = np.fmax(s * t, 0.0)
            t += 1.0
            t *= s
            u = np.fmax(t, 0.0, out=t)
            hh = np.sort(h, axis=1)[:, n - 2:].prod(axis=1)
            uu = np.sort(u, axis=1)[:, n - 2:].prod(axis=1)
            bound[r0:r0 + chunk] = 2.0 * (
                (p + tol * mag) * uu + (1.0 + tol) * bkk[:, 0] * hh
            ) + np.finfo(float).tiny
    bound[np.isnan(bound)] = np.inf
    return bound
