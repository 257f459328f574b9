"""The decision procedure for spherical quasi-convexity of q_A(x) = <Ax, x>
on the nonnegative orthant patch of the sphere.

Cheap necessary conditions run first, then full characterizations for the
structured classes (diagonal, two-eigenvalue), then the copositivity-based
sufficient condition, then obstruction constructions, and finally seeded
falsification.  Yes-verdicts always carry a re-checkable certificate,
No-verdicts a witness whose defining inequalities re-verify by direct
arithmetic; anything undecided is an honest Unknown.

The chain, in order:

1. a single eigenvalue cluster: constant form, Yes;
2. an off-diagonal entry above tol_margin: the pair (e_i, e_j), No;
3. a diagonal matrix: Yes iff two values with a simple smallest one,
   otherwise the diagonal cone witness (_diag_witness in the standard basis);
4. two clusters with a simple smallest: Yes if its eigenvector fits the
   orthant; otherwise steps 5-7 find nothing to build and step 8 decides;
5. a nonnegative lambda1 eigenvector and copositive lambda2 I - A: Yes,
   decided by the diagonal rule below in O(n^2) at every n;
6. the same diagonal witness in the basis of the nonnegative eigenvectors,
   on whose span q_A is diagonal: three or more of them over more than two
   distinct eigenvalues, or with a repeated smallest one, give a No;
7. the edge witness (_edge_witness): for lambda2 < max a_ii, boundary points
   e_i + t e_k of the shifted sublevel cone around the vertex e_k of a large
   diagonal entry whose sum leaves the cone, No;
8. the seeded sampling falsifier: No with its witness, otherwise Unknown.

After step 2 the matrix is a Z-matrix up to tol_margin: every off-diagonal
entry is at most p = max(a_ij, 0) <= tol_margin.  For a Z-matrix the
off-diagonal entries of lambda2 I - A are nonnegative, so it is copositive iff
lambda2 >= max a_ii, and its least Pareto value is lambda2 - max a_ii
(Perron-Frobenius).  Step 5 therefore accepts when
bound = lambda2 - max a_ii - (n - 1) p >= -tol_slack, and the certificate
stores the bound as pareto_min; the (n - 1) p term is the most the tolerance
band (0 < a_ij <= tol_margin) can cost on the unit orthant patch.  Only
inside the band, when the bound declines and n <= cones.enumeration_cap,
does the support enumeration (cones.pareto_spectrum) decide instead, and
pareto_min is then its least Pareto value.  That lambda2 >= max a_ii is
also necessary is a conjecture, supported by seeded fuzzing (every seeded
random Z-matrix with lambda2 < max a_ii tried so far was refuted) but not
proven.  The known gap is a maximum diagonal entry tied so that only one
index lies below any shift, where step 7 has no pair to build:
[[1,-2,-1,-2],[-2,1,0,-2],[-1,0,1,-2],[-2,-2,-2,-2]] (lambda2 = 0.715) ends
Unknown.  Soundness does not rest on the conjecture: every No witness is
re-checked by verify_witness before it is returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .config import Config, DEFAULT
from .cones import enumeration_cap, pareto_spectrum
from .linalg import (
    SymMatrix,
    as_sym_matrix,
    cluster_eigenvalues,
    cluster_tol,
    eigen_decompose,
    is_diagonal,
)

__all__ = [
    "Rule",
    "WitnessKind",
    "Status",
    "Certificate",
    "Witness",
    "Verdict",
    "certify",
    "verify_witness",
]

# interior shifts of (lam2, max a_ii) that the edge witness tries, as fractions
_EDGE_STEPS = np.arange(1, 65) / 65.0
# candidate scores held at once by the edge witness: (c, k) rows x (indices below c)^2
_EDGE_BLOCK = 1 << 18
# rounds of raising c when a built edge point misses the cone by round-off
_EDGE_NUDGES = 8


class Rule(enum.Enum):
    CONSTANT_FORM = "ConstantForm"
    DIAGONAL_CHARACTERIZATION = "DiagonalCharacterization"
    TWO_EIGENVALUE_CHARACTERIZATION = "TwoEigenvalueCharacterization"
    COPOSITIVE_SUFFICIENCY = "CopositiveSufficiency"


class WitnessKind(enum.Enum):
    PAIR_VIOLATION = "PairViolation"
    CONE_NONCONVEXITY = "ConeNonconvexity"


class Status(enum.Enum):
    CERTIFIED_QUASICONVEX = "CertifiedQuasiconvex"
    CERTIFIED_NOT_QUASICONVEX = "CertifiedNotQuasiconvex"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence for a Yes verdict."""

    rule: Rule
    data: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Witness:
    """Concrete violation data refuting quasi-convexity.

    PairViolation: data has unit orthant vectors ``x``, ``y`` with
        <Ax, y> - <x, y> max{q(x), q(y)} = margin > 0.
    ConeNonconvexity: data has ``c``, ``x``, ``y`` in the orthant with
        q(x) - c||x||^2 <= 0, q(y) - c||y||^2 <= 0 but
        q(x + y) - c||x + y||^2 = margin > 0; the edge witness also records
        the ``vertex`` k whose e_k both points lean towards.
    """

    kind: WitnessKind
    data: dict
    margin: float


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: Certificate | None = None
    witness: Witness | None = None
    probe_summary: dict | None = None


def pair_violation_margin(A: SymMatrix, x, y) -> float:
    """Margin of the two-point inequality <Ax, y> <= <x, y> max{q(x), q(y)}.

    Both points must lie on the sphere inside the closed orthant; a positive
    margin beyond tolerance refutes quasi-convexity.
    """
    A = as_sym_matrix(A)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for p in (x, y):
        if float(p.min()) < -1e-12:
            raise ValueError("points must lie in the closed orthant")
        if abs(float(np.linalg.norm(p)) - 1.0) > 1e-9:
            raise ValueError("points must lie on the unit sphere")
    ax = A.a @ x
    qx = float(ax @ x)
    qy = float(y @ A.a @ y)
    return float(ax @ y) - float(x @ y) * max(qx, qy)


def verify_witness(A: SymMatrix, w: Witness, config: Config = DEFAULT) -> bool:
    """Re-check a witness's defining inequalities by direct arithmetic."""
    A = as_sym_matrix(A)
    # a malformed witness (missing or non-numeric field) refutes nothing
    malformed = (KeyError, TypeError, ValueError)
    if w.kind is WitnessKind.PAIR_VIOLATION:
        try:
            margin = pair_violation_margin(A, w.data["x"], w.data["y"])
        except malformed:
            return False
        return margin > config.tol_margin
    if w.kind is WitnessKind.CONE_NONCONVEXITY:
        try:
            c = float(w.data["c"])
            x = np.asarray(w.data["x"], dtype=float)
            y = np.asarray(w.data["y"], dtype=float)
        except malformed:
            return False
        if x.shape != (A.n,) or y.shape != (A.n,):
            return False
        if float(x.min()) < -1e-12 or float(y.min()) < -1e-12:
            return False
        ac = A.a - c * np.eye(A.n)
        if float(x @ ac @ x) > 1e-10 or float(y @ ac @ y) > 1e-10:
            return False
        s = x + y
        return float(s @ ac @ s) > config.tol_margin
    return False


def _diag_witness(values, basis, tol: float) -> Witness | None:
    """The diagonal obstruction over orthonormal nonnegative columns v_r of
    ``basis`` on which q_A is diagonal with q_A(v_r) = values[r].

    Values within ``tol`` of a cluster's first value join that cluster.  With
    a shift c between the right pair of distinct values, the combinations
    x = v_i + t_i v_k and y = v_j + t_j v_k sit on the boundary of the
    shifted sublevel cone while x + y leaves it by 2 sqrt((c - l_i)(c - l_j)).
    Returns None when at most two values with a simple smallest one remain,
    where no such witness exists.
    """
    order = np.argsort(values, kind="stable")
    distinct = []  # (value, [indices])
    for idx in order:
        if distinct and values[idx] - distinct[-1][0] <= tol:
            distinct[-1][1].append(int(idx))
        else:
            distinct.append((float(values[idx]), [int(idx)]))

    if len(distinct) >= 2 and len(distinct[0][1]) >= 2:
        i, j = distinct[0][1][:2]
        k = distinct[1][1][0]
        c = (distinct[0][0] + distinct[1][0]) / 2.0
    elif len(distinct) >= 3:
        i, j, k = (distinct[r][1][0] for r in range(3))
        c = (distinct[1][0] + distinct[2][0]) / 2.0
    else:
        return None

    ti = np.sqrt((c - values[i]) / (values[k] - c))
    tj = np.sqrt((c - values[j]) / (values[k] - c))
    margin = 2.0 * np.sqrt((c - values[i]) * (c - values[j]))
    return Witness(
        kind=WitnessKind.CONE_NONCONVEXITY,
        data={
            "c": float(c),
            "x": basis[:, i] + ti * basis[:, k],
            "y": basis[:, j] + tj * basis[:, k],
        },
        margin=float(margin),
    )


def certify(A: SymMatrix, config: Config = DEFAULT) -> Verdict:
    """Decide spherical quasi-convexity of q_A on the orthant patch.

    Returns at the first decisive step; see the module docstring for the
    ordering rationale.
    """
    A = as_sym_matrix(A)
    if A.n < 2:
        raise ValueError("dimension must be at least 2")
    a = A.a
    n = A.n
    E = eigen_decompose(A)
    clusters = cluster_eigenvalues(E)
    two_simple = len(clusters) == 2 and clusters[0][1] == 1

    # 1. constant form: a single eigenvalue makes q_A constant on the sphere
    if len(clusters) == 1:
        return Verdict(
            status=Status.CERTIFIED_QUASICONVEX,
            certificate=Certificate(
                Rule.CONSTANT_FORM, {"eigenvalue": clusters[0][0]}
            ),
        )

    # 2. Z-pattern necessity: a positive off-diagonal entry a_ij gives the
    # direct violation pair (e_i, e_j).  The No threshold is tol_margin so the
    # emitted witness always re-verifies.
    off = a - np.diag(np.diag(a))
    i, j = np.unravel_index(np.argmax(off), off.shape)
    if off[i, j] > config.tol_margin:
        x = np.zeros(n)
        y = np.zeros(n)
        x[i] = 1.0
        y[j] = 1.0
        witness = Witness(
            kind=WitnessKind.PAIR_VIOLATION,
            data={"x": x, "y": y, "entry": (int(i), int(j))},
            margin=float(off[i, j]),
        )
        return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)

    # 3. diagonal matrices are fully characterized: exactly two distinct
    # values with a simple smallest one
    if is_diagonal(A):
        if two_simple:
            return Verdict(
                status=Status.CERTIFIED_QUASICONVEX,
                certificate=Certificate(
                    Rule.DIAGONAL_CHARACTERIZATION,
                    {"clusters": clusters, "eigenvector": E.vectors[:, 0].copy()},
                ),
            )
        d = np.diag(a)
        witness = _diag_witness(d, np.eye(n), cluster_tol(float(np.linalg.norm(d))))
        if witness is not None and verify_witness(A, witness, config):
            return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)
        # tolerance edge (values distinct only marginally): fall through

    # 4. two eigenvalue clusters with a simple smallest: decided by whether
    # the smallest eigenvector fits in the orthant (either sign).  When it
    # does not, steps 5-7 have nothing to build (no nonnegative lambda1
    # vector, one value over the nonnegative eigenvectors, and
    # a_ii = lam2 - (lam2 - lam1) v_i^2 <= lam2), so the input reaches step 8.
    if two_simple:
        v1 = _orthant_representative(E.vectors[:, 0], config.tol_sign)
        if v1 is not None:
            return Verdict(
                status=Status.CERTIFIED_QUASICONVEX,
                certificate=Certificate(
                    Rule.TWO_EIGENVALUE_CHARACTERIZATION,
                    {"clusters": clusters, "eigenvector": v1},
                ),
            )

    # 5. copositivity sufficiency: a nonnegative smallest eigenvector plus
    # copositivity of (second smallest eigenvalue) I - A.  The second smallest
    # eigenvalue is counted with multiplicity; using the next cluster value
    # instead would be unsound when the smallest eigenvalue repeats.  Step 2
    # left every off-diagonal entry at most p = off[i, j] in [0, tol_margin],
    # so on the unit orthant patch
    #   x^T (lam2 I - A) x >= lam2 - max a_ii - p ((sum x)^2 - 1) >= bound
    # with bound = lam2 - max a_ii - (n - 1) p.  For an exact Z-matrix (p = 0)
    # bound is the least Pareto value of lam2 I - A: its 1x1 supports give
    # lam2 - a_kk, and every larger support carries a Perron value at least
    # as large.  Only inside the tolerance band (p > 0), where the bound is
    # loose, does the support enumeration decide what the bound declines.
    cand = _lambda1_orthant_vector(E, clusters[0][1], config.tol_sign)
    if cand is not None:
        lam2 = float(E.eigenvalues[1])
        p = float(off[i, j])
        pareto_min = lam2 - float(np.diag(a).max()) - (n - 1) * p
        if pareto_min < -config.tol_slack and p > 0.0 and n <= enumeration_cap(config):
            shifted = SymMatrix(lam2 * np.eye(n) - a)
            pareto_min = pareto_spectrum(shifted, config).min_value
        if pareto_min >= -config.tol_slack:
            return Verdict(
                status=Status.CERTIFIED_QUASICONVEX,
                certificate=Certificate(
                    Rule.COPOSITIVE_SUFFICIENCY,
                    {"eigenvector": cand, "lambda2": lam2, "pareto_min": pareto_min},
                ),
            )

    # 6. q_A is diagonal on the span of the nonnegative eigenvectors, an
    # orthonormal nonnegative basis: the diagonal obstruction in that basis
    reps = [_orthant_representative(E.vectors[:, k], config.tol_sign) for k in range(n)]
    nonneg = [k for k in range(n) if reps[k] is not None]
    if len(nonneg) >= 3:
        witness = _diag_witness(
            E.eigenvalues[nonneg],
            np.column_stack([reps[k] for k in nonneg]),
            cluster_tol(E.scale()),
        )
        if witness is not None and verify_witness(A, witness, config):
            return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)

    # 7. edge witness: a Z-matrix with lam2 < max a_ii, refuted by boundary
    # points of the sublevel cone near the vertex of a large diagonal entry
    witness = _edge_witness(A, E, config)
    if witness is not None:
        return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)

    # 8. fall back to seeded falsification
    return _falsify_verdict(A, config)


def _orthant_representative(v: np.ndarray, tol: float) -> np.ndarray | None:
    """Return v or -v if one of them is entrywise >= -tol, else None."""
    for cand in (v, -v):
        if float(cand.min()) >= -tol:
            return cand.copy()
    return None


def _lambda1_orthant_vector(E, mult: int, tol: float) -> np.ndarray | None:
    """Search the smallest-eigenvalue eigenspace for a nonnegative vector.

    For a simple eigenvalue only the two signs are checked.  For a repeated
    one, the basis columns and the projection of the all-ones direction are
    tried; this heuristic can miss, which degrades Yes to Unknown but never
    produces a wrong verdict.
    """
    for k in range(mult):
        cand = _orthant_representative(E.vectors[:, k], tol)
        if cand is not None:
            return cand
    if mult > 1:
        basis = E.vectors[:, :mult]
        proj = basis @ (basis.T @ np.ones(E.n))
        nrm = float(np.linalg.norm(proj))
        if nrm > 1e-12:
            return _orthant_representative(proj / nrm, tol)
    return None


def _edge_witness(A: SymMatrix, E, config: Config) -> Witness | None:
    """Cone-nonconvexity witness for lam2 < max a_ii, or None.

    For c in (lam2, max a_ii) and B = A - cI, each vertex e_k with b_kk > 0
    lies outside the sublevel cone {x : x^T B x <= 0}.  Each i with b_ii < 0
    gives the cone boundary point x_i = e_i + t_i e_k, t_i the positive root
    of b_ii + 2 t b_ik + t^2 b_kk; two such unit points whose sum leaves the
    cone refute quasi-convexity (for a Z-matrix, bordered-matrix inertia
    predicts that the cap cut off around e_k bends the wrong way).  The pair
    scores (x_i + x_j)^T B (x_i + x_j) = 2 x_i^T B x_j are, per (c, k), a
    rank-2 update of B[L, L] over the indices L below c, scaled by the norms.
    Step 3's diagonal witness is the case of a diagonal A with c between two
    values.

    Only the best candidate over the grid is built, and only a witness that
    verify_witness accepts is returned.
    """
    a = A.a
    d = np.diag(a)
    lam2 = float(E.eigenvalues[1])
    top = float(d.max())
    if not top > lam2:
        return None
    cs = lam2 + (top - lam2) * _EDGE_STEPS
    # grid points between the same two diagonal values share the vertices
    # (b_kk > 0) and the indices below c (b_ii < 0), so they are scored as
    # one stack of (c, k) rows
    srt = np.sort(d)
    key = np.searchsorted(srt, cs, "left") * (A.n + 1)
    key += np.searchsorted(srt, cs, "right")
    best = -np.inf
    found = None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for group in np.split(cs, np.flatnonzero(np.diff(key)) + 1):
            low = np.flatnonzero(d < group[0])
            high = np.flatnonzero(d > group[0])
            if low.size < 2 or high.size == 0:
                continue
            c_rows = np.repeat(group, high.size)
            k_rows = np.tile(high, group.size)
            q = a[np.ix_(low, low)]  # b_ij for i != j
            off = ~np.eye(low.size, dtype=bool)
            step = max(1, _EDGE_BLOCK // low.size**2)
            for r0 in range(0, c_rows.size, step):
                c = c_rows[r0:r0 + step, None]
                g = a[np.ix_(k_rows[r0:r0 + step], low)]  # b_ik
                bkk = d[k_rows[r0:r0 + step], None] - c
                bii = d[low] - c
                r = np.sqrt(g * g - bii * bkk)
                # the positive root, in the form without cancellation
                t = np.where(g <= 0.0, (r - g) / bkk, -bii / (g + r))
                s = 1.0 / np.sqrt(1.0 + t * t)
                tg = t[:, :, None] * g[:, None, :]
                m = q + tg + tg.transpose(0, 2, 1)
                m += (bkk * t)[:, :, None] * t[:, None, :]
                score = np.where(off, 2.0 * m * s[:, :, None] * s[:, None, :], -np.inf)
                at = int(np.nanargmax(score))
                if score.flat[at] > best:
                    best = float(score.flat[at])
                    row, i, j = np.unravel_index(at, score.shape)
                    found = (float(c[row, 0]), int(k_rows[r0 + row]), int(low[i]),
                             int(low[j]), float(t[row, i]), float(t[row, j]))
    if found is None:
        return None

    c, k, i, j, ti, tj = found
    n = A.n
    x = np.zeros(n)
    y = np.zeros(n)
    x[i] = 1.0
    x[k] = ti
    y[j] = 1.0
    y[k] = tj
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    # a boundary point that misses the cone by round-off: raise c by that
    # round-off (a few ulps) until both points are inside as computed
    ac = a - c * np.eye(n)
    for _ in range(_EDGE_NUDGES):
        over = max(float(x @ ac @ x), float(y @ ac @ y))
        if over <= 0.0:
            break
        c = max(c + over, float(np.nextafter(c, np.inf)))
        ac = a - c * np.eye(n)
    s = x + y
    witness = Witness(
        kind=WitnessKind.CONE_NONCONVEXITY,
        data={"c": c, "x": x, "y": y, "vertex": k},
        margin=float(s @ ac @ s),
    )
    return witness if verify_witness(A, witness, config) else None


def _falsify_verdict(A: SymMatrix, config: Config) -> Verdict:
    """Step 8: falsify returns only a witness that verify_witness accepted
    under config.tol_margin, so it is not checked again here."""
    from .probe import falsify

    report = falsify(A, config.samples, config.seed, tol_margin=config.tol_margin)
    summary = {
        "samples": report.samples_used,
        "best_margin": report.best_margin,
        "seed": report.seed,
    }
    if report.witness is not None:
        return Verdict(
            status=Status.CERTIFIED_NOT_QUASICONVEX,
            witness=report.witness,
            probe_summary=summary,
        )
    return Verdict(status=Status.UNKNOWN, probe_summary=summary)
