"""The decision procedure for spherical quasi-convexity of q_A(x) = <Ax, x>
on the nonnegative orthant patch of the sphere: a Yes carries a re-checkable
certificate, a No a witness whose defining inequalities re-verify by direct
arithmetic, and anything undecided is an honest Unknown.

As q_{tA + sI} = t q_A + s on the patch (t > 0), every tolerance is a
multiple of sigma = ||B||_F, B = A - tau I, tau = tr A / n (linalg.centred).
Step 1 reads A; the later steps decide B, and eigenvalue fields and a
witness's c get tau back.  certify runs the steps, the functions of _STEPS,
in order on one _State, built in stages as they first read it: no eigh
before step 1 declines or for an exactly diagonal B, and the eigenbasis of
steps 4-6 only past step 3.

1. an off-diagonal entry above tol_margin sigma: the pair (e_i, e_j), No;
2. one eigenvalue cluster (gaps at most 1e-8 sigma): constant form, Yes;
3. two clusters with a simple smallest, for a diagonal B (|b_ij| at most
   1e-12 sigma) or a v0 that fits the orthant: Yes, named by diagonality;
4. the diagonal witness (_diag_witness) over the nonnegative eigenvectors,
   or over the sorted diagonal of a diagonal B: No;
5. a simple lambda1 with a nonnegative eigenvector and copositive
   lambda2 I - A, decided by the diagonal rule below in O(n^2): Yes;
6. the cap witness (quadsphere.edge) for lambda2 < max a_ii: No; else Unknown.

Step 4 runs before step 5: a verified No cannot be wrong, while step 5's Yes
rests on the floor -tol_slack sigma.  Where step 4's witness verifies over
values l_a <= l_b < l_c of nonnegative unit eigenvectors, lambda2 <= l_b and
l_c <= max b_ii + (n - 1) p, so step 5's bound is at most l_b - l_c, below
the default floor; only a looser tol_slack lets step 5 accept there.

Every Yes is built by _certified, and every cone witness (steps 4 and 6) by
_refuted, which returns a No only if verify_witness accepts.  certify
samples nothing: every No is built, and every other input is Unknown.

After step 1 the matrix is a Z-matrix up to tol_margin sigma: every
off-diagonal entry is at most p = max(a_ij, 0) <= tol_margin sigma.  For a
Z-matrix the off-diagonal entries of lambda2 I - A are nonnegative, so it is
copositive iff lambda2 >= max a_ii, and its least Pareto value is
lambda2 - max a_ii (Perron-Frobenius).  Step 5 therefore accepts when
bound = lambda2 - max a_ii - (n - 1) p >= -tol_slack sigma, and the
certificate stores the bound as pareto_min; the (n - 1) p term is the most
the tolerance band (0 < a_ij <= tol_margin sigma) can cost on the unit
orthant patch, where x^T (lambda2 I - A) x >= lambda2 - max a_ii -
p ((sum x)^2 - 1).  Only inside the band, when the bound declines and
n <= cones.enumeration_cap, does the support enumeration
(cones.pareto_spectrum, on (lambda2 I - B) / sigma) decide instead, and
pareto_min is then its least Pareto value times sigma.

That lambda2 >= max a_ii is also necessary is a conjecture.  Two cases are
proved (README): a reducible input, by the split pair, and a vertex without
neighbours; that the cap points around a vertex with neighbours leave the
cone is not, and on seeded corpora step 6 leaves a few such inputs with
lambda2 just below max a_ii Unknown.  Soundness does not rest on the
conjecture.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import Config, DEFAULT
from .cones import enumeration_cap, pareto_spectrum
from .linalg import (EigenSystem, SymMatrix, as_sym_matrix, centred,
                     cluster_eigenvalues, eigen_decompose)

__all__ = ["Rule", "WitnessKind", "Status", "Certificate", "Witness", "Verdict",
           "certify", "verify_witness"]

# relative to sigma: the eigenvalue gap steps 2-5 take as a tie, and the
# off-diagonal magnitude step 3 takes as zero
_CLUSTER_RTOL = 1e-8
_DIAGONAL_RTOL = 1e-12


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
        q(x) - c||x||^2 <= 0, q(y) - c||y||^2 <= 0 (up to round-off) but
        q(x + y) - c||x + y||^2 = margin > 0; the cap witness of step 6
        also records the ``vertex`` k, both points being e_k + t z for some
        t > 0 and z >= 0 with z_k = 0, before normalization.
    """

    kind: WitnessKind
    data: dict
    margin: float


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: Certificate | None = None
    witness: Witness | None = None


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
    """Re-check a witness's defining inequalities by direct arithmetic, on
    B = A - tau I (linalg.centred), where a pair margin is A's and a cone
    witness's c is c - tau.  A cone witness needs a finite c and orthant
    points of nonzero finite norm; c is raised to the larger Rayleigh
    quotient of B at x and y, which puts both points in the sublevel cone
    of B - cI, convex when q_A is quasi-convex, and s = x + y must leave it.
    Every margin must exceed _refutation_limit.
    """
    return _verifies(centred(as_sym_matrix(A)), w, config)


def _refutation_limit(n: int, sigma: float, ss: float, config: Config) -> float:
    """tol_margin * sigma plus the round-off of s^T B s and the Rayleigh
    quotients for ||s||^2 = ss (ss = 1 for a pair of unit points)."""
    return sigma * (config.tol_margin + 2.0 * (n + 1) * math.ulp(1.0) * ss)


def _verifies(C, w: Witness, config: Config) -> bool:
    """verify_witness on the centred form C = (tau, B, sigma) of A."""
    tau, B, sigma = C
    b, n = B.a, B.n
    # a malformed witness (missing or non-numeric field) refutes nothing
    malformed = (KeyError, TypeError, ValueError)
    if w.kind is WitnessKind.PAIR_VIOLATION:
        try:
            margin = pair_violation_margin(B, w.data["x"], w.data["y"])
        except malformed:
            return False
        return margin > _refutation_limit(n, sigma, 1.0, config)
    if w.kind is WitnessKind.CONE_NONCONVEXITY:
        try:
            c = float(w.data["c"])
            x = np.asarray(w.data["x"], dtype=float)
            y = np.asarray(w.data["y"], dtype=float)
        except malformed:
            return False
        if x.shape != (n,) or y.shape != (n,):
            return False
        if float(x.min()) < -1e-12 or float(y.min()) < -1e-12:
            return False
        xx, yy = float(x @ x), float(y @ y)
        if not (math.isfinite(c) and 0.0 < xx < math.inf and 0.0 < yy < math.inf):
            return False
        c = max(c - tau, float(x @ b @ x) / xx, float(y @ b @ y) / yy)
        s = x + y
        ss = float(s @ s)
        return float(s @ b @ s) - c * ss > _refutation_limit(n, sigma, ss, config)
    return False


def _diag_witness(s, basis, tol: float):
    """(c, x, y, margin) on B over orthonormal nonnegative columns v_r of
    ``basis`` on which q_A is diagonal with ascending values s[r]; None for
    at most two values with a simple smallest one, where none exists.

    Values within ``tol`` of a cluster's first value join that cluster.  With
    a shift c between the right pair of distinct values, x = v_i + t_i v_k
    and y = v_j + t_j v_k sit on the boundary of the shifted sublevel cone
    while x + y leaves it by margin = 2 sqrt((c - s_i)(c - s_j)).
    """
    # the second and third clusters start at h1 and h2: as s ascends, so does
    # s - s[h], and each cluster is one run of s
    h1 = int(np.count_nonzero(s - s[0] <= tol))
    h2 = h1 + int(np.count_nonzero(s[h1:] - s[h1] <= tol)) if h1 < s.size else h1
    if 2 <= h1 < s.size:
        i, j, k, c = 0, 1, h1, (s[0] + s[h1]) / 2.0
    elif h2 < s.size:
        i, j, k, c = 0, h1, h2, (s[h1] + s[h2]) / 2.0
    else:
        return None
    if c < s[j]:
        return None  # a tie member above c at the tolerance edge: no cone pair

    ti = math.sqrt((c - s[i]) / (s[k] - c))
    tj = math.sqrt((c - s[j]) / (s[k] - c))
    margin = 2.0 * math.sqrt((c - s[i]) * (c - s[j]))
    vk = basis[:, k]
    return float(c), basis[:, i] + ti * vk, basis[:, j] + tj * vk, float(margin)


def certify(A: SymMatrix, config: Config = DEFAULT) -> Verdict:
    """Decide spherical quasi-convexity of q_A on the orthant patch: the
    verdict of the first step of _STEPS that decides, else Unknown."""
    A = as_sym_matrix(A)
    if A.n < 2:
        raise ValueError("dimension must be at least 2")
    state = _State(A, config)
    for step in _STEPS:
        if verdict := step(state):
            return verdict
    return Verdict(status=Status.UNKNOWN)


class _State:
    """What the steps read: C = (tau, B, sigma), n, tol and the off-diagonal
    part of B with its largest entry p = off[i, j].  A step builds the later
    fields it reads by _spectrum or _eigenbasis, each of which runs once."""

    def __init__(self, A: SymMatrix, config: Config):
        self.config, self.n, self.staged = config, A.n, 0
        self.C = self.tau, self.B, self.sigma = centred(A)
        self.tol = _CLUSTER_RTOL * self.sigma
        self.off = off = self.B.a.copy()
        off.reshape(-1)[:: self.n + 1] = 0.0
        self.i, self.j = divmod(int(off.argmax()), self.n)
        self.p = float(off[self.i, self.j])


def _spectrum(s: _State) -> None:
    """For steps 2-3: whether B is diagonal, its ascending eigenvalues w,
    first column v0 and their clusters.  An exactly diagonal B's eigenpairs
    are its stably sorted diagonal and the e_k in that order: no eigh."""
    if s.staged:
        return
    s.staged = 1
    largest = max(s.p, -float(s.off.reshape(-1)[s.off.argmin()]))  # max |b_ij|
    s.diagonal = largest <= _DIAGONAL_RTOL * s.sigma
    if s.diagonal:
        s.order = s.B.a.diagonal().argsort(kind="stable")
        s.sorted = s.B.a.diagonal()[s.order]
    if largest == 0.0:
        s.eigh, s.w, s.v0 = None, s.sorted, np.zeros(s.n)
        s.v0[s.order[0]] = 1.0  # the first least entry, as argmin finds it
    else:
        s.eigh = eigen_decompose(s.B)
        s.w, s.v0 = s.eigh.eigenvalues, s.eigh.vectors[:, 0].copy()
    s.clusters = cluster_eigenvalues(s.w, s.tol)


def _eigenbasis(s: _State) -> None:
    """For steps 4-6: B's eigensystem E, the mask ``fits`` of its columns
    that fit the orthant, and step 4's values and basis: the nonnegative
    eigenpairs, or the sorted diagonal and standard basis of a diagonal B."""
    if s.staged == 2:
        return
    _spectrum(s)
    s.staged = 2
    if s.diagonal:
        s.values, s.basis = s.sorted, np.eye(s.n)[:, s.order]
    s.E = s.eigh if s.eigh is not None else EigenSystem(s.w, s.basis)
    # -v fits only where v does (see EigenSystem), so v is the only sign to test
    s.fits = s.E.vectors.min(axis=0) >= -s.config.tol_sign
    if not s.diagonal:
        nonneg = s.fits.nonzero()[0]
        s.values, s.basis = s.E.eigenvalues[nonneg], s.E.vectors[:, nonneg]


def _pair(s: _State) -> Verdict | None:
    """1. Z-pattern necessity, before any eigh: the pair (e_i, e_j) has
    margin a_ij exactly, and verify_witness makes the same comparison."""
    if s.p > _refutation_limit(s.n, s.sigma, 1.0, s.config):
        x, y = pair = np.zeros((2, s.n))
        pair[0, s.i] = pair[1, s.j] = 1.0
        data = {"x": x, "y": y, "entry": (s.i, s.j)}
        witness = Witness(WitnessKind.PAIR_VIOLATION, data, s.p)
        return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)


def _constant_form(s: _State) -> Verdict | None:
    """2. A single eigenvalue makes q_A constant on the sphere."""
    _spectrum(s)
    if len(s.clusters) == 1:
        return _certified(Rule.CONSTANT_FORM, eigenvalue=s.clusters[0][0] + s.tau)


def _two_values(s: _State) -> Verdict | None:
    """3. Two clusters with a simple smallest: Yes for a diagonal B or a v0
    that fits.  Otherwise steps 4-6 have nothing to build (no nonnegative
    lambda1 vector, one value over the nonnegative eigenvectors, a_ii =
    lam2 - (lam2 - lam1) v_i^2 <= lam2), and the input ends Unknown."""
    _spectrum(s)
    clusters, diagonal = s.clusters, s.diagonal
    if len(clusters) == 2 and clusters[0][1] == 1 and (
            diagonal or float(s.v0.min()) >= -s.config.tol_sign):
        rule = (Rule.DIAGONAL_CHARACTERIZATION if diagonal
                else Rule.TWO_EIGENVALUE_CHARACTERIZATION)
        clusters = [(value + s.tau, mult) for value, mult in clusters]
        return _certified(rule, clusters=clusters, eigenvector=s.v0)


def _diagonal_obstruction(s: _State) -> Verdict | None:
    """4. The diagonal witness; a diagonal B reads its sorted diagonal, whose
    near ties eigh may mix out of the orthant; it may not verify at the edge."""
    _eigenbasis(s)
    if s.values.size >= 3:
        return _refuted(s.C, _diag_witness(s.values, s.basis, s.tol), s.config)


def _copositive(s: _State) -> Verdict | None:
    """5. Copositivity sufficiency by the module docstring's bound."""
    # A repeated lambda1 gets no Yes, and by default none is lost: it has
    # lam2 <= lam1 + 1e-8 sigma, and a Yes needs max b_ii <= lam2 + tol_slack
    # sigma (the bound and the enumeration's value are at most lam2 - max
    # b_ii), so every b_ii lies in [lam1, lam1 + D], D = (1e-8 + tol_slack)
    # sigma.  With tr B = 0 then lam1 >= -D, every eigenvalue lies in
    # [-D, (n - 1) D] and sigma < n D: false for n below 1 / (1e-8 +
    # tol_slack), about 9e7 by default.  For an exact Z-matrix a repeated
    # lambda1 means components sharing it, which the split lemma (README)
    # refutes once there is an edge: a looser tol_slack would pass such Yeses
    _eigenbasis(s)
    if s.clusters[0][1] == 1 and s.fits[0]:
        b, n, p, sigma, config = s.B.a, s.n, s.p, s.sigma, s.config
        lam2 = float(s.E.eigenvalues[1])
        pareto_min = lam2 - float(b.diagonal().max()) - (n - 1) * p
        floor = -config.tol_slack * sigma
        if pareto_min < floor and p > 0.0 and n <= enumeration_cap(config):
            # in units of sigma, as the floor is (unscaled, a floor tie moved)
            shifted = SymMatrix((lam2 * np.eye(n) - b) / sigma)
            pareto_min = sigma * pareto_spectrum(shifted, config).min_value
        if pareto_min >= floor:
            return _certified(Rule.COPOSITIVE_SUFFICIENCY, eigenvector=s.v0,
                              lambda2=lam2 + s.tau, pareto_min=pareto_min)


def _cap(s: _State) -> Verdict | None:
    """6. The cap witness: the first pair of quadsphere.edge.cap_pairs that
    verifies.  edge is imported here: an input decided earlier never loads it."""
    from .edge import cap_pairs
    _eigenbasis(s)
    for c, k, x, y, margin in cap_pairs(s.B.a, float(s.E.eigenvalues[1])):
        if verdict := _refuted(s.C, (c, x, y, margin), s.config, vertex=k):
            return verdict


# the chain in run order, numbered as in the module docstring
_STEPS = (_pair, _constant_form, _two_values, _diagonal_obstruction, _copositive, _cap)


def _certified(rule: Rule, **data) -> Verdict:
    """A Yes by ``rule``; the certificate keeps ``data`` in keyword order."""
    return Verdict(status=Status.CERTIFIED_QUASICONVEX, certificate=Certificate(rule, data))


def _refuted(C, found, config: Config, **extra) -> Verdict | None:
    """A No with the cone witness of ``found`` = (c, x, y, margin), built on
    B, its c moved to A's units and ``extra`` added to its data, if it
    verifies on C = (tau, B, sigma), else None (also for no ``found``)."""
    if found is not None:
        c, x, y, margin = found
        data = {"c": c + C[0], "x": x, "y": y, **extra}
        witness = Witness(WitnessKind.CONE_NONCONVEXITY, data, margin)
        if _verifies(C, witness, config):
            return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)
    return None
