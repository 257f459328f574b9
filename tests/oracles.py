"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: brute-force grids for
orthant minima, the closed-form 2x2 eigenproblem, finite differences for
derivatives along geodesics, a one-support-at-a-time Pareto enumeration, a
one-start-at-a-time descent, the loop forms of the eigenvector sign step and
the eigenvalue clustering, certify's steps 1 and 3 as they ran through the
eigendecomposition with the one-value-at-a-time diagonal witness, and the
intrinsic sphere geometry (distances, minimal geodesic segments, the
spherical gradient of q_A) that the falsifier's Gram-form kernel must agree
with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from quadsphere.certify import (
    _CLUSTER_RTOL,
    Certificate,
    Rule,
    Status,
    Verdict,
    Witness,
    WitnessKind,
    verify_witness,
)
from quadsphere.config import DEFAULT, Config
from quadsphere.linalg import SymMatrix, as_sym_matrix, centred, eigen_decompose
from quadsphere.sphere import SpherePoint

# endpoints closer than this are treated as coincident (constant geodesic)
_COINCIDENT_TOL = 1e-12
# endpoints farther than pi - this require an explicit tangent direction
_ANTIPODAL_TOL = 1e-9


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


def reference_descent(a: np.ndarray, x0: np.ndarray, max_iter: int = 10_000):
    """Projected gradient descent with clamp-then-normalize retraction from
    one start, one step size at a time (the loop form of probe._descent).

    Each iteration halves eta from eta0 = sqrt(n) / ||A||_F (1 for A = 0)
    while eta >= 1e-12 eta0 and takes the first trial passing the Armijo
    test against the projected displacement.  Stops
    without decrease, after a step below 1e-10, or after ``max_iter``
    iterations.  Returns (value, argmin, iterations, boundary_hit,
    value_trajectory).
    """
    x = np.asarray(x0, dtype=float).copy()
    x = np.maximum(x, 0.0)
    x /= np.linalg.norm(x)
    q = float(x @ a @ x)
    norm = float(np.linalg.norm(a))
    eta0 = np.sqrt(a.shape[0]) / norm if norm > 0.0 else 1.0
    trajectory = [q]
    boundary = False
    it = 0
    for it in range(1, max_iter + 1):
        ax = a @ x
        g = 2.0 * (ax - q * x)
        eta = eta0
        xn, qn = x, q
        while eta >= 1e-12 * eta0:
            clipped = np.maximum(x - eta * g, 0.0)
            decrease = -1e-4 * float(g @ (clipped - x))
            nrm = float(np.linalg.norm(clipped))
            if nrm > 0.0:
                trial = clipped / nrm
                qt = float(trial @ a @ trial)
                if qt <= q - decrease:
                    xn, qn = trial, qt
                    break
            eta /= 2.0
        if qn >= q:
            break
        step = float(np.linalg.norm(xn - x))
        boundary = boundary or bool((xn == 0.0).any())
        x, q = xn, qn
        trajectory.append(q)
        if step < 1e-10:
            break
    return q, x, it, boundary, trajectory


def reference_sign_normalize(v: np.ndarray) -> np.ndarray:
    """Flip each column of ``v`` whose first entry of largest magnitude is
    negative, one column at a time (the loop form of eigen_decompose's sign
    step)."""
    v = v.copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return v


def reference_clusters(w: np.ndarray, tol: float) -> list:
    """(mean, size) of each run of ascending ``w`` whose consecutive gaps are
    at most ``tol``, one element at a time (the loop form of
    cluster_eigenvalues)."""
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            members = w[start:i]
            clusters.append((float(members.mean()), int(len(members))))
            start = i
    return clusters


def reference_diag_witness(values, basis, tol: float) -> Witness | None:
    """certify._diag_witness with its clusters gathered one value at a time:
    a value within ``tol`` of the current cluster's first value joins it."""
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


def reference_diagonal_route(A: SymMatrix, config: Config = DEFAULT) -> Verdict | None:
    """certify's steps 1 and 3 on a diagonal A (step 2 declines there), read
    from the full eigendecomposition of B = A - tau I: the Verdict they
    return, or None where the chain goes on past step 3."""
    A = as_sym_matrix(A)
    tau, B, sigma = centred(A)
    b, n = B.a, A.n
    E = eigen_decompose(B)
    clusters = reference_clusters(E.eigenvalues, _CLUSTER_RTOL * sigma)
    if len(clusters) == 1:
        data = {"eigenvalue": clusters[0][0] + tau}
        return Verdict(Status.CERTIFIED_QUASICONVEX, Certificate(Rule.CONSTANT_FORM, data))
    if len(clusters) == 2 and clusters[0][1] == 1:
        clusters = [(value + tau, mult) for value, mult in clusters]
        data = {"clusters": clusters, "eigenvector": E.vectors[:, 0].copy()}
        certificate = Certificate(Rule.DIAGONAL_CHARACTERIZATION, data)
        return Verdict(Status.CERTIFIED_QUASICONVEX, certificate)
    witness = reference_diag_witness(np.diag(b), np.eye(n), _CLUSTER_RTOL * sigma)
    if witness is not None:
        witness = replace(witness, data={**witness.data, "c": witness.data["c"] + tau})
        if verify_witness(A, witness, config):
            return Verdict(status=Status.CERTIFIED_NOT_QUASICONVEX, witness=witness)
    return None


def as_point(x) -> SpherePoint:
    if isinstance(x, SpherePoint):
        return x
    return SpherePoint(x)


def intrinsic_distance(x, y) -> float:
    """Arc length between two sphere points, in [0, pi].

    The inner product is clamped to [-1, 1] before arccos; floating point can
    exceed the bound by a few ulps.
    """
    x, y = as_point(x), as_point(y)
    ip = float(np.clip(np.dot(x.coords, y.coords), -1.0, 1.0))
    return float(np.arccos(ip))


@dataclass(frozen=True)
class GeodesicSegment:
    """Minimal geodesic segment from x to y, parameterized over [0, 1].

    For antipodal endpoints the segment is not unique and
    ``antipodal_direction`` (a unit tangent at x) must be supplied.
    """

    x: SpherePoint
    y: SpherePoint
    length: float
    antipodal_direction: np.ndarray | None = None

    @staticmethod
    def connect(x, y, antipodal_direction=None) -> "GeodesicSegment":
        x, y = as_point(x), as_point(y)
        d = intrinsic_distance(x, y)
        direction = None
        if d > np.pi - _ANTIPODAL_TOL:
            if antipodal_direction is None:
                raise ValueError(
                    "antipodal endpoints: supply a unit tangent direction at x"
                )
            v = np.array(antipodal_direction, dtype=float)
            v = v / np.linalg.norm(v)
            if abs(float(np.dot(v, x.coords))) > 1e-12:
                raise ValueError("antipodal direction must be tangent at x")
            v.setflags(write=False)
            direction = v
        return GeodesicSegment(x=x, y=y, length=d, antipodal_direction=direction)


def geodesic_eval(g: GeodesicSegment, t: float) -> SpherePoint:
    """Evaluate the geodesic at parameter t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter t must lie in [0, 1], got {t}")
    x = g.x.coords
    y = g.y.coords
    d = g.length
    if d < _COINCIDENT_TOL:
        return g.x
    if d > np.pi - _ANTIPODAL_TOL:
        if g.antipodal_direction is None:
            raise ValueError(
                "antipodal endpoints: supply a unit tangent direction at x"
            )
        arc = t * np.pi
        return SpherePoint(np.cos(arc) * x + np.sin(arc) * g.antipodal_direction)
    ip = float(np.clip(np.dot(x, y), -1.0, 1.0))
    s = np.sqrt(1.0 - ip * ip)
    td = t * d
    coeff_x = np.cos(td) - ip * np.sin(td) / s
    coeff_y = np.sin(td) / s
    return SpherePoint(coeff_x * x + coeff_y * y)


def spherical_gradient_q(A: SymMatrix, x) -> np.ndarray:
    """Gradient of q_A(x) = <Ax, x> on the sphere: 2(Ax - <Ax, x> x).

    The result lies in the tangent space at x.
    """
    A = as_sym_matrix(A)
    x = as_point(x)
    if A.n != x.n:
        raise ValueError("dimension mismatch between matrix and point")
    ax = A.a @ x.coords
    return 2.0 * (ax - float(ax @ x.coords) * x.coords)
