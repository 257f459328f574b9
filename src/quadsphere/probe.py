"""Numerical falsification and minimization on the orthant patch.

``falsify`` hunts for quasi-convexity violations with three vectorized tests
per sampled pair (the two-point inequality, the geodesic sweep, and the
shifted sublevel-cone midpoint test), then sharpens the best hit by
derivative-free coordinate search.  ``minimize_orthant`` computes the exact
minimum via the Pareto spectrum when the dimension permits and falls back to
multi-start projected geodesic descent otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .certify import Witness, WitnessKind, verify_witness
from .cones import pareto_spectrum
from .config import Config, DEFAULT
from .linalg import SymMatrix, as_sym_matrix
from .sphere import SpherePoint, sample_orthant_array

__all__ = [
    "ProbeReport",
    "MinResult",
    "MinMethod",
    "falsify",
    "minimize_orthant",
]

_GEODESIC_TS = np.array([1, 2, 3, 4, 5, 6, 7], dtype=float) / 8.0


@dataclass(frozen=True)
class ProbeReport:
    samples_used: int
    best_margin: float
    witness: Witness | None
    seed: int


class MinMethod(enum.Enum):
    EXACT_PARETO = "ExactPareto"
    GEODESIC_DESCENT = "GeodesicDescent"


@dataclass(frozen=True)
class MinResult:
    value: float
    argmin: SpherePoint
    method: MinMethod
    iterations: int
    boundary_hit: bool = False


def _quad_rows(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum("ij,jk,ik->i", X, a, X)


def falsify(
    A: SymMatrix, samples: int, seed: int, tol_margin: float = DEFAULT.tol_margin
) -> ProbeReport:
    """Seeded search for a quasi-convexity violation.

    Returns a witness iff the refined margin exceeds ``tol_margin``.
    Deterministic per (A, samples, seed).
    """
    A = as_sym_matrix(A)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    a = A.a
    rng = np.random.default_rng(seed)
    X = sample_orthant_array(A.n, samples, rng)
    Y = sample_orthant_array(A.n, samples, rng)

    qx = _quad_rows(a, X)
    qy = _quad_rows(a, Y)
    qmax = np.maximum(qx, qy)
    ip = np.clip(np.sum(X * Y, axis=1), -1.0, 1.0)

    # test 1: two-point inequality
    m_pair = np.sum((X @ a) * Y, axis=1) - ip * qmax

    # test 2: geodesic sweep over interior parameters
    d = np.arccos(ip)
    s = np.sqrt(np.maximum(1.0 - ip * ip, 0.0))
    safe = s > 1e-9
    s_safe = np.where(safe, s, 1.0)
    m_geo = np.full(samples, -np.inf)
    t_best = np.zeros(samples)
    for t in _GEODESIC_TS:
        alpha = np.cos(t * d) - ip * np.sin(t * d) / s_safe
        beta = np.sin(t * d) / s_safe
        G = alpha[:, None] * X + beta[:, None] * Y
        mg = np.where(safe, _quad_rows(a, G) - qmax, -np.inf)
        upd = mg > m_geo
        m_geo[upd] = mg[upd]
        t_best[upd] = t

    # test 3: shifted sublevel-cone midpoint, c = max{q(x), q(y)}
    sum_sq = 2.0 + 2.0 * ip
    m_mid = qx + qy + 2.0 * np.sum((X @ a) * Y, axis=1) - qmax * sum_sq

    candidates = [
        ("pair", float(m_pair.max()), int(np.argmax(m_pair))),
        ("geodesic", float(m_geo.max()), int(np.argmax(m_geo))),
        ("midpoint", float(m_mid.max()), int(np.argmax(m_mid))),
    ]
    kind, margin, idx = max(candidates, key=lambda c: c[1])

    witness = None
    best_margin = margin
    if margin > 0.0:
        x, y, best_margin = _refine(a, X[idx], Y[idx], kind, tol_margin)
        if best_margin > tol_margin:
            witness = _build_witness(a, x, y, kind)
            if witness is not None and not verify_witness(
                A, witness, Config(tol_margin=tol_margin)
            ):
                witness = None
    if witness is None and best_margin > tol_margin:
        # refined margin is positive but the witness form did not verify;
        # report the margin honestly without a witness claim
        best_margin = min(best_margin, tol_margin)
    return ProbeReport(
        samples_used=samples,
        best_margin=float(best_margin),
        witness=witness,
        seed=seed,
    )


def _margin_of(a: np.ndarray, x: np.ndarray, y: np.ndarray, kind: str) -> float:
    qx = float(x @ a @ x)
    qy = float(y @ a @ y)
    qmax = max(qx, qy)
    ip = float(np.clip(x @ y, -1.0, 1.0))
    if kind == "pair":
        return float(x @ a @ y) - ip * qmax
    if kind == "midpoint":
        s = x + y
        return float(s @ a @ s) - qmax * float(s @ s)
    return _geodesic_best(a, x, y, qmax, ip)[0]


def _geodesic_best(a, x, y, qmax: float, ip: float):
    """Best geodesic-sweep margin and the sweep parameter t attaining it.

    Returns (-inf, None) when x and y are (anti)parallel.
    """
    d = float(np.arccos(ip))
    s = np.sqrt(max(1.0 - ip * ip, 0.0))
    if s <= 1e-9:
        return -np.inf, None
    best_m, best_t = -np.inf, None
    for t in _GEODESIC_TS:
        g = (np.cos(t * d) - ip * np.sin(t * d) / s) * x + (np.sin(t * d) / s) * y
        m = float(g @ a @ g) - qmax
        if m > best_m:
            best_m, best_t = m, t
    return best_m, best_t


def _refine(a, x, y, kind, tol_margin, steps: int = 200):
    """Coordinate-wise hill climbing on the pair, step halving from 0.1."""
    x = x.copy()
    y = y.copy()
    best = _margin_of(a, x, y, kind)
    step = 0.1
    n = x.shape[0]
    for _ in range(steps):
        improved = False
        for vec in (x, y):
            for i in range(n):
                base = vec[i]
                for delta in (step, -step):
                    trial = max(0.0, base + delta)
                    if trial == base:
                        continue
                    vec[i] = trial
                    nrm = float(np.linalg.norm(vec))
                    if nrm == 0.0:
                        vec[i] = base
                        continue
                    saved = vec.copy()
                    vec /= nrm
                    cand = _margin_of(a, x, y, kind)
                    if cand > best:
                        best = cand
                        improved = True
                        break
                    vec[:] = saved
                    vec[i] = base
                else:
                    continue
        if not improved:
            step /= 2.0
            if step < 1e-12:
                break
    return x, y, best


def _build_witness(a, x, y, kind) -> Witness | None:
    qx = float(x @ a @ x)
    qy = float(y @ a @ y)
    qmax = max(qx, qy)
    if kind == "pair":
        margin = _margin_of(a, x, y, "pair")
        return Witness(
            kind=WitnessKind.PAIR_VIOLATION,
            data={"x": x, "y": y},
            margin=margin,
        )
    if kind == "midpoint":
        s = x + y
        margin = float(s @ (a - qmax * np.eye(a.shape[0])) @ s)
        return Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={"c": qmax, "x": x, "y": y},
            margin=margin,
        )
    # geodesic: the violating geodesic point is a positive combination
    # alpha x + beta y, so scaling the endpoints turns it into a sublevel-cone
    # witness with the same violation value
    ip = float(np.clip(x @ y, -1.0, 1.0))
    best_m, best_t = _geodesic_best(a, x, y, qmax, ip)
    if best_t is None:
        return None
    d = float(np.arccos(ip))
    s = np.sqrt(max(1.0 - ip * ip, 0.0))
    alpha = np.cos(best_t * d) - ip * np.sin(best_t * d) / s
    beta = np.sin(best_t * d) / s
    if alpha < 0.0 or beta < 0.0:
        return None
    return Witness(
        kind=WitnessKind.CONE_NONCONVEXITY,
        data={"c": qmax, "x": alpha * x, "y": beta * y},
        margin=best_m,
    )


def minimize_orthant(A: SymMatrix, config: Config = DEFAULT) -> MinResult:
    """Minimum of q_A over the unit orthant patch.

    Exact (least Pareto eigenvalue) when n fits the enumeration budget,
    multi-start projected geodesic descent otherwise.
    """
    A = as_sym_matrix(A)
    if A.n <= config.max_exact_dim:
        spectrum = pareto_spectrum(A, max_exact_dim=config.max_exact_dim)
        least = spectrum.pairs[0]
        return MinResult(
            value=least.value,
            argmin=SpherePoint(least.vector),
            method=MinMethod.EXACT_PARETO,
            iterations=0,
        )
    return _descent_best(A, starts=8, seed=config.seed)


def _descent_best(A: SymMatrix, starts: int, seed: int) -> MinResult:
    rng = np.random.default_rng(seed)
    X0 = sample_orthant_array(A.n, starts, rng)
    best = None
    for x0 in X0:
        value, x, iters, boundary, _ = _descent(A.a, x0)
        if best is None or value < best.value:
            best = MinResult(
                value=value,
                argmin=SpherePoint(x),
                method=MinMethod.GEODESIC_DESCENT,
                iterations=iters,
                boundary_hit=boundary,
            )
    return best


def _descent(a: np.ndarray, x0: np.ndarray, max_iter: int = 10_000):
    """Projected gradient descent with clamp-then-normalize retraction.

    Returns (value, argmin, iterations, boundary_hit, value_trajectory);
    the trajectory is nonincreasing by construction.
    """
    x = np.asarray(x0, dtype=float).copy()
    x = np.maximum(x, 0.0)
    x /= np.linalg.norm(x)
    q = float(x @ a @ x)
    trajectory = [q]
    boundary = False
    it = 0
    for it in range(1, max_iter + 1):
        ax = a @ x
        g = 2.0 * (ax - q * x)
        eta = 1.0
        xn, qn = x, q
        while eta >= 1e-12:
            clipped = np.maximum(x - eta * g, 0.0)
            # Armijo sufficient decrease against the projected displacement;
            # plain decrease stalls when a step length sits exactly at the
            # zero-improvement boundary, and the raw gradient norm overstates
            # what is achievable once coordinates are clamped at zero
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
