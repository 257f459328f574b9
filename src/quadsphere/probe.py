"""Numerical falsification and minimization on the orthant patch.

``falsify`` scores sampled pairs by three quasi-convexity tests (the two-point
inequality, the geodesic sweep, the sublevel-cone midpoint test) in one kernel,
``_margins``, which sweeps the geodesic through the pair's 2x2 Gram form.
Samples are drawn and scored in blocks of at most ``_BLOCK`` rows and
``_BLOCK_ENTRIES`` coordinates; the best hit is sharpened by coordinate search
scored by the same kernel, and the witness is read from the kernel's row.

``minimize_orthant`` computes the exact minimum via the Pareto spectrum when
the dimension permits and falls back to multi-start projected gradient
descent with a clamp-then-normalize retraction otherwise.  ``_descent``
advances all starts as the rows of one array: one matmul gives every
gradient, one more the trial values of ``_ETA_CHUNK`` Armijo step sizes for
every start still backtracking, and a start leaves the stack when it stops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .certify import Witness, WitnessKind, verify_witness
from .cones import enumeration_cap, pareto_spectrum
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
# columns of a ``_margins`` row: the three test margins, the coefficients
# (alpha, beta) of the best geodesic point and c = max{q(x), q(y)}
_PAIR, _GEODESIC, _MIDPOINT, _ALPHA, _BETA, _C = range(6)
# pairs drawn and scored at a time, at most _BLOCK rows and _BLOCK_ENTRIES
# sampled coordinates per side, so memory grows with neither samples nor n
_BLOCK = 2**17
_BLOCK_ENTRIES = 2**21
# coordinate search: at most this many sweeps, the step halving from 0.1
_SWEEPS = 200
_STEP0 = 0.1
# descent backtrack: the step sizes 1, 1/2, 1/4, ... down to the last one
# >= 1e-12, scored _ETA_CHUNK at a time; on the probe-search benchmark
# inputs 97% of iterations at n = 64 (99.8% at n = 20) pass within the
# first 4, so one chunk
_ETAS = 0.5 ** np.arange(40)
_ETA_CHUNK = 4


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


def _margins(a: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """One row per unit-vector pair (X[i], Y[i]) with c = max{q(x), q(y)}:
    the pair margin <Ax, y> - <x, y> c, the best geodesic margin
    q(alpha x + beta y) - c over the sweep ``_GEODESIC_TS``, the midpoint
    margin (x + y)^T (A - cI)(x + y), the best (alpha, beta), and c.

    The sweep uses the Gram form
    q(alpha x + beta y) = alpha^2 q(x) + 2 alpha beta <Ax, y> + beta^2 q(y).
    (Anti)parallel pairs have no unique geodesic: margin -inf, alpha = beta = 0.
    """
    AX = X @ a
    qx = np.einsum("ij,ij->i", AX, X)
    qy = np.einsum("ij,ij->i", Y @ a, Y)
    bxy = np.einsum("ij,ij->i", AX, Y)
    ip = np.clip(np.einsum("ij,ij->i", X, Y), -1.0, 1.0)
    c = np.maximum(qx, qy)
    # sine of the angle from the part of y orthogonal to x; sqrt(1 - ip^2)
    # loses every digit near 0 and pi
    s = np.linalg.norm(Y - ip[:, None] * X, axis=1)
    safe = s > 1e-9
    s = np.where(safe, s, 1.0)
    d = np.arctan2(s, ip)
    geo = np.full(c.size, -np.inf)
    alpha, beta = np.zeros(c.size), np.zeros(c.size)
    for t in _GEODESIC_TS:
        b = np.sin(t * d) / s
        al = np.cos(t * d) - ip * b
        m = al * (al * qx + 2.0 * b * bxy) + b * b * qy - c
        upd = safe & (m > geo)
        geo[upd], alpha[upd], beta[upd] = m[upd], al[upd], b[upd]
    return np.column_stack(
        (bxy - ip * c, geo, qx + qy + 2.0 * bxy - c * (2.0 + 2.0 * ip), alpha, beta, c)
    )


def falsify(
    A: SymMatrix, samples: int, seed: int, tol_margin: float = DEFAULT.tol_margin
) -> ProbeReport:
    """Seeded search for a quasi-convexity violation.

    Returns a witness iff the refined margin exceeds ``tol_margin``.
    Deterministic per (A, samples, seed).  Pairs are drawn in blocks of
    min(_BLOCK, _BLOCK_ENTRIES // n) rows (an X block, then a Y block), so up
    to that many samples draw exactly one X and one Y array.
    """
    A = as_sym_matrix(A)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    a = A.a
    rng = np.random.default_rng(seed)
    best = np.full(3, -np.inf)
    pairs = [None] * 3
    rows = min(_BLOCK, _BLOCK_ENTRIES // A.n)
    for start in range(0, samples, rows):
        X = sample_orthant_array(A.n, min(rows, samples - start), rng)
        Y = sample_orthant_array(A.n, X.shape[0], rng)
        M = _margins(a, X, Y)
        for col, i in enumerate(np.argmax(M[:, :3], axis=0)):
            if M[i, col] > best[col]:
                best[col] = M[i, col]
                pairs[col] = (X[i].copy(), Y[i].copy())
    col = int(np.argmax(best))
    best_margin = float(best[col])

    witness = None
    if best_margin > 0.0:
        x, y, row = _refine(a, *pairs[col], col)
        best_margin = float(row[col])
        if best_margin > tol_margin:
            witness = _build_witness(x, y, col, row)
            if not verify_witness(A, witness, Config(tol_margin=tol_margin)):
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


def _refine(a, x, y, col: int):
    """Coordinate search raising column ``col`` of the pair's kernel row.

    A sweep runs over the coordinates of x, then of y, tries +step before
    -step and takes the first trial that improves; a sweep without a move
    halves the step.  The trials left in a sweep are scored from the current
    pair in one kernel call.  Returns x, y and the final pair's kernel row.
    """
    P = np.array([x, y])
    n = P.shape[1]
    row = _margins(a, P[:1], P[1:])[0]
    step = _STEP0
    for _ in range(_SWEEPS):
        improved = False
        k = 0  # next coordinate of P.ravel(): x's first, then y's
        while k < 2 * n:
            # one trial per remaining (coordinate, +step / -step), in sweep order
            coords = np.repeat(np.arange(k, 2 * n), 2)
            base = P.ravel()[coords]
            trial = np.maximum(base + np.resize([step, -step], coords.size), 0.0)
            V = P[coords // n]
            V[np.arange(coords.size), coords % n] = trial
            nrm = np.linalg.norm(V, axis=1)
            ok = (trial != base) & (nrm > 0.0)
            coords, V = coords[ok], V[ok] / nrm[ok, None]
            in_x = (coords < n)[:, None]
            rows = _margins(a, np.where(in_x, V, P[0]), np.where(in_x, P[1], V))
            better = np.flatnonzero(rows[:, col] > row[col])
            if better.size == 0:
                break
            j = better[0]
            P[coords[j] // n] = V[j]
            row = rows[j]
            k = coords[j] + 1
            improved = True
        if not improved:
            step /= 2.0
            if step < 1e-12:
                break
    return P[0], P[1], row


def _build_witness(x, y, col: int, row) -> Witness:
    """Witness for kernel column ``col`` from the pair's kernel ``row``."""
    margin, c = float(row[col]), float(row[_C])
    if col == _PAIR:
        return Witness(WitnessKind.PAIR_VIOLATION, {"x": x, "y": y}, margin)
    if col == _GEODESIC:
        # the geodesic point alpha x + beta y is a positive combination, so
        # scaling the endpoints gives a sublevel-cone witness of the same margin
        x, y = row[_ALPHA] * x, row[_BETA] * y
    return Witness(WitnessKind.CONE_NONCONVEXITY, {"c": c, "x": x, "y": y}, margin)


def minimize_orthant(A: SymMatrix, config: Config = DEFAULT) -> MinResult:
    """Minimum of q_A over the unit orthant patch.

    Exact (least Pareto eigenvalue) when n fits the enumeration budget.
    Otherwise projected gradient descent with a clamp-then-normalize
    retraction from 8 seeded starts, all run stacked; the result is the
    first start with the least value (method ``GeodesicDescent``).
    """
    A = as_sym_matrix(A)
    if A.n <= enumeration_cap(config):
        spectrum = pareto_spectrum(A, config)
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
    values, X, iterations, boundary, _ = _descent(
        A.a, sample_orthant_array(A.n, starts, rng)
    )
    k = int(np.argmin(values))  # the first start with the least value
    return MinResult(
        value=float(values[k]),
        argmin=SpherePoint(X[k]),
        method=MinMethod.GEODESIC_DESCENT,
        iterations=int(iterations[k]),
        boundary_hit=bool(boundary[k]),
    )


def _descent(a: np.ndarray, X0: np.ndarray, max_iter: int = 10_000):
    """Projected gradient descent with clamp-then-normalize retraction, one
    start per row of ``X0``, all starts advanced together.

    A start stops at its first iteration without decrease, after a step
    shorter than 1e-10, or after ``max_iter`` iterations; stopped rows drop
    out of the stack.  Returns per-start arrays (value, argmin rows,
    iterations, boundary_hit) and the value trajectory, one row per
    iteration and one column per start, which is nonincreasing down each
    column by construction.
    """
    X = np.maximum(np.asarray(X0, dtype=float), 0.0)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    Q = np.einsum("ij,ij->i", X @ a, X)
    iterations = np.zeros(Q.size, dtype=int)
    boundary = np.zeros(Q.size, dtype=bool)
    trajectory = [Q.copy()]
    live = np.arange(Q.size)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        x, q = X[live], Q[live]
        xn, qn = _backtrack(a, x, q, 2.0 * (x @ a - q[:, None] * x))
        iterations[live] = it
        moved = qn < q
        live, x, xn = live[moved], x[moved], xn[moved]
        boundary[live] |= (xn == 0.0).any(axis=1)
        X[live], Q[live] = xn, qn[moved]
        trajectory.append(Q.copy())
        live = live[np.linalg.norm(xn - x, axis=1) >= 1e-10]
    return Q, X, iterations, boundary, np.array(trajectory)


def _backtrack(a: np.ndarray, x: np.ndarray, q: np.ndarray, g: np.ndarray):
    """Armijo backtrack for each row: the trial of the first step size in
    ``_ETAS`` whose value passes q(trial) <= q - 1e-4 g^T (clipped - x),
    where clipped = max(x - eta g, 0) and trial = clipped / ||clipped||.

    The test is against the projected displacement: plain decrease stalls
    when a step length sits exactly at the zero-improvement boundary, and
    the raw gradient norm overstates what is achievable once coordinates
    are clamped at zero.  ``_ETA_CHUNK`` step sizes are scored at once for
    every row still undecided; a row where none passes keeps (x, q).
    """
    xn, qn = x.copy(), q.copy()
    rows = np.arange(q.size)
    for lo in range(0, _ETAS.size, _ETA_CHUNK):
        xr, gr = x[rows], g[rows]
        clipped = np.maximum(
            xr[:, None, :] - _ETAS[lo:lo + _ETA_CHUNK, None] * gr[:, None, :], 0.0
        )
        decrease = -1e-4 * np.einsum("rcn,rn->rc", clipped - xr[:, None, :], gr)
        nrm = np.linalg.norm(clipped, axis=2)
        trial = clipped / np.where(nrm > 0.0, nrm, 1.0)[:, :, None]
        flat = trial.reshape(-1, x.shape[1])
        qt = np.einsum("ij,ij->i", flat @ a, flat).reshape(nrm.shape)
        passed = (nrm > 0.0) & (qt <= q[rows, None] - decrease)
        hit = passed.any(axis=1)
        k = passed[hit].argmax(axis=1)
        xn[rows[hit]], qn[rows[hit]] = trial[hit, k], qt[hit, k]
        rows = rows[~hit]
        if rows.size == 0:
            break
    return xn, qn
