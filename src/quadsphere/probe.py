"""Numerical falsification and minimization on the orthant patch.

``falsify`` scores sampled pairs by two quasi-convexity tests (the two-point
inequality and the sublevel-cone midpoint test) in one kernel, ``_margins``.
Samples are drawn and scored in blocks of at most ``_BLOCK`` rows and
``_BLOCK_ENTRIES`` coordinates; the best hit is sharpened by coordinate search
scored by the same kernel, and the witness is read from the kernel's row.

The paper's third test, a geodesic sweep, is not scored: on the orthant it
never beats the pair margin.  For unit x, y >= 0, c = max{q(x), q(y)} and
f(u, v) = u^T (A - cI) v, the pair margin is f(x, y), and a unit geodesic
point alpha x + beta y (alpha, beta >= 0) has margin alpha^2 f(x, x) +
2 alpha beta f(x, y) + beta^2 f(y, y) <= 2 alpha beta f(x, y), where its
norm gives 1 >= 2 alpha beta (1 + <x, y>) >= 2 alpha beta.

``minimize_orthant`` first runs the Perron screen: when the least
eigenvector fits the orthant and, clipped at 0, attains its eigenvalue, that
eigenvalue is the exact minimum, at every n (one ``eigh`` up to the
enumeration cap, ``eigvalsh`` and one shifted solve past it).  Otherwise the
minimum is exact via the Pareto spectrum up to the cap, and past it comes
from multi-start projected gradient descent with a clamp-then-normalize
retraction: ``_descent`` advances all starts as the rows of one array, one
matmul gives every gradient, one more the trial values of ``_ETA_CHUNK``
Armijo step sizes for every start still backtracking, and a start leaves
the stack when it stops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .certify import Witness, WitnessKind, verify_witness
from .cones import _perron_pair, enumeration_cap, pareto_spectrum
from .config import Config, DEFAULT
from .linalg import SymMatrix, as_sym_matrix, centred
from .sphere import SpherePoint, sample_orthant_array

__all__ = [
    "ProbeReport",
    "MinResult",
    "MinMethod",
    "falsify",
    "minimize_orthant",
]

# columns of a ``_margins`` row: the two test margins and c = max{q(x), q(y)}
_PAIR, _MIDPOINT, _C = range(3)
# pairs drawn and scored at a time, at most _BLOCK rows and _BLOCK_ENTRIES
# sampled coordinates per side, so memory grows with neither samples nor n
_BLOCK = 2**17
_BLOCK_ENTRIES = 2**21
# coordinate search: at most this many sweeps, the step halving from 0.1
_SWEEPS = 200
_STEP0 = 0.1
# descent backtrack: the step sizes 1, 1/2, 1/4, ... down to the last one
# >= 1e-12, times sqrt(n) / ||A||_F, so the descent on tA takes the steps it
# takes on A (bit for bit when t is a power of two)
_ETAS = 0.5 ** np.arange(40)
# step sizes scored at once; on 10 seeded standard-normal inputs each, 99%
# of backtracks pass within the first 4 at n = 20 and at n = 64 (71% and 4%
# when the sizes started at 1 whatever ||A||)
_ETA_CHUNK = 4
_MAX_ITER = 10_000  # descent iterations per start, at most


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
    the pair margin <Ax, y> - <x, y> c, the midpoint margin
    (x + y)^T (A - cI)(x + y), and c."""
    AX = X @ a
    qx = np.einsum("ij,ij->i", AX, X)
    qy = np.einsum("ij,ij->i", Y @ a, Y)
    bxy = np.einsum("ij,ij->i", AX, Y)
    ip = np.clip(np.einsum("ij,ij->i", X, Y), -1.0, 1.0)
    c = np.maximum(qx, qy)
    mid = qx + qy + 2.0 * bxy - c * (2.0 + 2.0 * ip)
    return np.column_stack((bxy - ip * c, mid, c))


def falsify(
    A: SymMatrix, samples: int, seed: int, tol_margin: float = DEFAULT.tol_margin
) -> ProbeReport:
    """Seeded search for a quasi-convexity violation.

    Scores B = A - tau I (linalg.centred), where margins are A's; returns a
    witness (c in A's units) iff verify_witness accepts it under
    ``tol_margin``, else caps a positive margin at tol_margin * sigma; with
    no positive margin, best_margin is the best pair or midpoint margin.
    Deterministic per (A, samples, seed).  Pairs are drawn in blocks of
    min(_BLOCK, _BLOCK_ENTRIES // n) rows (an X block, then a Y block), so up
    to that many samples draw exactly one X and one Y array.
    """
    A = as_sym_matrix(A)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    tau, B, sigma = centred(A)
    a = B.a
    rng = np.random.default_rng(seed)
    best = np.full(2, -np.inf)
    pairs = [None] * 2
    rows = min(_BLOCK, _BLOCK_ENTRIES // A.n)
    for start in range(0, samples, rows):
        X = sample_orthant_array(A.n, min(rows, samples - start), rng)
        Y = sample_orthant_array(A.n, X.shape[0], rng)
        M = _margins(a, X, Y)
        for col, i in enumerate(np.argmax(M[:, :2], axis=0)):
            if M[i, col] > best[col]:
                best[col] = M[i, col]
                pairs[col] = (X[i].copy(), Y[i].copy())
    col = int(np.argmax(best))
    best_margin = float(best[col])

    witness = None
    if best_margin > 0.0:
        x, y, row = _refine(a, *pairs[col], col)
        best_margin = float(row[col])
        witness = _build_witness(x, y, col, row, tau)
        if not verify_witness(A, witness, Config(tol_margin=tol_margin)):
            witness = None  # reported honestly, without a witness claim
            best_margin = min(best_margin, tol_margin * sigma)
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


def _build_witness(x, y, col: int, row, tau: float) -> Witness:
    """Witness, in A's units, for column ``col`` of the kernel ``row`` on A - tau I."""
    margin, c = float(row[col]), float(row[_C]) + tau
    if col == _PAIR:
        return Witness(WitnessKind.PAIR_VIOLATION, {"x": x, "y": y}, margin)
    return Witness(WitnessKind.CONE_NONCONVEXITY, {"c": c, "x": x, "y": y}, margin)


def minimize_orthant(A: SymMatrix, config: Config = DEFAULT) -> MinResult:
    """Minimum of q_A over the unit orthant patch.

    Exact (least Pareto eigenvalue, method ``ExactPareto``) at every n when
    the least eigenvector fits the orthant up to config.tol_sign and its
    clipped point attains lambda1 (cones._perron_pair), as for every
    irreducible Z-matrix: one ``eigh`` up to the enumeration cap, past it
    ``eigvalsh`` and one shifted solve.  Otherwise exact by support
    enumeration up to the cap, and past it projected gradient descent with a
    clamp-then-normalize retraction from 8 seeded starts, all run stacked,
    whose first trial step is sqrt(n) / ||A||_F, so that it runs the same on
    every positive multiple of A; the result is the first start with the
    least value (``GeodesicDescent``).
    """
    A = as_sym_matrix(A)
    lam1, x = _perron_pair(A, config)
    if x is not None:
        return MinResult(
            value=lam1, argmin=x, method=MinMethod.EXACT_PARETO, iterations=0
        )
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
    X0 = sample_orthant_array(A.n, starts, rng)
    values, X, iterations, boundary = _descent(A.a, X0)
    k = int(np.argmin(values))  # the first start with the least value
    return MinResult(
        value=float(values[k]),
        argmin=SpherePoint(X[k]),
        method=MinMethod.GEODESIC_DESCENT,
        iterations=int(iterations[k]),
        boundary_hit=bool(boundary[k]),
    )


def _descent(a: np.ndarray, X0: np.ndarray):
    """Projected gradient descent with clamp-then-normalize retraction, one
    start per row of ``X0``, all starts advanced together, each backtrack
    over the step sizes ``_ETAS`` times sqrt(n) / ||A||_F.

    A start stops at its first iteration without decrease, after a step
    shorter than 1e-10, or after ``_MAX_ITER`` iterations; stopped rows drop
    out of the stack.  A start moves only on a decrease, so its value never
    increases.  Returns per-start arrays (value, argmin rows, iterations,
    boundary_hit).
    """
    X = np.maximum(np.asarray(X0, dtype=float), 0.0)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    norm = float(np.linalg.norm(a))
    etas = _ETAS * (np.sqrt(a.shape[0]) / norm if norm > 0.0 else 1.0)
    Q = np.einsum("ij,ij->i", X @ a, X)
    iterations = np.zeros(Q.size, dtype=int)
    boundary = np.zeros(Q.size, dtype=bool)
    live = np.arange(Q.size)
    for it in range(1, _MAX_ITER + 1):
        if live.size == 0:
            break
        x, q = X[live], Q[live]
        xn, qn = _backtrack(a, x, q, 2.0 * (x @ a - q[:, None] * x), etas)
        iterations[live] = it
        moved = qn < q
        live, x, xn = live[moved], x[moved], xn[moved]
        boundary[live] |= (xn == 0.0).any(axis=1)
        X[live], Q[live] = xn, qn[moved]
        live = live[np.linalg.norm(xn - x, axis=1) >= 1e-10]
    return Q, X, iterations, boundary


def _backtrack(
    a: np.ndarray, x: np.ndarray, q: np.ndarray, g: np.ndarray, etas: np.ndarray
):
    """Armijo backtrack for each row: the trial of the first step size in
    ``etas`` whose value passes q(trial) <= q - 1e-4 g^T (clipped - x),
    where clipped = max(x - eta g, 0) and trial = clipped / ||clipped||.

    The test is against the projected displacement: plain decrease stalls
    when a step length sits exactly at the zero-improvement boundary, and
    the raw gradient norm overstates what is achievable once coordinates
    are clamped at zero.  ``_ETA_CHUNK`` step sizes are scored at once for
    every row still undecided; a row where none passes keeps (x, q).
    """
    xn, qn = x.copy(), q.copy()
    rows = np.arange(q.size)
    for lo in range(0, etas.size, _ETA_CHUNK):
        xr, gr = x[rows], g[rows]
        clipped = np.maximum(
            xr[:, None, :] - etas[lo:lo + _ETA_CHUNK, None] * gr[:, None, :], 0.0
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
