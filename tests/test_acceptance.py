"""Acceptance gate: eight end-to-end criteria, each printing one pass/fail
line (visible even under capture via capsys.disabled)."""

import time

import numpy as np
import pytest

from quadsphere.certify import Status, WitnessKind, certify, verify_witness
from quadsphere.config import Config
from quadsphere.cones import is_copositive, pareto_spectrum
from quadsphere.genex import (
    make_diag_two_eig,
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from quadsphere.linalg import SymMatrix, eigen_decompose
from quadsphere.probe import falsify, minimize_orthant, _descent
from quadsphere.sphere import sample_orthant_array

from oracles import (
    GeodesicSegment,
    central_difference,
    geodesic_eval,
    grid_min_quadratic,
    intrinsic_distance,
    spherical_gradient_q,
)


def report(capsys, label: str, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


def random_sym(rng, n, scale=1.0):
    raw = scale * (2.0 * rng.random((n, n)) - 1.0)
    return SymMatrix((raw + raw.T) / 2.0)


def test_criterion_1_golden_verdicts(capsys):
    t0 = time.perf_counter()
    cfg = Config()
    ok = True

    v = certify(SymMatrix(np.diag([-1.0, 1.0, 1.0])), cfg)
    ok &= v.status is Status.CERTIFIED_QUASICONVEX

    A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
    v = certify(A, cfg)
    ok &= v.status is Status.CERTIFIED_NOT_QUASICONVEX
    w = v.witness
    ok &= w is not None and w.kind is WitnessKind.CONE_NONCONVEXITY
    if ok:
        c = float(w.data["c"])
        s = np.asarray(w.data["x"]) + np.asarray(w.data["y"])
        value = float(s @ (A.a - c * np.eye(3)) @ s)
        ok &= abs(value - np.sqrt(3.0)) <= 1e-9
        ok &= verify_witness(A, w, cfg)

    v = certify(make_householder([1.0, 1.0, 1.0]), cfg)
    ok &= v.status is Status.CERTIFIED_QUASICONVEX

    B = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
    v = certify(B, cfg)
    ok &= v.status is Status.CERTIFIED_NOT_QUASICONVEX
    ok &= v.witness is not None and v.witness.kind is WitnessKind.PAIR_VIOLATION

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(capsys, "criterion 1: golden verdicts", bool(ok), f"{elapsed:.2f}s")


def _family_draws(rng, count=100):
    """Yield (label, matrix) draws across the five constructors."""
    for i in range(count):
        n = int(rng.integers(3, 7))
        lam = float(rng.uniform(-2.0, 0.0))
        nu = lam + float(rng.uniform(1.0, 3.0))
        mid = (lam + nu) / 2.0
        mu = mid + float(rng.uniform(0.05, 0.95)) * (nu - mid)
        yield "three-eig", make_three_eigenvalue(n, lam, mu, nu)

        n = int(rng.integers(3, 7))
        lam1 = float(rng.uniform(-2.0, 0.0))
        lam2 = lam1 + float(rng.uniform(0.5, 2.0))
        bound = lam2 + (lam2 - lam1) / (n * (n - 2))
        rest = np.sort(rng.uniform(lam2, lam2 + 0.9 * (bound - lam2), size=n - 2))
        yield "positive-basis", make_positive_basis(
            n, np.concatenate([[lam1, lam2], rest])
        )

        n = int(rng.integers(2, 7))
        yield "householder", make_householder(np.abs(rng.standard_normal(n)) + 0.01)

        n = int(rng.integers(3, 7))
        lam = float(rng.uniform(-2.0, 0.0))
        yield "diag-two-eig", make_diag_two_eig(n, lam, lam + float(rng.uniform(0.5, 3.0)))

        n = int(rng.integers(2, 6))
        yield "negative-positive", make_negative_positive(n, seed=i)


def test_criterion_2_example_families(capsys):
    t0 = time.perf_counter()
    cfg = Config()
    rng = np.random.default_rng(2026)
    failures = []
    for label, A in _family_draws(rng, count=100):
        v = certify(A, cfg)
        if v.status is not Status.CERTIFIED_QUASICONVEX:
            failures.append((label, "not certified", v.status.value))
            continue
        rep = falsify(A, samples=10_000, seed=0)
        if rep.best_margin > 1e-8:
            failures.append((label, "falsified", rep.best_margin))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(
        capsys,
        "criterion 2: example families certify and survive probing",
        ok,
        f"{elapsed:.1f}s, failures={failures[:3]}",
    )


def test_criterion_3_pareto_grid_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    disagreements = 0
    for _ in range(200):
        A = random_sym(rng, 4, scale=2.0)
        S = pareto_spectrum(A)
        gmin, _ = grid_min_quadratic(A.a, steps=60)
        worst = max(worst, abs(S.min_value - gmin))
        if abs(gmin) > 1e-2:
            if is_copositive(A) != (gmin > 0.0):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-3 and disagreements == 0 and elapsed < 120.0
    report(
        capsys,
        "criterion 3: Pareto minimum matches grid brute force",
        ok,
        f"worst gap {worst:.2e}, disagreements {disagreements}, {elapsed:.1f}s",
    )


def test_criterion_4_certifier_sampler_consistency(capsys):
    t0 = time.perf_counter()
    cfg = Config()
    rng = np.random.default_rng(4)
    conflicts = []
    bad_witnesses = []
    for i in range(300):
        n = int(rng.integers(3, 6))
        A = random_sym(rng, n, scale=1.5)
        v = certify(A, cfg)
        if v.status is Status.CERTIFIED_QUASICONVEX:
            rep = falsify(A, samples=100_000, seed=1)
            if rep.best_margin > 1e-8:
                conflicts.append((i, rep.best_margin))
        elif v.status is Status.CERTIFIED_NOT_QUASICONVEX:
            if not verify_witness(A, v.witness, cfg):
                bad_witnesses.append(i)
    elapsed = time.perf_counter() - t0
    ok = not conflicts and not bad_witnesses and elapsed < 300.0
    report(
        capsys,
        "criterion 4: certifier/sampler cross-consistency",
        ok,
        f"conflicts={conflicts}, bad witnesses={bad_witnesses}, {elapsed:.0f}s",
    )


def test_criterion_5_invariance_suite(capsys):
    t0 = time.perf_counter()
    cfg = Config()
    rng = np.random.default_rng(5)
    instances = [random_sym(rng, int(rng.integers(3, 6))) for _ in range(44)]
    instances += [
        SymMatrix(np.diag([-1.0, 1.0, 1.0])),
        SymMatrix(np.diag([1.0, 2.0, 3.0])),
        make_householder([1.0, 1.0, 1.0]),
        make_three_eigenvalue(3, 0.0, 3.0, 4.0),
        make_negative_positive(4, seed=0),
        SymMatrix([[0.0, 1.0], [1.0, 0.0]]),
    ]
    mismatches = []
    for k, A in enumerate(instances):
        base = certify(A, cfg).status
        for c in (-3.0, -1.0, 0.5, 2.0):
            if certify(SymMatrix(A.a + c * np.eye(A.n)), cfg).status is not base:
                mismatches.append((k, "shift", c))
        for s in (0.1, 2.0, 10.0):
            if certify(SymMatrix(s * A.a), cfg).status is not base:
                mismatches.append((k, "scale", s))
        for _ in range(5):
            p = rng.permutation(A.n)
            if certify(SymMatrix(A.a[np.ix_(p, p)]), cfg).status is not base:
                mismatches.append((k, "perm", tuple(p)))
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    report(
        capsys,
        "criterion 5: verdict invariance (shift, scale, permutation)",
        ok,
        f"mismatches={mismatches[:3]}, {elapsed:.0f}s",
    )


def test_criterion_6_geometry_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_geo = 0.0
    worst_tan = 0.0
    worst_chain = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        if intrinsic_distance(x, y) > np.pi - 1e-6:
            continue
        g = GeodesicSegment.connect(x, y)
        worst_geo = max(
            worst_geo,
            float(np.abs(geodesic_eval(g, 0.0).coords - x).max()),
            float(np.abs(geodesic_eval(g, 1.0).coords - y).max()),
        )
        t = float(rng.uniform(0.1, 0.9))
        p = geodesic_eval(g, t)
        worst_geo = max(
            worst_geo, abs(intrinsic_distance(x, p) - t * g.length)
        )

        A = random_sym(rng, n)
        grad = spherical_gradient_q(A, p)
        worst_tan = max(worst_tan, abs(float(grad @ p.coords)))

        def f(s):
            z = geodesic_eval(g, s).coords
            return float(z @ A.a @ z)

        h = 1e-6
        vel = (
            geodesic_eval(g, t + h).coords - geodesic_eval(g, t - h).coords
        ) / (2.0 * h)
        expected = float(grad @ vel)
        observed = central_difference(f, t)
        scale = max(1.0, abs(expected))
        worst_chain = max(worst_chain, abs(observed - expected) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_geo <= 1e-8 and worst_tan <= 1e-10 and worst_chain <= 1e-5
    report(
        capsys,
        "criterion 6: geometry identities",
        ok,
        f"geodesic {worst_geo:.1e}, tangency {worst_tan:.1e}, "
        f"chain rule {worst_chain:.1e}, {elapsed:.0f}s",
    )


def test_criterion_7_local_equals_global(capsys):
    t0 = time.perf_counter()
    cfg = Config()
    goldens = [
        SymMatrix(np.diag([-1.0, 1.0, 1.0])),
        make_householder([1.0, 1.0, 1.0]),
        make_three_eigenvalue(3, 0.0, 3.0, 4.0),
        make_positive_basis(4, [0.0, 3.0, 3.0, 3.1]),
        make_diag_two_eig(4, -1.0, 1.0),
        make_negative_positive(4, seed=0),
    ]
    failures = []
    for k, A in enumerate(goldens):
        v = certify(A, cfg)
        if v.status is not Status.CERTIFIED_QUASICONVEX:
            failures.append((k, "not certified"))
            continue
        exact = minimize_orthant(A).value
        rng = np.random.default_rng(7)
        starts = sample_orthant_array(A.n, 8, rng)
        values = _descent(A.a, starts)[0]
        if max(values) - min(values) > 1e-6:
            failures.append((k, "spread", max(values) - min(values)))
        if abs(min(values) - exact) > 1e-6:
            failures.append((k, "exact mismatch", min(values) - exact))
    elapsed = time.perf_counter() - t0
    ok = not failures
    report(
        capsys,
        "criterion 7: descent minima agree with the exact minimum",
        ok,
        f"failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_8_eigen_engine(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        A = random_sym(rng, n, scale=3.0)
        E = eigen_decompose(A)
        scale = max(1.0, A.norm_fro())
        recon = (E.vectors * E.eigenvalues) @ E.vectors.T
        worst_recon = max(
            worst_recon, float(np.linalg.norm(A.a - recon)) / scale
        )
        worst_orth = max(
            worst_orth,
            float(np.linalg.norm(E.vectors.T @ E.vectors - np.eye(n))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_recon <= 1e-10 and worst_orth <= 1e-10
    report(
        capsys,
        "criterion 8: eigen engine residuals",
        ok,
        f"reconstruction {worst_recon:.1e}, orthonormality {worst_orth:.1e}, "
        f"{elapsed:.0f}s",
    )
