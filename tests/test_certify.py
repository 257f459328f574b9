import sys

import numpy as np
import pytest

from quadsphere.certify import (
    Rule,
    Status,
    Witness,
    WitnessKind,
    certify,
    pair_violation_margin,
    verify_witness,
    _diag_witness,
    _edge_witness,
)
from quadsphere.config import Config
from quadsphere.cones import pareto_spectrum
from quadsphere.genex import (
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from quadsphere.linalg import (
    SymMatrix,
    cluster_eigenvalues,
    eigen_decompose,
    is_diagonal,
)

# small sampling budget keeps the unit tests fast; the acceptance suite
# exercises the full default budget
FAST = Config(samples=5_000)


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


class TestPairViolationMargin:
    def test_no_violation_diag(self):
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        m = pair_violation_margin(A, [1, 0, 0], [0, 1, 0])
        assert m == pytest.approx(0.0, abs=1e-12)

    def test_violation_offdiag(self):
        A = sym([[0.0, 1.0], [1.0, 0.0]])
        assert pair_violation_margin(A, [1, 0], [0, 1]) == pytest.approx(1.0)

    def test_identity_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            raw = rng.standard_normal((3, 3))
            A = SymMatrix((raw + raw.T) / 2.0)
            x = np.abs(rng.standard_normal(3))
            x /= np.linalg.norm(x)
            assert pair_violation_margin(A, x, x) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_outside_orthant(self):
        A = SymMatrix(np.eye(2))
        with pytest.raises(ValueError, match="orthant"):
            pair_violation_margin(A, [-1.0, 0.0], [0.0, 1.0])

    def test_rejects_off_sphere(self):
        A = SymMatrix(np.eye(2))
        with pytest.raises(ValueError, match="sphere"):
            pair_violation_margin(A, [2.0, 0.0], [0.0, 1.0])


class TestGoldenVerdicts:
    def test_diag_two_values_simple_smallest(self):
        v = certify(SymMatrix(np.diag([-1.0, 1.0, 1.0])), FAST)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.DIAGONAL_CHARACTERIZATION

    def test_diag_three_values(self):
        v = certify(SymMatrix(np.diag([1.0, 2.0, 3.0])), FAST)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert w.data["c"] == pytest.approx(2.5)
        assert w.margin == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert verify_witness(SymMatrix(np.diag([1.0, 2.0, 3.0])), w)

    def test_householder_ones(self):
        v = certify(make_householder([1.0, 1.0, 1.0]), FAST)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.TWO_EIGENVALUE_CHARACTERIZATION

    def test_positive_offdiagonal(self):
        A = sym([[0.0, 1.0], [1.0, 0.0]])
        v = certify(A, FAST)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        w = v.witness
        assert w.kind is WitnessKind.PAIR_VIOLATION
        assert w.margin == pytest.approx(1.0)
        np.testing.assert_allclose(sorted(w.data["x"] + w.data["y"]), [1.0, 1.0])

    def test_constant_form(self):
        v = certify(SymMatrix(3.0 * np.eye(4)), FAST)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.CONSTANT_FORM
        assert v.certificate.data["eigenvalue"] == pytest.approx(3.0)

    def test_three_eigenvalue_instance(self):
        # spectrum (0, 3, 4) with eigenvectors (e1+e3)/sqrt2, e2, (e1-e3)/sqrt2
        A = make_three_eigenvalue(3, 0.0, 3.0, 4.0)
        np.testing.assert_allclose(
            A.a, [[2.0, 0.0, -2.0], [0.0, 3.0, 0.0], [-2.0, 0.0, 2.0]], atol=1e-12
        )
        v = certify(A, FAST)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        cert = v.certificate.data
        assert float(np.asarray(cert["eigenvector"]).min()) >= -1e-10
        assert cert["pareto_min"] >= -1e-9

    def test_negative_coupling_indefinite(self):
        # simple smallest eigenvalue, nonneg eigenvector (1,1)/sqrt2
        v = certify(sym([[0.0, -1.0], [-1.0, 0.0]]), FAST)
        assert v.status is Status.CERTIFIED_QUASICONVEX


class TestStructuralInvariants:
    def test_yes_has_certificate_no_has_witness(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            v = certify(A, FAST)
            if v.status is Status.CERTIFIED_QUASICONVEX:
                assert v.certificate is not None
            elif v.status is Status.CERTIFIED_NOT_QUASICONVEX:
                assert v.witness is not None
                assert verify_witness(A, v.witness, FAST)
            else:
                assert v.probe_summary is not None

    def test_rejects_1x1(self):
        with pytest.raises(ValueError):
            certify(sym([[1.0]]), FAST)

    def test_unknown_when_exact_engine_unavailable(self):
        # tolerance-band instance (a_02 = 4e-10 <= tol_margin): lambda2 sits
        # 4e-10 below max a_ii, so the diagonal bound lambda2 - max a_ii -
        # (n - 1) p = -1.2e-9 misses -tol_slack while the least Pareto value
        # (-8e-10) does not.  The enumeration certifies it at the default
        # cap; capping it leaves the edge witness, which declines (every
        # diagonal entry lies above its shifts, so no pair exists), and the
        # probe, which finds no violation
        p = 4e-10
        A = sym([[2.0, -1.0, p], [-1.0, 2.0, -1.0], [p, -1.0, 2.0]])
        lam2 = float(eigen_decompose(A).eigenvalues[1])
        assert lam2 - 2.0 - 2 * p < -1e-9
        v = certify(A, Config(samples=2_000))
        assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert -1e-9 <= v.certificate.data["pareto_min"] < -5e-10
        v = certify(A, Config(samples=2_000, max_exact_dim=2))
        assert v.status is Status.UNKNOWN
        assert v.probe_summary is not None
        assert v.probe_summary["best_margin"] <= 1e-8

    def test_band_enumeration_reads_config(self, monkeypatch):
        # the band input above at the default cap: step 5 hands its Config
        # whole to the enumeration, tol_slack included; at n = 19 the
        # enumeration limit declines it whatever max_exact_dim allows, and
        # the chain goes on
        seen = []

        def spy(A, config):
            seen.append((A.n, config))
            return pareto_spectrum(A, config)

        monkeypatch.setattr(sys.modules["quadsphere.certify"], "pareto_spectrum", spy)
        p = 4e-10
        A = sym([[2.0, -1.0, p], [-1.0, 2.0, -1.0], [p, -1.0, 2.0]])
        config = Config(samples=2_000)
        assert certify(A, config).certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert seen == [(3, config)]
        a = 2.0 * np.eye(19) - np.eye(19, k=1) - np.eye(19, k=-1)
        a[0, 2] = a[2, 0] = p
        v = certify(SymMatrix(a), Config(samples=2_000, max_exact_dim=40))
        assert v.status is not Status.CERTIFIED_QUASICONVEX
        assert seen == [(3, config)]

    def test_entrywise_rule_past_exact_cap(self):
        # lambda2 I - A = [[1, 0, 2], [0, 0, 0], [2, 0, 1]] >= 0: the diagonal
        # rule decides the copositivity step at every cap, with the same
        # certificate
        A = make_three_eigenvalue(3, 0.0, 3.0, 4.0)
        v = certify(A, Config(samples=2_000, max_exact_dim=2))
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert set(v.certificate.data) == {"eigenvector", "lambda2", "pareto_min"}
        assert v.certificate.data["lambda2"] == pytest.approx(3.0)
        assert v.certificate.data["pareto_min"] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(
            v.certificate.data["eigenvector"],
            [np.sqrt(0.5), 0.0, np.sqrt(0.5)],
            atol=1e-12,
        )
        full = certify(A, Config(samples=2_000))
        assert full.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert full.certificate.data["pareto_min"] == v.certificate.data["pareto_min"]

    def test_entrywise_rule_allows_slack(self):
        # lambda2 I - A has a diagonal entry of about -2e-10, inside
        # -tol_slack: a Yes at every cap, with pareto_min equal to the least
        # Pareto value that the enumeration computes
        A = sym([[2.0 + 4e-10, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        lam2 = float(eigen_decompose(A).eigenvalues[1])
        exact = pareto_spectrum(SymMatrix(lam2 * np.eye(3) - A.a)).min_value
        assert -1e-9 < exact < 0.0
        for cap in (16, 2):
            v = certify(A, Config(samples=2_000, max_exact_dim=cap))
            assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
            assert v.certificate.data["pareto_min"] == exact

    def test_deterministic(self):
        A = sym([[0.5, -0.2, 0.0], [-0.2, 1.0, -0.7], [0.0, -0.7, 0.3]])
        v1 = certify(A, FAST)
        v2 = certify(A, FAST)
        assert v1.status is v2.status
        if v1.witness is not None:
            assert v1.witness.margin == v2.witness.margin


def _z_step5_corpus(seed=2026):
    """Exact Z-matrices of size 2-12: negative-positive, positive-basis,
    random Z with lambda2 above and below max a_ii, integer Z with tied
    diagonals."""
    rng = np.random.default_rng(seed)
    out = [make_negative_positive(n, s) for n in range(2, 13) for s in range(3)]
    for n in range(3, 13):
        lam1 = rng.uniform(-1.0, 1.0)
        lam2 = lam1 + rng.uniform(0.5, 2.0)
        rest = np.sort(lam2 + rng.uniform(0.05, 0.9, n - 2) * (lam2 - lam1) / (n * (n - 2)))
        out.append(make_positive_basis(n, np.concatenate([[lam1, lam2], rest])))
    for m in range(60):
        n = int(rng.integers(2, 13))
        off = -rng.random((n, n)) * (rng.random((n, n)) < (1.0 if m % 2 else 0.5))
        a = np.triu(off, 1)
        a = a + a.T
        # a near-constant diagonal keeps lambda2 above max a_ii for most dense
        # draws; a Gaussian one puts it below for most
        spread = 0.05 if m % 3 else 1.0
        np.fill_diagonal(a, spread * rng.standard_normal(n))
        out.append(SymMatrix(a))
    for m in range(60):
        n = int(rng.integers(2, 13))
        off = -rng.integers(0, 3, (n, n)).astype(float)
        a = np.triu(off, 1)
        a = a + a.T
        np.fill_diagonal(a, rng.integers(0, 2, n).astype(float))
        out.append(SymMatrix(a))
    return out


def _band_corpus(seed=2027):
    """Z-matrices up to tol_margin, of size 3-9, with off-diagonal entries
    in (0, tol_margin]: complete multipartite matrices (lambda2 = max a_ii
    exactly) whose zero blocks are filled, and negative-positive matrices
    with some entries replaced."""
    rng = np.random.default_rng(seed)
    out = []
    for m in range(60):
        n = int(rng.integers(3, 10))
        eps = float(rng.choice([1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 1e-8]))
        parts = rng.integers(0, int(rng.integers(2, 5)), n)
        a = np.where(parts[:, None] == parts[None, :], eps, -1.0)
        np.fill_diagonal(a, rng.uniform(-1.0, 1.0))
        out.append(SymMatrix(a))
    for m in range(30):
        n = int(rng.integers(3, 10))
        a = make_negative_positive(n, m).a.copy()
        i, j = rng.choice(n, 2, replace=False)
        a[i, j] = a[j, i] = float(rng.choice([1e-11, 1e-10, 1e-9, 1e-8]))
        out.append(SymMatrix(a))
    return out


def _step5_inputs(corpus):
    """(A, lambda2, certify verdict) for the inputs that reach step 5; a
    small sampling budget, which only the steps after 5 use."""
    config = Config(samples=200)
    for A in corpus:
        E = eigen_decompose(A)
        clusters = cluster_eigenvalues(E)
        two = len(clusters) == 2 and clusters[0][1] == 1
        if len(clusters) == 1 or is_diagonal(A) or two:
            continue
        yield A, float(E.eigenvalues[1]), certify(A, config)


class TestStep5Oracle:
    """The diagonal rule of step 5 against the support enumeration."""

    def test_exact_z_matches_enumeration(self):
        yes = declined = 0
        for A, lam2, v in _step5_inputs(_z_step5_corpus()):
            assert float((A.a - np.diag(np.diag(A.a))).max()) <= 0.0
            exact = pareto_spectrum(SymMatrix(lam2 * np.eye(A.n) - A.a)).min_value
            rule = v.certificate.rule if v.certificate else None
            if exact >= -FAST.tol_slack:
                yes += 1
                assert rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == exact
            else:
                declined += 1
                assert rule is None
        assert yes > 30 and declined > 30

    def test_band_bound_is_sound(self):
        by_bound = by_enumeration = 0
        for A, lam2, v in _step5_inputs(_band_corpus()):
            off = A.a - np.diag(np.diag(A.a))
            p = float(off.max())
            assert 0.0 < p <= FAST.tol_margin
            bound = lam2 - float(np.diag(A.a).max()) - (A.n - 1) * p
            exact = pareto_spectrum(SymMatrix(lam2 * np.eye(A.n) - A.a)).min_value
            if bound >= -FAST.tol_slack:
                by_bound += 1
                assert exact >= -FAST.tol_slack
                assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == bound
            elif exact >= -FAST.tol_slack:
                # the enumeration keeps every Yes the bound is too loose for
                by_enumeration += 1
                assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == exact
            else:
                assert v.status is not Status.CERTIFIED_QUASICONVEX
        assert by_bound > 20 and by_enumeration > 0


class TestEdgeWitness:
    def test_declines_when_lambda2_reaches_max_diagonal(self):
        rng = np.random.default_rng(3)
        mats = [
            make_negative_positive(6, 0),
            make_positive_basis(4, [-1.0, 1.0, 1.05, 1.1]),
            make_householder([1.0, 2.0, 1.0]),
            SymMatrix(np.diag([-1.0, 1.0, 1.0])),
            sym([[1.0, -3.0, -3.0], [-3.0, 1.0, -3.0], [-3.0, -3.0, 1.0]]),
        ]
        for _ in range(200):
            n = int(rng.integers(3, 7))
            off = -rng.random((n, n))
            a = np.triu(off, 1)
            a = a + a.T
            np.fill_diagonal(a, rng.standard_normal(n))
            mats.append(SymMatrix(a))
        declined = 0
        for A in mats:
            E = eigen_decompose(A)
            if E.eigenvalues[1] >= A.a.diagonal().max():
                assert _edge_witness(A, E, FAST) is None
                declined += 1
        assert declined >= 8

    def test_diagonal_case(self):
        # for a diagonal matrix the edge points are those of
        # step 3's diagonal witness: e_i + t e_k below and above c
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        w = _edge_witness(A, eigen_decompose(A), FAST)
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert w.data["vertex"] == 2
        assert 2.0 < w.data["c"] < 3.0
        assert verify_witness(A, w, FAST)
        for p in (w.data["x"], w.data["y"]):
            assert np.linalg.norm(p) == pytest.approx(1.0)
            assert p[2] > 0.0

    def test_refutes_open_z_matrix(self):
        # weakly coupled spread diagonal: steps 1-6 decide nothing, and the
        # sampling falsifier used to be the only No path
        A = sym([
            [-1.0, -0.05, -0.02, -0.04],
            [-0.05, -0.3, -0.03, -0.01],
            [-0.02, -0.03, 0.4, -0.06],
            [-0.04, -0.01, -0.06, 1.0],
        ])
        v = certify(A, FAST)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.probe_summary is None
        assert v.witness.kind is WitnessKind.CONE_NONCONVEXITY
        assert v.witness.data["vertex"] == 3
        assert verify_witness(A, v.witness, FAST)

    def test_known_gap_never_yes(self):
        # lambda2 = 0.715 < max a_ii = 1, tied three ways, so only one index
        # lies below any shift and the edge witness has no pair to build
        A = sym([[1, -2, -1, -2], [-2, 1, 0, -2], [-1, 0, 1, -2], [-2, -2, -2, -2]])
        assert _edge_witness(A, eigen_decompose(A), FAST) is None
        v = certify(A, FAST)
        assert v.status is not Status.CERTIFIED_QUASICONVEX
        if v.status is Status.CERTIFIED_NOT_QUASICONVEX:
            assert verify_witness(A, v.witness, FAST)


def diag_witness(d):
    """The witness certify returns for diag(d): step 3's diagonal witness."""
    return certify(SymMatrix(np.diag(d))).witness


class TestConstructDiagWitness:
    def test_three_distinct(self):
        w = diag_witness([1.0, 2.0, 3.0])
        assert w.data["c"] == pytest.approx(2.5)
        np.testing.assert_allclose(w.data["x"], [1.0, 0.0, np.sqrt(3.0)], atol=1e-12)
        np.testing.assert_allclose(w.data["y"], [0.0, 1.0, 1.0], atol=1e-12)
        assert w.margin == pytest.approx(np.sqrt(3.0))
        assert verify_witness(SymMatrix(np.diag([1.0, 2.0, 3.0])), w)

    def test_repeated_smallest(self):
        w = diag_witness([-1.0, -1.0, 1.0])
        assert w.data["c"] == pytest.approx(0.0)
        np.testing.assert_allclose(w.data["x"], [1.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(w.data["y"], [0.0, 1.0, 1.0], atol=1e-12)
        assert w.margin == pytest.approx(2.0)
        assert verify_witness(SymMatrix(np.diag([-1.0, -1.0, 1.0])), w)

    def test_repeated_smallest_shifted(self):
        w = diag_witness([1.0, 1.0, 2.0])
        assert w.data["c"] == pytest.approx(1.5)
        assert verify_witness(SymMatrix(np.diag([1.0, 1.0, 2.0])), w)

    def test_unordered_input(self):
        w = diag_witness([3.0, 1.0, 2.0])
        assert verify_witness(SymMatrix(np.diag([3.0, 1.0, 2.0])), w)

    def test_rejects_quasiconvex_diag(self):
        # a repeated largest value over a simple smallest one, or a single
        # value, leaves no witness to build: Yes
        for d in ([-1.0, 1.0, 1.0], [2.0, 2.0, 2.0]):
            v = certify(SymMatrix(np.diag(d)))
            assert v.status is Status.CERTIFIED_QUASICONVEX
            assert v.witness is None

    def test_random_nonquasiconvex_diagonals(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = np.sort(rng.choice([-2.0, -1.0, 0.5, 1.0, 3.0], size=4))
            if len(np.unique(d)) >= 3 or (len(np.unique(d)) == 2 and d[0] == d[1]):
                w = diag_witness(d)
                assert verify_witness(SymMatrix(np.diag(d)), w)


class TestConstructThreevecWitness:
    # the diagonal obstruction over three orthonormal nonnegative vectors,
    # the form step 6 uses on nonnegative eigenvectors
    TOL = 1e-8

    def test_canonical_distinct(self):
        w = _diag_witness(np.array([1.0, 2.0, 3.0]), np.eye(3), self.TOL)
        assert verify_witness(SymMatrix(np.diag([1.0, 2.0, 3.0])), w)
        assert w.margin == pytest.approx(np.sqrt(3.0))

    def test_repeated_smallest(self):
        w = _diag_witness(np.array([0.0, 0.0, 2.0]), np.eye(3), self.TOL)
        assert w.data["c"] == pytest.approx(1.0)
        np.testing.assert_allclose(w.data["x"], [1.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(w.data["y"], [0.0, 1.0, 1.0], atol=1e-12)
        assert w.margin == pytest.approx(2.0)
        assert verify_witness(SymMatrix(np.diag([0.0, 0.0, 2.0])), w)

    def test_degenerate_top_pair_fails_verification(self):
        # repeated largest pair over a simple smallest value: no witness is
        # built, and the zero-margin pair on the top eigenspace does not verify
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        assert _diag_witness(np.diag(A.a), np.eye(3), self.TOL) is None
        e = np.eye(3)
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={"c": 1.0, "x": e[1], "y": e[2]},
            margin=0.0,
        )
        assert not verify_witness(A, w)

    def test_rejects_equal_eigenvalues(self):
        assert _diag_witness(np.array([1.0, 1.0, 1.0]), np.eye(3), self.TOL) is None
        assert certify(SymMatrix(np.eye(3))).witness is None


class TestNonnegativeEigenbasisWitness:
    def test_permuted_three_block_z_matrix(self):
        # each irreducible Z-block gives one nonnegative (Perron) eigenvector;
        # q_A is diagonal in that basis, so step 6 is the diagonal witness
        # v_i + t_i v_k, v_j + t_j v_k over the block Perron vectors
        blocks = [
            np.array([[0.0, -0.5, -0.2], [-0.5, 0.3, -0.4], [-0.2, -0.4, 0.1]]),
            np.array([[2.0, -0.3], [-0.3, 2.5]]),
            np.array([[5.0, -0.6, 0.0], [-0.6, 5.2, -0.1], [0.0, -0.1, 4.9]]),
        ]
        n = sum(b.shape[0] for b in blocks)
        a = np.zeros((n, n))
        perron = []
        start = 0
        for b in blocks:
            m = b.shape[0]
            a[start:start + m, start:start + m] = b
            w, v = np.linalg.eigh(b)
            u = np.zeros(n)
            u[start:start + m] = np.abs(v[:, 0])
            perron.append((float(w[0]), u))
            start += m
        p = np.random.default_rng(4).permutation(n)
        A = SymMatrix(a[np.ix_(p, p)])
        (li, vi), (lj, vj), (lk, vk) = [(l, u[p]) for l, u in perron]
        assert li < lj < lk

        v = certify(A, FAST)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.probe_summary is None
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert "vertex" not in w.data  # not the edge witness of step 7
        c = w.data["c"]
        assert lj < c < lk
        ti = np.sqrt((c - li) / (lk - c))
        tj = np.sqrt((c - lj) / (lk - c))
        np.testing.assert_allclose(w.data["x"], vi + ti * vk, atol=1e-10)
        np.testing.assert_allclose(w.data["y"], vj + tj * vk, atol=1e-10)
        assert w.margin == pytest.approx(2.0 * np.sqrt((c - li) * (c - lj)))
        assert verify_witness(A, w, FAST)


class TestVerifyWitness:
    def test_rejects_fabricated_pair(self):
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        w = Witness(
            kind=WitnessKind.PAIR_VIOLATION,
            data={"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0])},
            margin=5.0,
        )
        assert not verify_witness(A, w)

    def test_rejects_negative_cone_points(self):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={"c": 2.5, "x": np.array([-1.0, 0.0, 1.0]), "y": np.array([0.0, 1.0, 1.0])},
            margin=1.0,
        )
        assert not verify_witness(A, w)

    def test_rejects_points_outside_sublevel_cone(self):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={"c": 0.5, "x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0])},
            margin=1.0,
        )
        assert not verify_witness(A, w)

    @pytest.mark.parametrize(
        "kind, data",
        [
            (WitnessKind.CONE_NONCONVEXITY, {}),
            (WitnessKind.CONE_NONCONVEXITY, {"c": "abc"}),
            (WitnessKind.CONE_NONCONVEXITY, {"c": None}),
            (WitnessKind.PAIR_VIOLATION, {"y": np.array([0.0, 1.0, 0.0])}),
        ],
    )
    def test_rejects_malformed_data(self, kind, data):
        # a caller's witness with a missing or non-numeric field is not a
        # refutation; it must not raise either
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        if data:
            data = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]), **data}
        assert not verify_witness(A, Witness(kind=kind, data=data, margin=1.0))

    @pytest.mark.parametrize("field", ["x", "y"])
    def test_rejects_wrong_length_cone_points(self, field):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        w = diag_witness([1.0, 2.0, 3.0])
        data = dict(w.data)
        data[field] = np.append(data[field], 1.0)
        bad = Witness(kind=w.kind, data=data, margin=w.margin)
        assert verify_witness(A, w)
        assert not verify_witness(A, bad)
        data[field] = data[field][:2]
        assert not verify_witness(A, Witness(kind=w.kind, data=data, margin=w.margin))


class TestInvariances:
    @staticmethod
    def _instances():
        rng = np.random.default_rng(99)
        out = []
        for _ in range(12):
            raw = 2.0 * rng.random((3, 3)) - 1.0
            out.append(SymMatrix((raw + raw.T) / 2.0))
        out.append(SymMatrix(np.diag([-1.0, 1.0, 1.0])))
        out.append(SymMatrix(np.diag([1.0, 2.0, 3.0])))
        out.append(make_householder([1.0, 2.0, 1.0]))
        return out

    def test_shift_invariance(self):
        for A in self._instances():
            base = certify(A, FAST).status
            for c in (-1.0, 2.0):
                shifted = SymMatrix(A.a + c * np.eye(A.n))
                assert certify(shifted, FAST).status is base

    def test_scale_invariance(self):
        for A in self._instances():
            base = certify(A, FAST).status
            for s in (0.1, 10.0):
                assert certify(SymMatrix(s * A.a), FAST).status is base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for A in self._instances():
            base = certify(A, FAST).status
            p = rng.permutation(A.n)
            B = SymMatrix(A.a[np.ix_(p, p)])
            assert certify(B, FAST).status is base
