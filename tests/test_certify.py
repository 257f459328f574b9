import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from quadsphere.certify import (
    _CLUSTER_RTOL,
    Rule,
    Status,
    Verdict,
    Witness,
    WitnessKind,
    certify,
    pair_violation_margin,
    verify_witness,
    _STEPS,
    _State,
    _cap,
    _diag_witness,
    _eigenbasis,
)
from quadsphere.config import DEFAULT, Config
from quadsphere.cones import pareto_spectrum
from quadsphere.edge import _EDGE_STEPS, _best_pair, cap_pairs
from quadsphere.genex import (
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from quadsphere.linalg import SymMatrix, centred, cluster_eigenvalues, eigen_decompose

from oracles import reference_best_pair, reference_diag_witness, reference_diagonal_route
from test_cli import _PATHS
from test_metamorphic import assert_unknowns_at_threshold, corpus as metamorphic_corpus
from test_zmatrix_corpus import census, corpus as zmatrix_corpus, tied

CFG = Config()


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
        v = certify(SymMatrix(np.diag([-1.0, 1.0, 1.0])), CFG)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.DIAGONAL_CHARACTERIZATION

    def test_diag_three_values(self):
        v = certify(SymMatrix(np.diag([1.0, 2.0, 3.0])), CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert w.data["c"] == pytest.approx(2.5)
        assert w.margin == pytest.approx(np.sqrt(3.0), abs=1e-9)
        assert verify_witness(SymMatrix(np.diag([1.0, 2.0, 3.0])), w)

    def test_householder_ones(self):
        v = certify(make_householder([1.0, 1.0, 1.0]), CFG)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.TWO_EIGENVALUE_CHARACTERIZATION

    def test_positive_offdiagonal(self):
        A = sym([[0.0, 1.0], [1.0, 0.0]])
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        w = v.witness
        assert w.kind is WitnessKind.PAIR_VIOLATION
        assert w.margin == pytest.approx(1.0)
        np.testing.assert_allclose(sorted(w.data["x"] + w.data["y"]), [1.0, 1.0])

    def test_constant_form(self):
        v = certify(SymMatrix(3.0 * np.eye(4)), CFG)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.CONSTANT_FORM
        assert v.certificate.data["eigenvalue"] == pytest.approx(3.0)

    def test_three_eigenvalue_instance(self):
        # spectrum (0, 3, 4) with eigenvectors (e1+e3)/sqrt2, e2, (e1-e3)/sqrt2
        A = make_three_eigenvalue(3, 0.0, 3.0, 4.0)
        np.testing.assert_allclose(
            A.a, [[2.0, 0.0, -2.0], [0.0, 3.0, 0.0], [-2.0, 0.0, 2.0]], atol=1e-12
        )
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_QUASICONVEX
        assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        cert = v.certificate.data
        assert float(np.asarray(cert["eigenvector"]).min()) >= -1e-10
        assert cert["pareto_min"] >= -1e-9

    def test_far_shifted_diagonal(self):
        # q_{A + cI} = q_A + c: diag(1, 2, 3) stays refuted by the diagonal
        # witness, with c in the shifted matrix's units
        A = SymMatrix(1e8 * np.eye(3) + np.diag([1.0, 2.0, 3.0]))
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.kind is WitnessKind.CONE_NONCONVEXITY
        assert v.witness.data["c"] == pytest.approx(1e8 + 2.5, abs=1e-6)
        assert verify_witness(A, v.witness)

    def test_far_shifted_positive_entry(self):
        # step 1 runs before the eigenvalue clusters: the pair (e_1, e_2) has
        # margin 0.5 whatever the shift
        a = 1e8 * np.eye(3)
        a[0, 1] = a[1, 0] = 0.5
        A = SymMatrix(a)
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.kind is WitnessKind.PAIR_VIOLATION
        assert v.witness.data["entry"] == (0, 1)
        assert v.witness.margin == 0.5
        assert verify_witness(A, v.witness)

    def test_negative_coupling_indefinite(self):
        # simple smallest eigenvalue, nonneg eigenvector (1,1)/sqrt2
        v = certify(sym([[0.0, -1.0], [-1.0, 0.0]]), CFG)
        assert v.status is Status.CERTIFIED_QUASICONVEX


class TestStructuralInvariants:
    def test_yes_has_certificate_no_has_witness(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            v = certify(A, CFG)
            if v.status is Status.CERTIFIED_QUASICONVEX:
                assert v.certificate is not None
            elif v.status is Status.CERTIFIED_NOT_QUASICONVEX:
                assert v.witness is not None
                assert verify_witness(A, v.witness, CFG)
            else:
                assert v.certificate is None and v.witness is None

    def test_rejects_1x1(self):
        with pytest.raises(ValueError):
            certify(sym([[1.0]]), CFG)

    def test_unknown_when_exact_engine_unavailable(self):
        # tolerance-band instance (a_02 = 8e-10 <= tol_margin sigma, with
        # sigma = ||A - 2I||_F = 2): lambda2 sits 8e-10 below max a_ii, so
        # the diagonal bound lambda2 - max a_ii - (n - 1) p = -2.4e-9 misses
        # -tol_slack sigma = -2e-9 while the least Pareto value (-1.6e-9)
        # does not.  The enumeration certifies it at the default cap;
        # capping it leaves the cap witness, whose best pair's margin (about
        # 8e-10) lies below tol_margin sigma = 2e-8, and certify says Unknown
        # at once, with neither certificate nor witness
        p = 8e-10
        A = sym([[2.0, -1.0, p], [-1.0, 2.0, -1.0], [p, -1.0, 2.0]])
        lam2 = float(eigen_decompose(A).eigenvalues[1])
        assert lam2 - 2.0 - 2 * p < -2e-9
        v = certify(A, Config())
        assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert -2e-9 <= v.certificate.data["pareto_min"] < -1e-9
        v = certify(A, Config(max_exact_dim=2))
        assert v.status is Status.UNKNOWN
        assert v.certificate is None and v.witness is None
        _, B, _ = centred(A)
        lam2 = float(eigen_decompose(B).eigenvalues[1])
        assert 0.0 < max(pair[-1] for pair in cap_pairs(B.a, lam2)) <= 1e-8

    def test_band_enumeration_reads_config(self, monkeypatch):
        # the band input above under a Config other than DEFAULT (a lower
        # cap, still above n = 3): step 5 hands the caller's Config whole to
        # the enumeration, tol_slack included; at n = 19 the enumeration
        # limit declines it whatever max_exact_dim allows, and the chain
        # goes on
        seen = []

        def spy(A, config):
            seen.append((A.n, config))
            return pareto_spectrum(A, config)

        monkeypatch.setattr(sys.modules["quadsphere.certify"], "pareto_spectrum", spy)
        p = 8e-10
        A = sym([[2.0, -1.0, p], [-1.0, 2.0, -1.0], [p, -1.0, 2.0]])
        config = Config(max_exact_dim=15)
        assert config != DEFAULT
        assert certify(A, config).certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert seen == [(3, config)] and seen[0][1] is config
        a = 2.0 * np.eye(19) - np.eye(19, k=1) - np.eye(19, k=-1)
        a[0, 2] = a[2, 0] = p
        v = certify(SymMatrix(a), Config(max_exact_dim=40))
        assert v.status is not Status.CERTIFIED_QUASICONVEX
        assert seen == [(3, config)]

    def test_entrywise_rule_past_exact_cap(self):
        # lambda2 I - A = [[1, 0, 2], [0, 0, 0], [2, 0, 1]] >= 0: the diagonal
        # rule decides the copositivity step at every cap, with the same
        # certificate
        A = make_three_eigenvalue(3, 0.0, 3.0, 4.0)
        v = certify(A, Config(max_exact_dim=2))
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
        full = certify(A, Config())
        assert full.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
        assert full.certificate.data["pareto_min"] == v.certificate.data["pareto_min"]

    def test_entrywise_rule_allows_slack(self):
        # lambda2 I - A has a diagonal entry of about -2e-10, inside
        # -tol_slack sigma: a Yes at every cap, with pareto_min equal to the
        # least Pareto value that the enumeration computes on B = A - tau I,
        # the matrix certify decides
        A = sym([[2.0 + 4e-10, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        _, B, _ = centred(A)
        lam2 = float(eigen_decompose(B).eigenvalues[1])
        exact = pareto_spectrum(SymMatrix(lam2 * np.eye(3) - B.a)).min_value
        assert -1e-9 < exact < 0.0
        for cap in (16, 2):
            v = certify(A, Config(max_exact_dim=cap))
            assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
            assert v.certificate.data["pareto_min"] == exact

    def test_deterministic(self):
        A = sym([[0.5, -0.2, 0.0], [-0.2, 1.0, -0.7], [0.0, -0.7, 0.3]])
        v1 = certify(A, CFG)
        v2 = certify(A, CFG)
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
    """(B, lambda2 of B, sigma, certify verdict) for the inputs that pass
    step 1 and reach step 5, with B = A - tau I as certify decides it, under
    the default Config."""
    config = Config()
    for A in corpus:
        _, B, sigma = centred(A)
        if float((A.a - np.diag(np.diag(A.a))).max()) > config.tol_margin * sigma:
            continue  # step 1's pair
        E = eigen_decompose(B)
        clusters = cluster_eigenvalues(E.eigenvalues, 1e-8 * sigma)
        two = len(clusters) == 2 and clusters[0][1] == 1
        diagonal = not np.any(A.a - np.diag(np.diag(A.a)))
        if len(clusters) == 1 or diagonal or two:
            continue
        yield B, float(E.eigenvalues[1]), sigma, certify(A, config)


class TestStep5Oracle:
    """The diagonal rule of step 5 against the support enumeration."""

    def test_exact_z_matches_enumeration(self):
        yes = declined = 0
        for B, lam2, sigma, v in _step5_inputs(_z_step5_corpus()):
            assert float((B.a - np.diag(np.diag(B.a))).max()) <= 0.0
            exact = pareto_spectrum(SymMatrix(lam2 * np.eye(B.n) - B.a)).min_value
            rule = v.certificate.rule if v.certificate else None
            if exact >= -CFG.tol_slack * sigma:
                yes += 1
                assert rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == exact
            else:
                declined += 1
                assert rule is None
        assert yes > 30 and declined > 30

    def test_band_bound_is_sound(self):
        by_bound = by_enumeration = 0
        for B, lam2, sigma, v in _step5_inputs(_band_corpus()):
            off = B.a - np.diag(np.diag(B.a))
            p = float(off.max())
            assert 0.0 < p <= CFG.tol_margin * sigma
            floor = -CFG.tol_slack * sigma
            bound = lam2 - float(np.diag(B.a).max()) - (B.n - 1) * p
            shifted = SymMatrix((lam2 * np.eye(B.n) - B.a) / sigma)
            exact = sigma * pareto_spectrum(shifted).min_value
            if bound >= floor:
                by_bound += 1
                assert exact >= floor
                assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == bound
            elif exact >= floor:
                # the enumeration keeps every Yes the bound is too loose for
                by_enumeration += 1
                assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
                assert v.certificate.data["pareto_min"] == exact
            else:
                assert v.status is not Status.CERTIFIED_QUASICONVEX
        assert by_bound > 20 and by_enumeration > 0

    def test_band_unknowns_sit_at_the_threshold(self):
        verdicts = [(A, certify(A, CFG)) for A in _band_corpus()]
        assert assert_unknowns_at_threshold(verdicts) > 5

    def test_repeated_lambda1_gets_no_yes(self):
        # a permuted kron(I_r, Z): an exact Z-matrix whose r components share
        # lambda1, which the split lemma refutes; a loose tol_slack must not
        # let step 5 answer Yes for it
        rng = np.random.default_rng(77)
        loose = Config(tol_slack=1.0)
        for r, m in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 4)):
            z = np.triu(-rng.uniform(0.1, 1.0, (m, m)), 1)
            z = z + z.T
            np.fill_diagonal(z, rng.standard_normal(m))
            p = rng.permutation(r * m)
            A = SymMatrix(np.kron(np.eye(r), z)[np.ix_(p, p)])
            for config in (CFG, loose):
                v = certify(A, config)
                assert v.status is Status.CERTIFIED_NOT_QUASICONVEX, (r, m, config)
                assert verify_witness(A, v.witness)


class TestStepChain:
    """certify runs the steps of _STEPS in tuple order on one _State and
    stops at the first that decides; step 1 runs before the spectrum is
    built, and an input decided by steps 1-3 never builds the eigenbasis
    (E, fits, step 4's values and basis) that steps 4-6 read."""

    # test_cli._PATHS, one document per outcome -> the step that decides it
    DECIDED_BY = {
        "PairViolation": 1,
        "ConstantForm": 2,
        "DiagonalCharacterization": 3,
        "TwoEigenvalueCharacterization": 3,
        "ConeNonconvexity": 4,
        "CopositiveSufficiency": 5,
        "ConeNonconvexity vertex": 6,
        "Unknown": None,
    }

    @staticmethod
    def outcome(v):
        if v.certificate is not None:
            return v.certificate.rule.value
        if v.witness is not None:
            return v.witness.kind.value + (" vertex" if "vertex" in v.witness.data else "")
        return v.status.value

    def test_runs_in_order_and_stops_at_the_deciding_step(self, monkeypatch):
        ran = []

        def recorder(number, step):
            def recorded(state):
                ran.append((number, state, set(vars(state))))
                return step(state)
            return recorded

        steps = tuple(recorder(k, step) for k, step in enumerate(_STEPS, 1))
        monkeypatch.setattr(sys.modules["quadsphere.certify"], "_STEPS", steps)
        assert self.DECIDED_BY.keys() == _PATHS.keys()
        for outcome, decider in self.DECIDED_BY.items():
            ran.clear()
            v = certify(SymMatrix(_PATHS[outcome]), CFG)
            assert self.outcome(v) == outcome
            assert [k for k, _, _ in ran] == list(range(1, (decider or 6) + 1)), outcome
            state = ran[0][1]
            assert all(s is state for _, s, _ in ran)
            assert "clusters" not in ran[0][2]  # step 1 runs before any eigh
            built = set(vars(state))
            staged = {"E", "fits", "values", "basis"}
            if decider is not None and decider <= 3:
                assert not staged & built, outcome
            else:
                assert staged <= built and not staged & ran[3][2], outcome


def cap(A, config=CFG):
    """certify step 6 on A alone: the cap witness that verifies, or None."""
    verdict = _cap(_State(A, config))
    return None if verdict is None else verdict.witness


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
            _, B, _ = centred(A)
            lam2 = float(eigen_decompose(B).eigenvalues[1])
            if lam2 >= B.a.diagonal().max():
                assert list(cap_pairs(B.a, lam2)) == []
                assert cap(A) is None
                declined += 1
        assert declined >= 8

    def test_diagonal_case(self):
        # for a diagonal matrix the points e_k + t e_i are those of step 4's
        # diagonal witness: e_i + t e_k below and above c
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        w = cap(A)
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert w.data["vertex"] == 2
        assert 2.0 < w.data["c"] < 3.0
        assert verify_witness(A, w, CFG)
        for p in (w.data["x"], w.data["y"]):
            assert np.linalg.norm(p) == pytest.approx(1.0)
            assert p[2] > 0.0

    def test_refutes_open_z_matrix(self):
        # weakly coupled spread diagonal: steps 1-5 decide nothing, and the
        # sampling falsifier used to be the only No path
        A = sym([
            [-1.0, -0.05, -0.02, -0.04],
            [-0.05, -0.3, -0.03, -0.01],
            [-0.02, -0.03, 0.4, -0.06],
            [-0.04, -0.01, -0.06, 1.0],
        ])
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.kind is WitnessKind.CONE_NONCONVEXITY
        assert v.witness.data["vertex"] == 3
        assert verify_witness(A, v.witness, CFG)

    def test_known_gap_never_yes(self):
        # lambda2 = 0.715 < max a_ii = 1, tied three ways, so only one index
        # lies below any shift and no pair of edge points e_i + t e_k exists;
        # the cap points e_k + t (|w| +- s w) refute it, by a margin of
        # about 4.5e-4
        A = sym([[1, -2, -1, -2], [-2, 1, 0, -2], [-1, 0, 1, -2], [-2, -2, -2, -2]])
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.data["vertex"] in (0, 1, 2)
        assert 0.7 < v.witness.data["c"] < 1.0
        assert v.witness.margin > 1e-4
        assert verify_witness(A, v.witness, CFG)

    def test_split_input(self):
        # a reducible Z-matrix with lambda2 = 0 < max a_ii: the split lemma's
        # pair, x = e_k + t u with u on the other component and an edge
        # point y = e_i + s e_k of a neighbour i of k, leaves the cone by
        # 2 sqrt(b_ik^2 - b_ii b_kk) at the chosen shift
        A = sym([[-1, -1, 0, 0], [-1, -1, 0, 0], [0, 0, -1, -2], [0, 0, -2, -1]])
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.margin > 0.3
        assert verify_witness(A, v.witness, CFG)


def witness_bytes(w):
    """The fields of a step-6 witness, as bytes, for byte-for-byte equality."""
    if w is None:
        return None
    data = w.data
    return (w.kind, np.float64(data["c"]).tobytes(), data["vertex"],
            data["x"].tobytes(), data["y"].tobytes(), np.float64(w.margin).tobytes())


def spread_z(rng, n):
    """A weakly coupled Z-matrix whose diagonal spreads over [-1, 1]."""
    off = -rng.uniform(0.01, 0.1, (n, n))
    a = (off + off.T) / 2.0
    np.fill_diagonal(a, rng.permutation(np.linspace(-1.0, 1.0, n)) + rng.uniform(-0.1, 0.1, n))
    return a


class TestEdgeWitnessBytes:
    """On the corpora that the edge scan of step 6 refuted before the cap
    witness replaced it: every input with lambda2 < max a_ii still ends in
    a verified No, and a step-6 No is, byte for byte, the first pair of
    edge.cap_pairs that verifies."""

    @staticmethod
    def compare(mats):
        """certify on each A and on its centred B; returns the number of
        step-6 Nos."""
        witnesses = 0
        for A in mats:
            for M in (A, SymMatrix(centred(A)[1].a)):
                tau, B, sigma = centred(M)
                lam2 = float(eigen_decompose(B).eigenvalues[1])
                v = certify(M, CFG)
                if lam2 < float(B.a.diagonal().max()) - 1e-9 * sigma:
                    assert v.status is Status.CERTIFIED_NOT_QUASICONVEX, M
                if v.witness is None or "vertex" not in v.witness.data:
                    continue
                for c, k, x, y, margin in cap_pairs(B.a, lam2):
                    data = {"c": c + tau, "x": x, "y": y, "vertex": k}
                    first = Witness(WitnessKind.CONE_NONCONVEXITY, data, margin)
                    if verify_witness(M, first, CFG):
                        break
                assert witness_bytes(v.witness) == witness_bytes(first), M
                witnesses += 1
        return witnesses

    def test_zmatrix_corpus(self):
        assert self.compare(zmatrix_corpus()) > 600

    def test_integer_ties(self):
        # entries in {0, -1, -2} off the diagonal and {-2, ..., 2} on it:
        # tied diagonal maxima, tied t and tied scores
        rng = np.random.default_rng(41)
        mats = []
        for _ in range(400):
            n = int(rng.integers(3, 6))
            a = np.triu(-rng.integers(0, 3, (n, n)).astype(float), 1)
            a = a + a.T
            np.fill_diagonal(a, rng.integers(-2, 3, n))
            mats.append(SymMatrix(a))
        assert self.compare(mats) > 200

    def test_band_inputs(self):
        # one entry in (0, tol_margin sigma]: a Z-matrix only up to the band
        rng = np.random.default_rng(42)
        mats = []
        for n in [3, 4, 5, 6] * 20 + [20, 32, 48, 64] * 2:
            a = spread_z(rng, n)
            i, j = rng.choice(n, 2, replace=False)
            a[i, j] = a[j, i] = 0.0
            sigma = centred(SymMatrix(a))[2]
            a[i, j] = a[j, i] = rng.uniform(0.1, 1.0) * CFG.tol_margin * sigma
            mats.append(SymMatrix(a))
        assert self.compare(mats) > 100

    def test_diagonal_matrices(self):
        # step 4 decides these; step 6 alone refutes every one with
        # lambda2 < max a_ii at the vertex of its first largest entry
        rng = np.random.default_rng(43)
        mats = [SymMatrix(np.diag(rng.standard_normal(int(n)))) for n in rng.integers(3, 9, 60)]
        mats += [SymMatrix(np.diag(rng.integers(-2, 3, int(n)).astype(float)))
                 for n in rng.integers(3, 9, 60)]
        mats += [SymMatrix(np.diag(rng.standard_normal(n))) for n in (20, 40)]
        refuted = 0
        for A in mats:
            d = A.a.diagonal()
            if np.sort(d)[1] < d.max():
                w = cap(A)
                assert w.data["vertex"] == int(d.argmax())
                assert verify_witness(A, w, CFG)
                refuted += 1
        assert refuted > 100

    def test_pruned_path(self):
        # spread-diagonal Z-matrices at n 20-64, which the edge scan pruned
        # by its row bound, and dense non-Z input, as a direct call may pass
        rng = np.random.default_rng(44)
        mats = [SymMatrix(spread_z(rng, n)) for n in (20, 24, 32, 40, 48, 64)]
        assert self.compare(mats) == 12
        for n in (20, 28):
            raw = rng.standard_normal((n, n))
            A = SymMatrix((raw + raw.T) / 2.0)
            w = cap(A)
            assert w is None or verify_witness(A, w, CFG)

    @pytest.mark.parametrize("roll", [1, 3, None])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_tie_goes_to_the_first_vertex(self, roll, reverse):
        # A = [[M, N], [N, M]] is unchanged by swapping the halves, so its
        # largest diagonal entry is tied, bit for bit, at two vertices; the
        # stable descending order tries the one of lower index first.  The
        # indices are reversed and rolled, which moves the tied pair
        rng = np.random.default_rng(45)
        m = spread_z(rng, 12)
        off = -rng.uniform(0.0, 0.02, (12, 12))
        a = np.block([[m, off + off.T], [off + off.T, m]])
        p = np.roll(np.arange(24)[::-1] if reverse else np.arange(24), roll or 0)
        A = SymMatrix(a[np.ix_(p, p)])
        w = certify(A, CFG).witness
        k = w.data["vertex"]
        twin = int(np.flatnonzero(p == (p[k] + 12) % 24)[0])
        assert A.a[k, k] == A.a[twin, twin] == A.a.diagonal().max()
        assert k < twin
        assert witness_bytes(w) == witness_bytes(cap(A))

    def test_tie_small(self):
        # indices 2 and 3 are interchangeable: the vertex 2 is tried first
        A = sym([
            [-1.0, -0.1, -0.2, -0.2],
            [-0.1, -0.5, -0.3, -0.3],
            [-0.2, -0.3, 1.0, -0.05],
            [-0.2, -0.3, -0.05, 1.0],
        ])
        assert cap(A).data["vertex"] == 2
        v = certify(A, CFG)
        assert v.witness.data["vertex"] == 2

    def test_memory_bounded(self):
        # at n = 256 the witness holds B - cI, one eigh of order 255 and the
        # score matrix of its points (about 300 per side)
        state = _State(SymMatrix(spread_z(np.random.default_rng(46), 256)), CFG)
        _eigenbasis(state)  # eigh before tracing
        tracemalloc.start()
        try:
            assert _cap(state) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


def pair_bytes(found):
    """A _best_pair result as bytes, for byte-for-byte equality."""
    if found is None:
        return None
    c, k, x, y, margin = found
    return c.hex(), k, x.tobytes(), y.tobytes(), margin.hex()


def with_negative_zeros(A):
    """A with every off-diagonal zero stored as -0.0."""
    a = A.a.copy()
    a[(a == 0.0) & ~np.eye(A.n, dtype=bool)] = -0.0
    return SymMatrix(a)


class TestBestPairBytes:
    """edge._best_pair against its first array form,
    oracles.reference_best_pair, byte for byte, with every off-diagonal
    zero of the input stored as +0.0 and as -0.0."""

    @staticmethod
    def compare(mats):
        """Both forms on each candidate at the midpoint and at the first
        shift of _EDGE_STEPS; returns the number of pairs built."""
        built = 0
        for A in mats:
            negative = with_negative_zeros(A)
            for M in {A.a.tobytes(): A, negative.a.tobytes(): negative}.values():
                _, B, _ = centred(M)
                b, d = B.a, B.a.diagonal()
                lam2 = float(eigen_decompose(B).eigenvalues[1])
                top = float(d.max())
                if not top > lam2:
                    continue
                mid = (lam2 + top) / 2.0
                first = int(np.argsort(-d, kind="stable")[0])
                shifts = lam2 + (top - lam2) * _EDGE_STEPS[:1]
                cands = [(mid, k) for k in np.flatnonzero(d > mid).tolist()]
                cands += [(float(c), first) for c in shifts]
                for c, k in cands:
                    found = _best_pair(b, c, k)
                    assert pair_bytes(found) == pair_bytes(reference_best_pair(b, c, k)), (M, c, k)
                    built += found is not None
        return built

    def test_zmatrix_corpus(self):
        assert self.compare(zmatrix_corpus()) > 2500

    def test_census(self):
        assert self.compare(census()) > 9500

    @pytest.mark.parametrize("seed", [5, 9])
    def test_tied(self, seed):
        assert self.compare(tied(seed)) > 3000

    def test_band_inputs(self):
        assert self.compare(_band_corpus()) > 400

    def test_cap_pairs_walks_the_grid(self):
        # the lazy grid: the midpoint vertices in descending b_kk (stable),
        # then every shift of _EDGE_STEPS at the first largest vertex, as
        # the grid list of the first array form gave them
        rng = np.random.default_rng(47)
        mats = tied(5, 30) + [SymMatrix(spread_z(rng, n)) for n in (4, 6, 9)]
        walked = 0
        for A in mats:
            _, B, _ = centred(with_negative_zeros(A))
            b, d = B.a, B.a.diagonal()
            lam2 = float(eigen_decompose(B).eigenvalues[1])
            top = float(d.max())
            order = np.argsort(-d, kind="stable")
            grid = [((lam2 + top) / 2.0, int(k)) for k in order[d[order] > (lam2 + top) / 2.0]]
            grid += [(float(c), int(order[0])) for c in lam2 + (top - lam2) * _EDGE_STEPS]
            ref = [reference_best_pair(b, c, k) for c, k in grid] if top > lam2 else []
            ref = [pair_bytes(f) for f in ref if f is not None]
            assert [pair_bytes(f) for f in cap_pairs(b, lam2)] == ref, A
            walked += len(ref)
        assert walked > 1000


class TestDiagonalStep:
    """Step 3 takes off-diagonal entries up to 1e-12 ||A||_F as zero."""

    def test_diagonal(self):
        v = certify(SymMatrix(np.diag([1.0, 2.0, 2.0])), CFG)
        assert v.certificate.rule is Rule.DIAGONAL_CHARACTERIZATION

    def test_off_diagonal(self):
        v = certify(sym([[1.0, -0.5], [-0.5, 1.0]]), CFG)
        assert v.certificate.rule is Rule.TWO_EIGENVALUE_CHARACTERIZATION

    def test_below_tolerance(self):
        v = certify(sym([[1.0, 1e-15], [1e-15, 2.0]]), CFG)
        assert v.certificate.rule is Rule.DIAGONAL_CHARACTERIZATION


def verdict_bytes(v):
    """A verdict as its status, rule or witness kind, and the bytes of every
    field."""
    def raw(x):
        if isinstance(x, np.ndarray):
            return x.dtype.str, x.shape, x.tobytes()
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, (list, tuple)):
            return tuple(raw(y) for y in x)
        return x

    fields = None
    if v.certificate is not None:
        fields = v.certificate.rule, [(k, raw(x)) for k, x in v.certificate.data.items()]
    elif v.witness is not None:
        w = v.witness
        fields = w.kind, [(k, raw(x)) for k, x in w.data.items()], raw(w.margin)
    return v.status, fields


def exact_diagonals(rng, count):
    """Seeded exactly diagonal matrices at n 2-40: constants, integer ties,
    spread values, two values with a simple smallest one, and gaps at the
    clustering tolerance, permuted and scaled by 2^-30 ... 2^30; every
    second one stores its off-diagonal zeros as -0.0."""
    for r in range(count):
        n = int(rng.integers(2, 41))
        kind = r % 5
        if kind == 0:
            d = np.full(n, rng.standard_normal())
        elif kind == 1:
            d = rng.integers(-3, 4, n).astype(float)
        elif kind == 2:
            d = rng.standard_normal(n)
        elif kind == 3:
            d = np.full(n, rng.standard_normal())
            d[0] -= rng.uniform(0.1, 2.0)
        else:
            d = rng.integers(-2, 3, n).astype(float)
            sigma = float(np.linalg.norm(d - d.mean())) or 1.0
            steps = [0.0, 0.5, 1.0 - 2.0**-20, 1.0, 1.0 + 2.0**-20, 2.0]
            d += rng.choice(steps, n) * _CLUSTER_RTOL * sigma
        A = SymMatrix(np.diag(rng.permutation(d) * 2.0 ** int(rng.integers(-30, 31))))
        yield with_negative_zeros(A) if r % 2 else A


def cone(found):
    """The ConeNonconvexity witness of _diag_witness's (c, x, y, margin)."""
    c, x, y, margin = found
    return Witness(WitnessKind.CONE_NONCONVEXITY, {"c": c, "x": x, "y": y}, margin)


class TestDiagonalRoute:
    """On an exactly diagonal B steps 2, 3 and 4 read the sorted
    diagonal, and eigen_decompose never runs."""

    @staticmethod
    def fail(B):
        raise AssertionError("eigen_decompose called")

    def test_decides_without_eigendecomposition(self, monkeypatch):
        monkeypatch.setattr(sys.modules["quadsphere.certify"], "eigen_decompose", self.fail)
        rng = np.random.default_rng(32)
        for n in (3, 4, 8, 12, 16, 20, 24, 28, 32):
            d = np.full(n, rng.uniform(-3.0, 3.0))
            assert certify(SymMatrix(np.diag(d))).certificate.rule is Rule.CONSTANT_FORM
            d[rng.integers(n)] -= rng.uniform(0.5, 3.0)
            yes = certify(SymMatrix(np.diag(d)))
            assert yes.certificate.rule is Rule.DIAGONAL_CHARACTERIZATION
            assert yes.certificate.data["eigenvector"][np.argmin(d)] == 1.0
            d = rng.permutation(np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n))
            no = certify(SymMatrix(np.diag(d)))
            assert no.witness.kind is WitnessKind.CONE_NONCONVEXITY
            assert verify_witness(SymMatrix(np.diag(d)), no.witness)

    def test_bytes_match_eigendecomposition_route(self):
        rng = np.random.default_rng(3232)
        decided = {}
        for A in exact_diagonals(rng, 1500):
            # the reference builds a NaN witness where a tie member lies
            # above c; _diag_witness returns None there, and both go on
            with np.errstate(invalid="ignore"):
                ref = reference_diagonal_route(A)
            v = certify(A)
            if ref is None:
                # the diagonal witness does not verify (gaps at the
                # tolerance): steps 5 and 6 refute
                key = "past step 4"
                assert verify_witness(A, v.witness), A
            else:
                key = ref.certificate.rule if ref.certificate else ref.witness.kind
                assert verdict_bytes(v) == verdict_bytes(ref), A
            decided[key] = decided.get(key, 0) + 1
        assert min(decided.values()) >= 100 and len(decided) == 4, decided

    def test_diag_witness_matches_reference(self):
        # the witness in the standard basis and in an orthonormal one, its
        # values and columns in stable sorted order, against the
        # one-value-at-a-time form on the unsorted values
        rng = np.random.default_rng(3233)
        built = 0
        for A in exact_diagonals(rng, 1500):
            _, B, sigma = centred(A)
            d, tol = B.a.diagonal(), _CLUSTER_RTOL * sigma
            order = d.argsort(kind="stable")
            q = np.linalg.qr(np.random.default_rng(B.n).standard_normal((B.n, B.n)))[0]
            for basis in (np.eye(B.n), q):
                # the reference builds a NaN witness where a tie member lies
                # above c, where _diag_witness returns None
                with np.errstate(invalid="ignore"):
                    ref = reference_diag_witness(d, basis, tol)
                found = _diag_witness(d[order], basis[:, order], tol)
                if found is None:
                    assert ref is None or np.isnan(ref.margin), A
                    continue
                no = Status.CERTIFIED_NOT_QUASICONVEX
                w = cone(found)
                assert verdict_bytes(Verdict(no, witness=w)) == verdict_bytes(Verdict(no, witness=ref)), A
                built += 1
        assert built > 1000

    def test_witness_at_the_tolerance_edge_falls_through(self, monkeypatch):
        # clusters {0, 0.9 tol} and {1.95 tol} below 1: step 4's witness has
        # margin 2 sqrt(0.975 * 0.075) tol = 0.54 tol < tol_margin sigma and
        # does not verify, step 5 declines, and step 6 refutes, all without
        # eigen_decompose
        sigma = centred(SymMatrix(np.diag([0.0, 0.0, 0.0, 1.0])))[2]
        tol = _CLUSTER_RTOL * sigma
        A = SymMatrix(np.diag([0.0, 0.9 * tol, 1.95 * tol, 1.0]))
        B = centred(A)[1]
        margin = _diag_witness(np.diag(B.a), np.eye(4), tol)[3]
        assert margin < CFG.tol_margin * sigma
        assert reference_diagonal_route(A) is None
        calls = []
        monkeypatch.setattr(
            sys.modules["quadsphere.certify"], "eigen_decompose",
            lambda M: calls.append(M) or eigen_decompose(M),
        )
        v = certify(A)
        assert len(calls) == 0
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert v.witness.data["vertex"] == 3
        assert verify_witness(A, v.witness)


def diag_witness(d):
    """The witness certify returns for diag(d): step 4's diagonal witness on
    the sorted diagonal."""
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
    # the form step 4 uses on nonnegative eigenvectors
    TOL = 1e-8

    def test_canonical_distinct(self):
        w = cone(_diag_witness(np.array([1.0, 2.0, 3.0]), np.eye(3), self.TOL))
        assert verify_witness(SymMatrix(np.diag([1.0, 2.0, 3.0])), w)
        assert w.margin == pytest.approx(np.sqrt(3.0))

    def test_repeated_smallest(self):
        w = cone(_diag_witness(np.array([0.0, 0.0, 2.0]), np.eye(3), self.TOL))
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
        # q_A is diagonal in that basis, so step 4 is the diagonal witness
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

        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        assert "vertex" not in w.data  # not the cap witness of step 6
        c = w.data["c"]
        assert lj < c < lk
        ti = np.sqrt((c - li) / (lk - c))
        tj = np.sqrt((c - lj) / (lk - c))
        np.testing.assert_allclose(w.data["x"], vi + ti * vk, atol=1e-10)
        np.testing.assert_allclose(w.data["y"], vj + tj * vk, atol=1e-10)
        assert w.margin == pytest.approx(2.0 * np.sqrt((c - li) * (c - lj)))
        assert verify_witness(A, w, CFG)

    def test_verified_no_wins_over_a_loose_slack(self):
        # three blocks [[a, -1e-3], [-1e-3, a]], a in {0, 1, 1.01}: the block
        # Perron vectors carry -1e-3, 0.999 and 1.009, so step 4 refutes.
        # Step 5's bound, lambda2 - max a_ii = 0.001 - 1.01, clears the floor
        # -tol_slack sigma at tol_slack = 1 (sigma = 1.16), and a step 5 that
        # ran first returned a wrong CopositiveSufficiency Yes there
        a = np.zeros((6, 6))
        for r, d in enumerate((0.0, 1.0, 1.01)):
            a[2 * r:2 * r + 2, 2 * r:2 * r + 2] = [[d, -1e-3], [-1e-3, d]]
        A = SymMatrix(a)
        for config in (CFG, Config(tol_slack=1.0)):
            v = certify(A, config)
            assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
            assert v.witness.kind is WitnessKind.CONE_NONCONVEXITY
            assert "vertex" not in v.witness.data  # step 4, not step 6
            assert verify_witness(A, v.witness, config)

    def test_near_diagonal_reads_the_sorted_diagonal(self):
        # diag(-1, 0, 0, 1e-5) with b_13 = -5e-13, inside step 3's 1e-12 sigma:
        # the coupling tilts eigh's top column out of the orthant (by about
        # 5e-8, past tol_sign), so the nonnegative eigenvectors hold at most
        # two values.  Step 4 reads the sorted diagonal instead and refutes;
        # in eigh's basis the input would reach step 5, whose bound -1e-5
        # clears the floor at tol_slack = 1e-3
        a = np.diag([-1.0, 0.0, 0.0, 1e-5])
        a[1, 3] = a[3, 1] = -5e-13
        A = SymMatrix(a)
        E = eigen_decompose(centred(A)[1])
        assert E.vectors[:, 3].min() < -1e-8
        for config in (CFG, Config(tol_slack=1e-3)):
            v = certify(A, config)
            assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
            assert "vertex" not in v.witness.data  # step 4, not step 6
            np.testing.assert_array_equal(v.witness.data["x"] > 0, [True, False, False, True])
            np.testing.assert_array_equal(v.witness.data["y"] > 0, [False, True, False, True])
            assert verify_witness(A, v.witness, config)


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

    def test_rejects_point_just_outside_cone(self):
        # diag(-1, 1, 1) is quasi-convex; x misses the cone of A - 0 I by
        # 9.8e-11 and x + y leaves it by 1.4e-5.  Raising c to 1, x's
        # overshoot per unit squared norm, puts both points inside and the
        # sum too
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        assert certify(A, CFG).status is Status.CERTIFIED_QUASICONVEX
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={
                "c": 0.0,
                "x": np.array([0.0, 0.99e-5, 0.0]),
                "y": np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
            },
            margin=1.4e-5,
        )
        assert not verify_witness(A, w)

    def test_rejects_zero_cone_point(self):
        # with x = 0 the sum is y, a point outside the cone by 5e-11; at
        # tol_margin = 0 only the zero-point check stands between it and a No
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        y = np.array([1.0, np.sqrt(1.0 + 1e-10), 0.0]) / np.sqrt(2.0)
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={"c": 0.0, "x": np.zeros(3), "y": y},
            margin=5e-11,
        )
        assert not verify_witness(A, w, Config(tol_margin=0.0))

    def test_rejects_far_shift_on_identity(self):
        # q_I = 1 on the sphere, so I has no cone witness; raising a c far
        # below the spectrum by subtracting it cancels to round-off above
        # tol_margin, while the Rayleigh quotients of I - I = 0 leave none
        w = Witness(
            kind=WitnessKind.CONE_NONCONVEXITY,
            data={
                "c": -1e8,
                "x": [0.8518339359821577, 0.8848929540768634, 0.7657085265575656],
                "y": [0.032198600883155404, 0.05019972732826783, 0.3294150344639729],
            },
            margin=1.0,
        )
        assert not verify_witness(SymMatrix(np.eye(3)), w)

    def test_far_shift_sweep_accepts_nothing(self):
        # 6,400 made-up cone witnesses on t I with c far below t
        rng = np.random.default_rng(0)
        accepted = 0
        for t in (1.0, 1e3):
            for n in (2, 3, 5, 8):
                A = SymMatrix(t * np.eye(n))
                for c in (-1e6, -1e8, -1e10, -1e12):
                    for _ in range(200):
                        data = {"c": c, "x": rng.random(n), "y": rng.random(n)}
                        w = Witness(WitnessKind.CONE_NONCONVEXITY, data, 1.0)
                        accepted += verify_witness(A, w)
        assert accepted == 0

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
        # q_{A + cI} = q_A + c on the sphere; certify decides A - (tr A / n) I,
        # so a shift far beyond the spread of A moves no verdict either
        for A in self._instances():
            base = certify(A, CFG).status
            far = 1e8 * A.norm_fro()
            for c in (-1.0, 2.0, far, -far):
                shifted = SymMatrix(A.a + c * np.eye(A.n))
                assert certify(shifted, CFG).status is base

    def test_scale_invariance(self):
        for A in self._instances():
            base = certify(A, CFG).status
            for s in (0.1, 10.0):
                assert certify(SymMatrix(s * A.a), CFG).status is base

    def test_small_scale(self):
        # q_{tA} = t q_A, and every tolerance of certify is relative to the
        # spread sigma = ||A - (tr A / n) I||_F: the status is the same at
        # any scale
        rng = np.random.default_rng(17)
        mats = self._instances() + [
            make_negative_positive(4, 1),
            make_three_eigenvalue(4, -1.0, 0.5, 1.0),
            make_positive_basis(4, [-1.0, 1.0, 1.05, 1.1]),
            SymMatrix(np.diag([-0.5, 2.0, 2.0, 2.0])),
        ]
        refuted = 0
        while refuted < 12:
            n = int(rng.integers(3, 7))
            raw = rng.standard_normal((n, n))
            A = SymMatrix((raw + raw.T) / 2.0 if refuted % 2 else -np.abs(raw + raw.T))
            if certify(A, CFG).status is Status.CERTIFIED_NOT_QUASICONVEX:
                mats.append(A)
                refuted += 1
        for A in mats:
            base = certify(A, CFG).status
            for s in (1e-9, 1e-12):
                assert certify(SymMatrix(s * A.a), CFG).status is base

    def test_below_the_normal_range(self):
        # at 2^-700 (exact) the square of every entry underflows: sigma, and
        # with it every tolerance and the refutation limit, must not read 0.
        # Each status is the unscaled one, or Unknown where a witness's own
        # arithmetic underflows; every Yes stays, every No verifies, and no
        # RuntimeWarning is raised
        t = 2.0**-700
        mats = ([A for _, A in metamorphic_corpus(2031, 60)]
                + zmatrix_corpus()[:300] + census()[::5])
        kept = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for A in mats:
                base = certify(A, CFG).status
                T = SymMatrix(t * A.a)
                v = certify(T, CFG)
                if base is Status.CERTIFIED_QUASICONVEX:
                    assert v.status is base, A.a
                assert v.status in (base, Status.UNKNOWN), A.a
                if v.status is Status.CERTIFIED_NOT_QUASICONVEX:
                    assert verify_witness(T, v.witness, CFG), A.a
                kept += v.status is base
        assert len(mats) == 1395 and kept >= 500

    def test_round_off_witnesses_at_tiny_scale(self):
        # near-parallel points x, y = x + 1e-15 u on a Householder matrix
        # (quasi-convex): the cone margin is round-off, which only a
        # refutation limit of 0 would accept
        rng = np.random.default_rng(43)
        for _ in range(2000):
            n = int(rng.integers(3, 9))
            H = make_householder(rng.random(n) + 0.1)
            x = rng.random(n)
            x /= np.linalg.norm(x)
            y = x + 1e-15 * rng.random(n)
            w = Witness(WitnessKind.CONE_NONCONVEXITY, {"c": -10.0, "x": x, "y": y}, 0.0)
            for t in (1.0, 2.0**-700):
                assert not verify_witness(SymMatrix(t * H.a), w, CFG), (t, H.a)

    def test_tiny_diagonal_not_yes(self):
        # diag(1, 2, 3) is refuted at scale 1; at 1e-9 its eigenvalue gaps
        # and its witness margin are below the absolute tol_margin, but not
        # below tol_margin sigma
        A = SymMatrix(1e-9 * np.diag([1.0, 2.0, 3.0]))
        v = certify(A, CFG)
        assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
        assert verify_witness(A, v.witness, CFG)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for A in self._instances():
            base = certify(A, CFG).status
            p = rng.permutation(A.n)
            B = SymMatrix(A.a[np.ix_(p, p)])
            assert certify(B, CFG).status is base
