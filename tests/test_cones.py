import numpy as np
import pytest

from quadsphere.config import DEFAULT, Config
from quadsphere.cones import is_copositive, pareto_spectrum
from quadsphere.genex import make_negative_positive, make_positive_basis
from quadsphere.linalg import SymMatrix

from oracles import grid_min_quadratic, reference_pareto


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


class TestParetoSpectrum:
    def test_diagonal(self):
        S = pareto_spectrum(SymMatrix(np.diag([-1.0, 1.0, 1.0])))
        assert S.exact
        assert S.min_value == pytest.approx(-1.0)
        values = [p.value for p in S.pairs]
        assert values == sorted(values)
        # each canonical direction is its own Pareto eigenpair
        assert any(p.support == (0,) for p in S.pairs)

    def test_offdiagonal_coupling(self):
        S = pareto_spectrum(sym([[0.0, -1.0], [-1.0, 0.0]]))
        assert S.min_value == pytest.approx(-1.0)
        least = S.pairs[0]
        assert least.support == (0, 1)
        np.testing.assert_allclose(least.vector, np.full(2, 1 / np.sqrt(2)), atol=1e-9)

    def test_positive_coupling_excludes_minimum(self):
        # +1 coupling: the full-support eigenvector of the smallest eigenvalue
        # has mixed signs, so the orthant minimum is on the boundary
        S = pareto_spectrum(sym([[0.0, 1.0], [1.0, 0.0]]))
        assert S.min_value == pytest.approx(0.0)

    def test_pairs_scale_with_the_matrix(self):
        # q_{tA} = t q_A: the Pareto pairs of tA are those of A, values
        # times t, at every scale t > 0.  For the first matrix (A e_1)_2 =
        # -t < 0, so only support (0, 1) is a pair, even at t = 1e-9
        rng = np.random.default_rng(27)
        corpus = [np.array([[0.0, -1.0], [-1.0, 0.0]])]
        for n in (2, 3, 4, 5, 6):
            raw = 2.0 * rng.random((n, n)) - 1.0
            corpus.append((raw + raw.T) / 2.0)
        for a in corpus:
            base = pareto_spectrum(SymMatrix(a)).pairs
            for t in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1.0):
                pairs = pareto_spectrum(SymMatrix(t * a)).pairs
                assert [p.support for p in pairs] == [b.support for b in base], (a, t)
                for p, b in zip(pairs, base):
                    assert p.value == pytest.approx(t * b.value, rel=1e-9, abs=t * 1e-12)
                    np.testing.assert_allclose(p.vector, b.vector, rtol=0.0, atol=1e-9)

    def test_pair_structure(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            S = pareto_spectrum(A)
            for p in S.pairs:
                x = p.vector
                assert np.linalg.norm(x) == pytest.approx(1.0)
                assert float(x.min()) >= -1e-10
                resid = A.a @ x - p.value * x
                on = np.array(p.support)
                off = np.setdiff1d(np.arange(4), on)
                assert float(np.abs(resid[on]).max()) <= 1e-8
                if off.size:
                    assert float(resid[off].min()) >= -1e-8
                # complementarity <x, Ax - lam x> = 0
                assert abs(float(x @ resid)) <= 1e-8

    def test_min_matches_grid(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            raw = 2.0 * (2.0 * rng.random((3, 3)) - 1.0)
            A = SymMatrix((raw + raw.T) / 2.0)
            gmin, _ = grid_min_quadratic(A.a, steps=80)
            assert pareto_spectrum(A).min_value <= gmin + 1e-9
            assert pareto_spectrum(A).min_value >= gmin - 5e-3

    def test_dimension_cap(self):
        A = SymMatrix(np.eye(5))
        with pytest.raises(ValueError, match="max_exact_dim"):
            pareto_spectrum(A, Config(max_exact_dim=4))

    def test_dimension_limit_above_any_cap(self):
        # 2^19 - 1 supports: refused before any is enumerated, whatever
        # max_exact_dim allows
        A = SymMatrix(np.eye(19))
        with pytest.raises(ValueError, match="enumeration cap"):
            pareto_spectrum(A, Config(max_exact_dim=40))


class TestCopositive:
    def test_identity(self):
        assert is_copositive(SymMatrix(np.eye(4)))

    def test_negative_definite(self):
        assert not is_copositive(SymMatrix(-np.eye(3)))

    def test_indefinite_but_copositive(self):
        # the horn-like pattern: indefinite yet nonnegative on the orthant
        A = sym([[1.0, 1.0], [1.0, 0.0]])
        assert is_copositive(A)
        assert float(np.linalg.eigvalsh(A.a)[0]) < 0.0

    def test_not_copositive_with_negative_coupling(self):
        assert not is_copositive(sym([[0.0, -1.0], [-1.0, 0.0]]))

    def test_threshold_scales_below_unit_norm(self):
        # copositivity does not depend on the scale of A; the least Pareto
        # value here, -1e-9, equals -tol_slack, so only a threshold that
        # scales with A rejects it
        A = SymMatrix(1e-9 * np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert not is_copositive(A)
        assert is_copositive(SymMatrix(1e-9 * np.eye(2)))

    def test_threshold_reads_config(self):
        # least Pareto value -1e-6: below the default tol_slack, inside 1e-5
        A = SymMatrix(np.diag([-1e-6, 1.0, 2.0]))
        assert pareto_spectrum(A).min_value == -1e-6
        assert not is_copositive(A)
        assert is_copositive(A, Config(tol_slack=1e-5))

    def test_matches_grid_sign(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            gmin, _ = grid_min_quadratic(A.a)
            if abs(gmin) > 1e-2:
                assert is_copositive(A) == (gmin > 0.0)


def _shifted(A):
    """lambda2 I - A: the matrix whose copositivity certify step 5 decides."""
    lam2 = float(np.linalg.eigvalsh(A.a)[1])
    return lam2 * np.eye(A.n) - A.a


def _reference_corpus():
    """Seeded matrices, n 2-7, covering every acceptance path."""
    rng = np.random.default_rng(2024)
    out = []
    for n in range(2, 8):
        for _ in range(3):
            raw = 2.0 * rng.random((n, n)) - 1.0
            out.append((raw + raw.T) / 2.0)  # random
            z = -np.abs(raw + raw.T) / 2.0
            np.fill_diagonal(z, rng.uniform(-0.5, 2.0, n))
            out.append(z)  # Z-pattern
            ints = rng.integers(-2, 3, (n, n))
            ints = np.triu(ints) + np.triu(ints, 1).T
            out.append(ints.astype(float))  # repeated values and zeros
            pos = np.abs(raw + raw.T)
            pos[0, -1] = pos[-1, 0] = -0.5 * min(pos[0, 0], pos[-1, -1]) - 0.1
            out.append(pos)  # positive diagonal, one negative coupling
        d = rng.uniform(1.0, 2.0, n)
        nc = np.outer(np.sqrt(d), np.sqrt(d)) * -0.8
        np.fill_diagonal(nc, d)
        out.append(nc)  # positive diagonal, not copositive for n >= 3
        out.append(_shifted(make_negative_positive(n, n)))
        if n >= 3:
            lam1 = rng.uniform(-1.0, 1.0)
            lam2 = lam1 + rng.uniform(0.5, 2.0)
            room = (lam2 - lam1) / (n * (n - 2))
            rest = lam2 + rng.uniform(0.05, 0.9, n - 2) * room
            out.append(_shifted(make_positive_basis(n, [lam1, lam2, *np.sort(rest)])))
    for eps in (5e-10, 2e-9, 1e-5):
        # support {0} has off-support residual -eps: accepted only within
        # the 1e-9 slack
        edge = np.diag([0.0, 1.0, 2.0])
        edge[0, 1] = edge[1, 0] = -eps
        out.append(edge)
    return out


class TestAgainstReference:
    """The stacked enumeration against a one-support-at-a-time loop."""

    CORPUS = _reference_corpus()

    def test_pareto_spectrum_matches(self):
        for a in self.CORPUS:
            for slack in (DEFAULT.tol_slack, 1e-4):
                got = pareto_spectrum(SymMatrix(a), Config(tol_slack=slack)).pairs
                ref = reference_pareto(a, slack_tol=slack * np.linalg.norm(a))
                assert [p.support for p in got] == [t[1] for t in ref], (a, slack)
                for p, (value, _, vector) in zip(got, ref):
                    assert p.value == pytest.approx(value, abs=1e-12)
                    np.testing.assert_allclose(p.vector, vector, rtol=0.0, atol=1e-12)

    def test_is_copositive_matches(self):
        outcomes = set()
        for a in self.CORPUS:
            tol = DEFAULT.tol_slack * np.linalg.norm(a)
            expected = reference_pareto(a, slack_tol=tol)[0][0] >= -tol
            assert is_copositive(SymMatrix(a)) == expected, a
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_cap_checked_first(self):
        # no screen decides this matrix past the cap: it has a negative
        # entry off the diagonal, lambda1 = -1 and a least eigenvector
        # (1, -1, 0, 0, 0)/sqrt(2), whose clipped halves give q = 1/2
        a = np.eye(5)
        a[0, 1] = a[1, 0] = 2.0
        a[2, 3] = a[3, 2] = -0.5
        with pytest.raises(ValueError, match="max_exact_dim"):
            is_copositive(SymMatrix(a), Config(max_exact_dim=4))
        # a diagonal entry below the threshold refutes at e_i, at any n
        a[2, 2] = -0.5
        assert not is_copositive(SymMatrix(a), Config(max_exact_dim=4))


def _screen_corpus():
    """Seeded matrices at n 5-10 for each copositivity screen past the cap,
    and dense ones with entries in [-1, 1]."""
    rng = np.random.default_rng(77)
    out = []
    for n in range(5, 11):
        raw = rng.uniform(-1.0, 1.0, (n, n))
        sym = (raw + raw.T) / 2.0
        out.append(np.abs(sym))  # entrywise nonnegative
        b = rng.standard_normal((n, n))
        out.append(b @ b.T)  # positive semidefinite
        for shift in (-1.0, 1.0):
            z = -np.abs(sym)
            np.fill_diagonal(z, 0.0)
            lam1 = float(np.linalg.eigvalsh(z)[0])
            out.append(z + (shift - lam1) * np.eye(n))  # lambda1 = shift
        out.append(sym)  # dense
    return out


class TestCopositiveScreens:
    """Past the cap is_copositive answers by its screens where they decide,
    and agrees with the enumeration at the default cap."""

    def test_screens_agree_with_enumeration(self):
        decided = []
        for a in _screen_corpus():
            A = SymMatrix(a)
            try:
                screened = is_copositive(A, Config(max_exact_dim=4))
            except ValueError as exc:
                assert "enumeration cap" in str(exc)
                continue
            assert screened == is_copositive(A), a
            decided.append(screened)
        # 6 nonnegative, 6 PSD and 6 Z-matrices with lambda1 = 1 say True;
        # 6 Z-matrices with lambda1 = -1 say False, and so do the 6 dense
        # ones, each refuted at a negative diagonal entry (and by its
        # clipped least eigenvector in either sign)
        assert decided.count(True) == 18
        assert decided.count(False) == 12


def _agreement_corpus():
    """About 600 seeded matrices at n 2-10 in six families: dense, dense
    with a positive diagonal, a positive diagonal with one negatively coupled
    block, Z-matrices, PSD and entrywise nonnegative."""
    rng = np.random.default_rng(2027)
    out = []
    for n in range(2, 11):
        for _ in range(11):
            raw = rng.uniform(-1.0, 1.0, (n, n))
            dense = (raw + raw.T) / 2.0
            out.append(dense)
            pos = dense.copy()
            np.fill_diagonal(pos, rng.uniform(0.1, 2.0, n))
            out.append(pos)
            d = rng.uniform(1.0, 2.0, n)
            block = pos.copy()
            k = int(rng.integers(min(n, 3), min(n, 5) + 1))
            support = rng.choice(n, size=k, replace=False)
            t = rng.uniform(0.7, 0.9)
            block[np.ix_(support, support)] = -t * np.sqrt(np.outer(d[support], d[support]))
            np.fill_diagonal(block, d)
            out.append(block)
            z = -np.abs(dense)
            np.fill_diagonal(z, rng.uniform(-0.5, 2.0, n))
            out.append(z)
            b = rng.standard_normal((n, n))
            out.append(b @ b.T)
            out.append(np.abs(dense))
    return out


class TestScreensAgreeWithWalk:
    """is_copositive's screens never disagree with the enumeration, and each
    False they give rests on an explicit vector x >= 0 with q(x) below the
    threshold times ||x||^2."""

    def test_agreement(self):
        fired = {"diagonal": 0, "eigenvector": 0}
        for a in _agreement_corpus():
            A = SymMatrix(a)
            floor = -DEFAULT.tol_slack * A.norm_fro()
            verdict = is_copositive(A)
            assert verdict == (pareto_spectrum(A).min_value >= floor), a
            if (a >= 0.0).all():
                continue
            if a.diagonal().min() < floor:
                candidates, screen = [np.eye(A.n)[int(np.argmin(a.diagonal()))]], "diagonal"
            else:
                v = np.linalg.eigh(a)[1][:, 0]
                candidates, screen = [np.maximum(v, 0.0), np.maximum(-v, 0.0)], "eigenvector"
            hits = [x for x in candidates if x @ a @ x < floor * (x @ x)]
            for x in hits:
                assert x.min() >= 0.0 and not verdict, a
            fired[screen] += bool(hits)
        assert fired["diagonal"] > 0 and fired["eigenvector"] > 0, fired
