import numpy as np
import pytest

from quadsphere.linalg import (
    EigenSystem,
    SymMatrix,
    centred,
    cluster_eigenvalues,
    eigen_decompose,
)

from oracles import eig_2x2, reference_clusters, reference_sign_normalize


def random_symmetric(rng, n, scale=2.0):
    a = scale * (2.0 * rng.random((n, n)) - 1.0)
    return SymMatrix((a + a.T) / 2.0)


class TestSymMatrix:
    def test_symmetrizes_small_asymmetry(self):
        A = SymMatrix([[1.0, 0.5 + 1e-12], [0.5, 2.0]])
        assert A.a[0, 1] == A.a[1, 0]

    def test_rejects_large_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix([[1.0, 0.5], [0.4, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymMatrix([[1.0, 2.0, 3.0]])


class TestEigenDecompose:
    def test_diagonal_permuted(self):
        E = eigen_decompose(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(E.eigenvalues, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(E.vectors[:, 0], [0, 1, 0])
        np.testing.assert_allclose(E.vectors[:, 1], [0, 0, 1])
        np.testing.assert_allclose(E.vectors[:, 2], [1, 0, 0])

    def test_identity(self):
        E = eigen_decompose(SymMatrix(np.eye(3)))
        np.testing.assert_allclose(E.eigenvalues, [1.0, 1.0, 1.0])
        assert np.linalg.norm(E.vectors.T @ E.vectors - np.eye(3)) <= 1e-10

    def test_2x2_against_closed_form(self):
        E = eigen_decompose(SymMatrix([[0.0, -1.0], [-1.0, 0.0]]))
        (lo, hi), (v_lo, _) = eig_2x2(0.0, -1.0, 0.0)
        np.testing.assert_allclose(E.eigenvalues, [lo, hi], atol=1e-12)
        np.testing.assert_allclose(E.vectors[:, 0], np.abs(v_lo), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_random_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for _ in range(25):
            A = random_symmetric(rng, n)
            E = eigen_decompose(A)
            scale = max(1.0, A.norm_fro())
            recon = (E.vectors * E.eigenvalues) @ E.vectors.T
            assert np.linalg.norm(A.a - recon) <= 1e-10 * scale
            assert np.linalg.norm(E.vectors.T @ E.vectors - np.eye(n)) <= 1e-10
            assert np.all(np.diff(E.eigenvalues) >= 0)
            assert abs(E.eigenvalues.sum() - np.trace(A.a)) <= 1e-9 * scale

    def test_sign_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            E = eigen_decompose(random_symmetric(rng, 5))
            for j in range(5):
                k = int(np.argmax(np.abs(E.vectors[:, j])))
                assert E.vectors[k, j] >= 0

    def test_result_is_immutable(self):
        E = eigen_decompose(SymMatrix(np.diag([2.0, 1.0])))
        for name in ("eigenvalues", "vectors", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(E, name, np.zeros(2))
        assert not E.eigenvalues.flags.writeable and not E.vectors.flags.writeable
        w, v = np.array([1.0, 2.0]), np.eye(2)
        E = EigenSystem(vectors=v, eigenvalues=w)
        assert E.eigenvalues is w and E.vectors is v
        assert not hasattr(E, "__dict__")

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(11)
        A = random_symmetric(rng, 7)
        E1 = eigen_decompose(A)
        E2 = eigen_decompose(SymMatrix(A.a.copy()))
        assert E1.eigenvalues.tobytes() == E2.eigenvalues.tobytes()
        assert E1.vectors.tobytes() == E2.vectors.tobytes()


class TestClusterEigenvalues:
    def test_repeated_smallest(self):
        E = eigen_decompose(SymMatrix(np.diag([1.0, 1.0, 3.0])))
        clusters = cluster_eigenvalues(E.eigenvalues, 1e-8)
        assert clusters == [(1.0, 2), (3.0, 1)]
        assert clusters[0][1] != 1

    def test_simple_smallest(self):
        E = eigen_decompose(SymMatrix(np.diag([-1.0, 1.0, 1.0])))
        clusters = cluster_eigenvalues(E.eigenvalues, 1e-8)
        assert len(clusters) == 2
        assert clusters[0][1] == 1

    def test_tolerance_forces_merge(self):
        E = eigen_decompose(SymMatrix(np.diag([0.0, 1e-12, 5.0])))
        clusters = cluster_eigenvalues(E.eigenvalues, 1e-8)
        assert len(clusters) == 2
        value, mult = clusters[0]
        assert mult == 2 and abs(value) < 1e-11

    def test_multiplicities_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            E = eigen_decompose(random_symmetric(rng, 6))
            clusters = cluster_eigenvalues(E.eigenvalues, 1e-8)
            assert sum(m for _, m in clusters) == 6
            values = [v for v, _ in clusters]
            assert values == sorted(values)


def _mixed_inputs(rng, count):
    """Seeded symmetric matrices of size 2-32: dense at three scales,
    clustered spectra whose gaps sit below, near and above 1e-8 sigma
    (linalg.centred), diagonals with repeated entries, and reflections whose
    eigenvectors tie in magnitude."""
    out = []
    for m in range(count):
        n = int(rng.integers(2, 33))
        kind = m % 4
        if kind == 0:
            out.append(random_symmetric(rng, n, scale=10.0 ** rng.integers(-3, 4)))
            continue
        if kind == 3:
            v = rng.choice([1.0, 2.0], n) if m % 8 == 3 else np.ones(n)
            out.append(SymMatrix(np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)))
            continue
        w = np.repeat(rng.standard_normal(3), [1, n // 2, n - 1 - n // 2])
        w += rng.choice([0.0, 3e-9, 1e-8, 3e-8], n) * rng.random(n)
        if kind == 1:
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            out.append(SymMatrix((q * w) @ q.T))
        else:
            out.append(SymMatrix(np.diag(rng.permutation(w))))
    return out


def _edge_inputs(rng, count):
    """Seeded symmetric matrices at the edges of the array forms: n = 2,
    exact ties (integer entries, repeated diagonals, off-diagonal zeros
    stored as -0.0) and scales 2^-30, 1 and 2^30."""
    out = []
    for m in range(count):
        n = 2 if m % 3 == 0 else int(rng.integers(3, 10))
        a = np.triu(rng.integers(-2, 3, (n, n)).astype(float), 1)
        a = a + a.T
        if m % 2:
            a[a == 0.0] = -0.0
        np.fill_diagonal(a, rng.choice([-1.0, 0.0, 1.0], n))
        out.append(SymMatrix(a * 2.0 ** int(rng.choice([-30, 0, 30]))))
    return out


class TestArrayFormsMatchLoops:
    """The array forms of the sign step, the clustering and the norms give
    the loop forms' (and np.linalg.norm's) output bit for bit."""

    def test_bitwise(self):
        rng = np.random.default_rng(2025)
        multi = negzero = flipped = 0
        for A in _mixed_inputs(rng, 1200) + _edge_inputs(rng, 600):
            w, v = np.linalg.eigh(A.a)
            order = np.argsort(w, kind="stable")
            expected = reference_sign_normalize(v[:, order])
            E = eigen_decompose(A)
            assert E.vectors.tobytes() == expected.tobytes()
            tau, B, sigma = centred(A)
            assert tau.hex() == (float(A.a.trace()) / A.n).hex()
            assert sigma.hex() == float(np.linalg.norm(B.a)).hex()
            assert A.norm_fro().hex() == float(np.linalg.norm(A.a)).hex()
            tol = 1e-8 * sigma
            clusters = cluster_eigenvalues(E.eigenvalues, tol)
            ref = reference_clusters(E.eigenvalues, tol)
            assert repr(clusters) == repr(ref)
            assert [type(m) for _, m in clusters] == [int] * len(ref)
            multi += any(m > 1 for _, m in ref)
            negzero += bool(np.signbit(A.a[A.a == 0.0]).any())
            flipped += not np.array_equal(expected, v[:, order])
        assert multi >= 800 and negzero >= 150 and flipped >= 1200


class TestContract:
    """What certify relies on without checking: ascending eigenvalues, and
    columns oriented so that -v never fits the orthant where v does not."""

    @pytest.mark.parametrize("tol", [0.0, 1e-10, 0.3, 5.0])
    def test_ascending_and_oriented(self, tol):
        rng = np.random.default_rng(41)
        inputs = _mixed_inputs(rng, 200)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            z = -rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            inputs.append(SymMatrix(np.triu(z, 1) + np.triu(z, 1).T + np.diag(rng.random(n))))
        for A in inputs:
            E = eigen_decompose(A)
            assert np.all(np.diff(E.eigenvalues) >= 0)
            for v in E.vectors.T:
                # if -v fits the orthant up to tol, so does v
                assert float((-v).min()) < -tol or float(v.min()) >= -tol


class TestPermuteSimilarity:
    def test_spectrum_preserved(self):
        # P^T A P has the spectrum of A
        rng = np.random.default_rng(17)
        for _ in range(10):
            A = random_symmetric(rng, 6)
            p = rng.permutation(6)
            B = SymMatrix(A.a[np.ix_(p, p)])
            wa = eigen_decompose(A).eigenvalues
            wb = eigen_decompose(B).eigenvalues
            np.testing.assert_allclose(wa, wb, atol=1e-9)
