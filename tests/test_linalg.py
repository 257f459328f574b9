import numpy as np
import pytest

from quadsphere.linalg import (
    SymMatrix,
    cluster_eigenvalues,
    eigen_decompose,
    is_diagonal,
)

from oracles import eig_2x2


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
            assert E.residual <= 1e-10 * scale
            assert np.all(np.diff(E.eigenvalues) >= 0)
            assert abs(E.eigenvalues.sum() - np.trace(A.a)) <= 1e-9 * scale

    def test_sign_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            E = eigen_decompose(random_symmetric(rng, 5))
            for j in range(5):
                k = int(np.argmax(np.abs(E.vectors[:, j])))
                assert E.vectors[k, j] >= 0

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
        S = cluster_eigenvalues(E)
        assert S.clusters == [(1.0, 2), (3.0, 1)]
        assert not S.smallest_simple

    def test_simple_smallest(self):
        E = eigen_decompose(SymMatrix(np.diag([-1.0, 1.0, 1.0])))
        S = cluster_eigenvalues(E)
        assert S.distinct_count == 2
        assert S.smallest_simple

    def test_tolerance_forces_merge(self):
        E = eigen_decompose(SymMatrix(np.diag([0.0, 1e-12, 5.0])))
        S = cluster_eigenvalues(E)
        assert S.distinct_count == 2
        value, mult = S.clusters[0]
        assert mult == 2 and abs(value) < 1e-11

    def test_multiplicities_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            E = eigen_decompose(random_symmetric(rng, 6))
            S = cluster_eigenvalues(E)
            assert sum(m for _, m in S.clusters) == 6
            values = [v for v, _ in S.clusters]
            assert values == sorted(values)


class TestIsDiagonal:
    def test_diagonal(self):
        assert is_diagonal(SymMatrix(np.diag([1.0, 2.0, 3.0])))

    def test_off_diagonal(self):
        assert not is_diagonal(SymMatrix([[1.0, 0.5], [0.5, 1.0]]))

    def test_below_tolerance(self):
        A = SymMatrix([[1.0, 1e-15], [1e-15, 2.0]])
        assert is_diagonal(A)


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
