import numpy as np
import pytest

from quadsphere.certify import Rule, Status, certify
from quadsphere.config import Config
from quadsphere.genex import (
    make_diag_two_eig,
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from quadsphere.linalg import SymMatrix, eigen_decompose

CFG = Config()


def spectrum(A: SymMatrix) -> np.ndarray:
    return eigen_decompose(A).eigenvalues


class TestThreeEigenvalue:
    def test_reference_instance(self):
        A = make_three_eigenvalue(3, 0.0, 3.0, 4.0)
        np.testing.assert_allclose(
            A.a, [[2.0, 0.0, -2.0], [0.0, 3.0, 0.0], [-2.0, 0.0, 2.0]], atol=1e-12
        )
        np.testing.assert_allclose(spectrum(A), [0.0, 3.0, 4.0], atol=1e-12)

    def test_spectrum_shape(self):
        A = make_three_eigenvalue(5, -1.0, 2.0, 3.0)
        np.testing.assert_allclose(
            spectrum(A), [-1.0, 2.0, 2.0, 2.0, 3.0], atol=1e-10
        )

    def test_certifies(self):
        for args in ((3, 0.0, 3.0, 4.0), (4, -2.0, 1.0, 2.0), (5, 0.0, 2.5, 3.0)):
            v = certify(make_three_eigenvalue(*args), CFG)
            assert v.status is Status.CERTIFIED_QUASICONVEX

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            make_three_eigenvalue(3, 2.0, 1.0, 3.0)

    def test_rejects_spread_violation(self):
        # mu below the midpoint breaks the basis condition
        with pytest.raises(ValueError, match="basis condition"):
            make_three_eigenvalue(3, 0.0, 1.0, 4.0)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            make_three_eigenvalue(2, 0.0, 1.0, 2.0)

    @pytest.mark.parametrize("args", [
        (3, 0.0, 5e-324, 1.0),  # (nu - mu)/(mu - lam) overflows
        (4, -1e12, -0.5, 1e12),  # mu 0.5 below the midpoint
        (4, -1e9, 999999999.999, 3e9),
    ])
    def test_rejects_below_midpoint(self, args):
        # certify refutes each of these; the rule is exact, not up to a slack
        with pytest.raises(ValueError, match="basis condition"):
            make_three_eigenvalue(*args)

    def test_accepts_exact_midpoint(self):
        A = make_three_eigenvalue(3, -1e12, 0.0, 1e12)
        assert certify(A, CFG).status is Status.CERTIFIED_QUASICONVEX


@pytest.mark.parametrize("make", [
    lambda x: make_three_eigenvalue(3, 0.0, 1.0, x),
    lambda x: make_three_eigenvalue(3, -x, 0.0, 1.0),
    lambda x: make_positive_basis(3, [0.0, x, x]),
    lambda x: make_householder([1.0, x]),
    lambda x: make_diag_two_eig(3, 0.0, x),
], ids=["three-eig-nu", "three-eig-lam", "positive-basis", "householder", "diag-two-eig"])
@pytest.mark.parametrize("x", [np.inf, np.nan])
def test_rejects_nonfinite_before_arithmetic(make, x):
    # a RuntimeWarning from arithmetic on x would fail the test first
    with pytest.raises(ValueError, match="generator parameters must be finite"):
        make(x)


class TestPositiveBasis:
    def test_first_eigenvector_positive(self):
        A = make_positive_basis(4, [0.0, 3.0, 3.0, 3.1])
        E = eigen_decompose(A)
        v1 = E.vectors[:, 0]
        assert float(np.abs(v1).min()) > 0.0
        np.testing.assert_allclose(np.abs(v1), np.full(4, 0.5), atol=1e-10)

    def test_certifies(self):
        for n, eigs in ((3, [0.0, 3.0, 3.5]), (4, [-1.0, 2.0, 2.0, 2.3]), (5, [0.0, 3.0, 3.0, 3.0, 3.15])):
            v = certify(make_positive_basis(n, eigs), CFG)
            assert v.status is Status.CERTIFIED_QUASICONVEX

    def test_rejects_spread_violation(self):
        with pytest.raises(ValueError, match="spread bound"):
            make_positive_basis(3, [0.0, 1.0, 3.0])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_positive_basis(3, [1.0, 0.0, 2.0])


class TestHouseholder:
    def test_reference_instance(self):
        A = make_householder([1.0, 1.0, 1.0])
        np.testing.assert_allclose(A.a, np.eye(3) - 2.0 / 3.0, atol=1e-12)

    def test_spectrum(self):
        A = make_householder([1.0, 2.0, 0.5, 3.0])
        np.testing.assert_allclose(spectrum(A), [-1.0, 1.0, 1.0, 1.0], atol=1e-10)

    def test_involution(self):
        A = make_householder([0.3, 1.7])
        np.testing.assert_allclose(A.a @ A.a, np.eye(2), atol=1e-12)

    def test_certifies(self):
        for v in ([1.0, 1.0, 1.0], [0.1, 2.0, 0.0, 1.0], [5.0, 1.0]):
            verdict = certify(make_householder(v), CFG)
            assert verdict.status is Status.CERTIFIED_QUASICONVEX

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_householder([1.0, -1.0])

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            make_householder([0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_any_scale(self, scale):
        # v v^T / ||v||^2 used to overflow (1e200) or vanish (1e-200)
        A = make_householder([scale, scale])
        np.testing.assert_array_equal(A.a, [[0.0, -1.0], [-1.0, 0.0]])


class TestDiagTwoEig:
    def test_shape(self):
        A = make_diag_two_eig(4, -1.0, 1.0)
        np.testing.assert_allclose(A.a, np.diag([-1.0, 1.0, 1.0, 1.0]))

    def test_certifies(self):
        for n, lam, mu in ((3, -1.0, 1.0), (5, 0.0, 2.0), (4, -3.0, -1.0)):
            v = certify(make_diag_two_eig(n, lam, mu), CFG)
            assert v.status is Status.CERTIFIED_QUASICONVEX

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            make_diag_two_eig(3, 1.0, 1.0)


class TestNegativePositive:
    def test_entrywise_negative(self):
        for seed in range(5):
            A = make_negative_positive(4, seed)
            assert float(A.a.max()) < 0.0

    def test_eigen_structure(self):
        for seed in range(5):
            A = make_negative_positive(4, seed)
            w = spectrum(A)
            assert w[0] < 0.0 < w[1]  # simple negative smallest, rest positive
            assert w[1] - w[0] > 1e-8

    def test_certifies(self):
        for seed in range(8):
            v = certify(make_negative_positive(4, seed), CFG)
            assert v.status is Status.CERTIFIED_QUASICONVEX

    def test_deterministic(self):
        A = make_negative_positive(5, 3)
        B = make_negative_positive(5, 3)
        assert A.a.tobytes() == B.a.tobytes()

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            make_negative_positive(1, 0)

    def test_property_up_to_n32(self):
        # n >= 14 is where a shift margin scaled by the Perron-like
        # eigenvalue (~ -1.15 n) turns entries positive
        for n in range(2, 33):
            for seed in range(10):
                A = make_negative_positive(n, seed)
                assert float(A.a.max()) < 0.0, (n, seed)
                w = spectrum(A)
                assert w[1] - w[0] > 1e-8, (n, seed)
                assert w[1] > 0.0, (n, seed)
                v = certify(A, CFG)
                assert v.status is Status.CERTIFIED_QUASICONVEX, (n, seed)
                if n > 2:
                    # two eigenvalues at n = 2 are step 3's; from n = 3 the
                    # diagonal rule decides step 6, past the enumeration cap
                    # too: lambda2 > 0 > max a_ii
                    assert v.certificate.rule is Rule.COPOSITIVE_SUFFICIENCY
                    assert v.certificate.data["pareto_min"] > 0.0, (n, seed)
