"""Seeded soundness corpora of Z-matrices.

For a Z-matrix the paper's sufficient condition (copositivity of
lambda2 I - A) reduces to lambda2 >= max a_ii; its necessity is conjectured,
and the cap witness of certify step 6 supplies the No side.  Whatever the
conjecture's fate, every Yes here must satisfy the condition, every No must
carry a witness that verify_witness accepts, and no input may be left
Unknown.  The corpora: 600 random Z-matrices, every integer Z-matrix of
size 3 with off-diagonal entries in {0, -1, -2} and diagonal entries in
{-2, ..., 2}, and tied-maximum inputs of size 3-7.
"""

import itertools

import numpy as np
import pytest

from quadsphere.certify import Status, WitnessKind, certify, verify_witness
from quadsphere.linalg import SymMatrix

from test_metamorphic import _tied


def corpus(seed=2024, count=600):
    """Z-matrices of size 3-7: negative off-diagonals, dense for even and
    about 30% filled for odd positions in the list, Gaussian diagonals."""
    rng = np.random.default_rng(seed)
    out = []
    for m in range(count):
        n = int(rng.integers(3, 8))
        off = -rng.random((n, n))
        if m % 2:
            off *= rng.random((n, n)) < 0.3
        a = np.triu(off, 1)
        a = a + a.T
        np.fill_diagonal(a, rng.standard_normal(n))
        out.append(SymMatrix(a))
    return out


def census():
    """The 3,375 integer Z-matrices of size 3 with off-diagonal entries in
    {0, -1, -2} and diagonal entries in {-2, ..., 2}."""
    iu = np.triu_indices(3, 1)
    out = []
    for off in itertools.product([0.0, -1.0, -2.0], repeat=3):
        for d in itertools.product(range(-2, 3), repeat=3):
            a = np.diag(np.array(d, dtype=float))
            a[iu] = off
            out.append(SymMatrix(a + np.triu(a, 1).T))
    return out


def tied(seed, count=400):
    """``count`` tied-maximum inputs of size 3-7 (test_metamorphic._tied)."""
    rng = np.random.default_rng(seed)
    return [SymMatrix(_tied(rng, int(rng.integers(3, 8)))) for _ in range(count)]


def certified(mats):
    return [(A, certify(A)) for A in mats]


def assert_sound_and_decided(verdicts):
    """Every input ends as a Yes with lambda2 >= max a_ii or as a verified
    No."""
    for A, v in verdicts:
        if v.status is Status.CERTIFIED_QUASICONVEX:
            lam2 = float(np.linalg.eigvalsh(A.a)[1])
            assert lam2 >= float(A.a.diagonal().max()) - 1e-9, A.a
        else:
            assert v.status is Status.CERTIFIED_NOT_QUASICONVEX, A.a
            assert verify_witness(A, v.witness), A.a


@pytest.fixture(scope="module")
def verdicts():
    return certified(corpus())


def test_sound_and_decided(verdicts):
    assert_sound_and_decided(verdicts)


def test_cap_witness_decides_the_rest(verdicts):
    # every input left open by steps 1-5 is refuted by the cap witness, at a
    # shift between lambda2 and the largest diagonal entry
    cap = [(A, v) for A, v in verdicts if v.witness and "vertex" in v.witness.data]
    assert len(cap) > 100
    for A, v in cap:
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        lam2 = float(np.linalg.eigvalsh(A.a)[1])
        assert lam2 < w.data["c"] < float(A.a.diagonal().max())
        assert A.a[w.data["vertex"], w.data["vertex"]] > w.data["c"]


def test_census():
    verdicts = certified(census())
    assert_sound_and_decided(verdicts)
    assert sum(v.status is Status.CERTIFIED_QUASICONVEX for _, v in verdicts) == 855


@pytest.mark.parametrize("seed", [5, 9])
def test_tied_maxima(seed):
    verdicts = certified(tied(seed))
    assert_sound_and_decided(verdicts)
    assert sum("vertex" in v.witness.data for _, v in verdicts if v.witness) > 50


def test_invariance_on_edge_inputs(verdicts):
    # criterion 5 of the acceptance suite mostly stops at the Z-pattern step;
    # these inputs reach the cap witness
    cap = [A for A, v in verdicts if v.witness and "vertex" in v.witness.data]
    rng = np.random.default_rng(11)
    for A in cap[::6]:
        variants = [SymMatrix(A.a + c * np.eye(A.n)) for c in (-1.0, 2.0)]
        variants += [SymMatrix(s * A.a) for s in (0.1, 10.0)]
        p = rng.permutation(A.n)
        variants.append(SymMatrix(A.a[np.ix_(p, p)]))
        for B in variants:
            v = certify(B)
            assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
            assert "vertex" in v.witness.data
            assert verify_witness(B, v.witness)
