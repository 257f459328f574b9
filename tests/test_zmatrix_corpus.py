"""Seeded soundness corpus of random Z-matrices.

For a Z-matrix the paper's sufficient condition (copositivity of
lambda2 I - A) reduces to lambda2 >= max a_ii; its necessity is conjectured,
and the edge witness supplies the No side.  Whatever the conjecture's fate,
every Yes here must satisfy the condition, every No must carry a witness that
verify_witness accepts, and no input may be left Unknown.
"""

import numpy as np
import pytest

from quadsphere.certify import Status, WitnessKind, certify, verify_witness
from quadsphere.config import Config
from quadsphere.linalg import SymMatrix

CFG = Config(samples=20_000)


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


@pytest.fixture(scope="module")
def verdicts():
    return [(A, certify(A, CFG)) for A in corpus()]


def test_sound_and_decided(verdicts):
    for A, v in verdicts:
        lam2 = float(np.linalg.eigvalsh(A.a)[1])
        if v.status is Status.CERTIFIED_QUASICONVEX:
            assert lam2 >= float(A.a.diagonal().max()) - 1e-9
        assert v.status is not Status.UNKNOWN
        if v.status is Status.CERTIFIED_NOT_QUASICONVEX:
            assert verify_witness(A, v.witness, CFG)


def test_edge_witness_decides_the_rest(verdicts):
    # every input left open by steps 1-6 is refuted by the edge witness, at a
    # shift between lambda2 and the largest diagonal entry
    edge = [(A, v) for A, v in verdicts if v.witness and "vertex" in v.witness.data]
    assert len(edge) > 100
    for A, v in edge:
        w = v.witness
        assert w.kind is WitnessKind.CONE_NONCONVEXITY
        lam2 = float(np.linalg.eigvalsh(A.a)[1])
        assert lam2 < w.data["c"] < float(A.a.diagonal().max())
        assert A.a[w.data["vertex"], w.data["vertex"]] > w.data["c"]


def test_invariance_on_edge_inputs(verdicts):
    # criterion 5 of the acceptance suite mostly stops at the Z-pattern step;
    # these inputs reach the edge witness
    edge = [A for A, v in verdicts if v.witness and "vertex" in v.witness.data]
    rng = np.random.default_rng(11)
    for A in edge[::6]:
        variants = [SymMatrix(A.a + c * np.eye(A.n)) for c in (-1.0, 2.0)]
        variants += [SymMatrix(s * A.a) for s in (0.1, 10.0)]
        p = rng.permutation(A.n)
        variants.append(SymMatrix(A.a[np.ix_(p, p)]))
        for B in variants:
            v = certify(B, CFG)
            assert v.status is Status.CERTIFIED_NOT_QUASICONVEX
            assert "vertex" in v.witness.data
            assert verify_witness(B, v.witness, CFG)
