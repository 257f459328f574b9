"""Metamorphic soundness corpus: shift, scale and permutation.

On the orthant patch q_{tA + sI} = t q_A + s for t > 0, and a simultaneous
permutation of the coordinates maps the patch onto itself, so certify(A),
certify(tA + sI) and certify(P A P^T) must not contradict each other.  The
corpus mixes seeded dense, Z, tied-maximum, tolerance-band, three-eigenvalue,
negative-positive and exactly diagonal inputs of size 2-7.  For every
transform:

- no transform of an input refuted at unit scale gets a Yes;
- every No carries a witness that verify_witness accepts on its own matrix;
- under t and s, Z, dense and diagonal inputs keep their unit-scale status;
- under the permutation, every input keeps its status.

The cone functions (pareto_spectrum, is_copositive, minimize_orthant) are
checked under the scale t alone, on the corpus and on lambda2 I - A.
"""

import numpy as np
import pytest

from quadsphere.certify import Status, certify, verify_witness
from quadsphere.cones import _perron_pair, is_copositive, pareto_spectrum
from quadsphere.config import Config
from quadsphere.genex import make_negative_positive, make_three_eigenvalue
from quadsphere.linalg import SymMatrix, centred
from quadsphere.probe import MinMethod, minimize_orthant

CFG = Config()
SCALES = (1e-9, 1.0, 1e9)
# shifts as multiples of ||tA||_F
SHIFTS = (0.0, 1e8, -1e8)


def _z(rng, n):
    off = -rng.random((n, n))
    if rng.random() < 0.5:
        off *= rng.random((n, n)) < 0.4
    a = np.triu(off, 1)
    a = a + a.T
    np.fill_diagonal(a, rng.standard_normal(n))
    return a


def _dense(rng, n):
    raw = rng.standard_normal((n, n))
    return (raw + raw.T) / 2.0


def _tied(rng, n):
    """Off-diagonal entries in {0, -1, -2}; diagonal entries below m, then
    2 to n - 1 of them set to the maximum m in {1, 2}."""
    n = max(n, 3)
    a = np.triu(-rng.integers(0, 3, (n, n)).astype(float), 1)
    a = a + a.T
    m = int(rng.integers(1, 3))
    d = rng.integers(-3, m, n).astype(float)
    d[rng.choice(n, int(rng.integers(2, n)), replace=False)] = m
    np.fill_diagonal(a, d)
    return a


def _band(rng, n):
    """A Z-matrix with one off-diagonal entry raised into the tolerance
    band (0, tol_margin sigma]."""
    a = _z(rng, n)
    i, j = rng.choice(n, 2, replace=False)
    a[i, j] = a[j, i] = 0.0
    sigma = centred(SymMatrix(a))[2]
    a[i, j] = a[j, i] = float(rng.choice([1e-12, 1e-10, 1e-9, 5e-9])) * sigma
    return a


def _three_eigenvalue(rng, n):
    lam, nu = np.sort(rng.uniform(-2.0, 2.0, 2))
    mu = (lam + nu) / 2.0 + rng.uniform(0.01, 0.49) * (nu - lam)
    return make_three_eigenvalue(max(n, 3), lam, mu, nu).a


def _negative_positive(rng, n):
    return make_negative_positive(n, int(rng.integers(0, 2**16))).a


def _diagonal(rng, n):
    """An exactly diagonal matrix: Gaussian entries, integer ties, or a
    constant with one lower entry."""
    form = int(rng.integers(0, 3))
    if form == 0:
        d = rng.standard_normal(n)
    elif form == 1:
        d = rng.integers(-2, 3, n).astype(float)
    else:
        d = np.full(n, rng.standard_normal())
        d[rng.integers(0, n)] -= rng.uniform(0.1, 2.0)
    return np.diag(d)


# new kinds go last: the inputs and permutations of the earlier ones stay
KINDS = {
    "z": _z,
    "dense": _dense,
    "tied": _tied,
    "band": _band,
    "three-eigenvalue": _three_eigenvalue,
    "negative-positive": _negative_positive,
    "diagonal": _diagonal,
}


def corpus(seed=2031, per_kind=40):
    """(kind, A) pairs, ``per_kind`` of each kind, sizes 2-7."""
    rng = np.random.default_rng(seed)
    return [
        (kind, SymMatrix(make(rng, int(rng.integers(2, 8)))))
        for kind, make in KINDS.items()
        for _ in range(per_kind)
    ]


def transforms(A, rng):
    """(name, matrix) for every scale t and shift s, and one permutation."""
    for t in SCALES:
        tA = t * A.a
        norm = float(np.linalg.norm(tA))
        for s in SHIFTS:
            yield f"t={t:g} s={s:g}", SymMatrix(tA + s * norm * np.eye(A.n))
    p = rng.permutation(A.n)
    yield "permuted", SymMatrix(A.a[np.ix_(p, p)])


@pytest.fixture(scope="module")
def runs():
    rng = np.random.default_rng(7)
    out = []
    for kind, A in corpus():
        base = certify(A, CFG).status
        variants = [(name, M, certify(M, CFG)) for name, M in transforms(A, rng)]
        out.append((kind, A, base, variants))
    return out


def test_corpus_covers_every_verdict(runs):
    bases = [base for _, _, base, _ in runs]
    for status in Status:
        assert bases.count(status) >= 3, status


def test_refuted_inputs_never_get_a_yes(runs):
    for kind, A, base, variants in runs:
        if base is Status.CERTIFIED_NOT_QUASICONVEX:
            for name, _, v in variants:
                assert v.status is not Status.CERTIFIED_QUASICONVEX, (kind, name, A)


def test_every_no_verifies_on_its_own_matrix(runs):
    for kind, A, _, variants in runs:
        for name, M, v in variants:
            if v.status is Status.CERTIFIED_NOT_QUASICONVEX:
                assert verify_witness(M, v.witness, CFG), (kind, name, A)


def test_z_dense_and_diagonal_status_under_scale_and_shift(runs):
    for kind, A, base, variants in runs:
        if kind in ("z", "dense", "diagonal"):
            for name, _, v in variants:
                if name != "permuted":
                    assert v.status is base, (kind, name, A)


def test_status_under_permutation(runs):
    for kind, A, base, variants in runs:
        permuted = next(v for name, _, v in variants if name == "permuted")
        assert permuted.status is base, (kind, A)


def _cone_inputs():
    """The corpus and, for each input, lambda2 I - A, the matrix whose
    copositivity step 5 decides."""
    for kind, A in corpus():
        yield kind, A
        lam2 = float(np.linalg.eigvalsh(A.a)[1])
        yield kind, SymMatrix(lam2 * np.eye(A.n) - A.a)


def test_cone_commands_under_scale():
    # q_{tA} = t q_A: the minimum and the least Pareto value scale by t, the
    # argmin and the copositivity verdict stay.  minimize runs at and past
    # the cap (cap 3: sizes 4-7 take the Perron screen's shifted solve or
    # the descent).  Where the descent answers, its steps scale with
    # 1/||A||_F, so the screen declines and the value scales at every t; the
    # argmin is not compared there, as a flat minimum may end elsewhere
    verdicts = {True: 0, False: 0}
    past_cap = descended = 0
    for kind, A in _cone_inputs():
        norm = max(1.0, A.norm_fro())
        scaled = [(t, SymMatrix(t * A.a)) for t in SCALES]
        least = pareto_spectrum(A).min_value
        copositive = is_copositive(A)
        verdicts[copositive] += 1
        for t, tA in scaled:
            assert abs(pareto_spectrum(tA).min_value - t * least) <= 1e-12 * t * norm
            assert is_copositive(tA) is copositive, (kind, t, A)
        for config in (Config(), Config(max_exact_dim=3)):
            beyond = A.n > config.max_exact_dim
            base = minimize_orthant(A, config)
            if beyond and _perron_pair(A, config)[1] is None:
                descended += 1
                assert base.method is MinMethod.GEODESIC_DESCENT
                for t, tA in scaled:
                    assert _perron_pair(tA, config)[1] is None, (kind, t, A)
                    res = minimize_orthant(tA, config)
                    assert abs(res.value - t * base.value) <= 1e-12 * t * norm, (kind, t, A)
                continue
            assert base.method is MinMethod.EXACT_PARETO
            past_cap += beyond
            for t, tA in scaled:
                res = minimize_orthant(tA, config)
                assert res.method is MinMethod.EXACT_PARETO, (kind, t, A)
                assert abs(res.value - t * base.value) <= 1e-12 * t * norm
                np.testing.assert_allclose(
                    res.argmin.coords, base.argmin.coords, rtol=0.0, atol=1e-12
                )
    assert min(verdicts.values()) >= 20 and past_cap >= 100 and descended >= 20
