import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadsphere import probe
from quadsphere.certify import (
    Status,
    Witness,
    WitnessKind,
    certify,
    pair_violation_margin,
    verify_witness,
)
from quadsphere.cli import _jsonable
from quadsphere.cones import _perron_pair, enumeration_cap, pareto_spectrum
from quadsphere.config import Config
from quadsphere.genex import make_householder
from quadsphere.linalg import SymMatrix, eigen_decompose
from quadsphere.probe import (
    MinMethod,
    falsify,
    minimize_orthant,
    _descent,
)
from quadsphere.sphere import SpherePoint, sample_orthant_array

from oracles import (
    GeodesicSegment,
    geodesic_eval,
    grid_min_quadratic,
    reference_descent,
)


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


def least_eigenvector_fits(a, tol=1e-10):
    """Whether the least eigenvector of ``a``, with either sign, is
    nonnegative up to ``tol``."""
    v = np.linalg.eigh(a)[1][:, 0]
    return bool(v.min() >= -tol or v.max() <= tol)


class TestFalsify:
    def test_finds_offdiagonal_violation(self):
        rep = falsify(sym([[0.0, 1.0], [1.0, 0.0]]), samples=2_000, seed=0)
        assert rep.witness is not None
        assert rep.best_margin > 1e-8
        assert verify_witness(sym([[0.0, 1.0], [1.0, 0.0]]), rep.witness)

    def test_finds_diag_violation(self):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        rep = falsify(A, samples=5_000, seed=0)
        assert rep.witness is not None
        assert verify_witness(A, rep.witness)

    def test_quiet_on_quasiconvex(self):
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        rep = falsify(A, samples=10_000, seed=0)
        assert rep.witness is None
        assert rep.best_margin <= 1e-8

    def test_quiet_on_householder(self):
        rep = falsify(make_householder([1.0, 1.0, 1.0, 1.0]), samples=10_000, seed=1)
        assert rep.witness is None

    def test_witness_iff_margin(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = 2.0 * rng.random((3, 3)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            rep = falsify(A, samples=2_000, seed=0)
            assert (rep.witness is not None) == (rep.best_margin > 1e-8)

    def test_deterministic(self):
        A = sym([[0.0, 0.5], [0.5, -1.0]])
        r1 = falsify(A, samples=3_000, seed=42)
        r2 = falsify(A, samples=3_000, seed=42)
        assert r1.best_margin == r2.best_margin
        assert r1.samples_used == r2.samples_used == 3_000
        assert r1.seed == 42

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            falsify(SymMatrix(np.eye(2)), samples=0, seed=0)


class TestMinimize:
    def test_exact_diag(self):
        res = minimize_orthant(SymMatrix(np.diag([-1.0, 1.0, 1.0])))
        assert res.method is MinMethod.EXACT_PARETO
        assert res.value == pytest.approx(-1.0)
        np.testing.assert_allclose(res.argmin.coords, [1.0, 0.0, 0.0], atol=1e-9)

    def test_exact_coupled(self):
        res = minimize_orthant(sym([[0.0, -1.0], [-1.0, 0.0]]))
        assert res.value == pytest.approx(-1.0)
        np.testing.assert_allclose(
            res.argmin.coords, np.full(2, 1.0 / np.sqrt(2.0)), atol=1e-8
        )

    def test_matches_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            raw = 2.0 * (2.0 * rng.random((3, 3)) - 1.0)
            A = SymMatrix((raw + raw.T) / 2.0)
            gmin, _ = grid_min_quadratic(A.a, steps=80)
            res = minimize_orthant(A)
            assert res.value <= gmin + 1e-9
            assert res.value >= gmin - 5e-3

    def test_descent_fallback(self):
        # the least eigenvector (0, 1, -1)/sqrt(2) of this matrix leaves the
        # orthant, so past the cap the descent answers; the minimum -1 is
        # at e_1
        A = sym([[-1.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
        res = minimize_orthant(A, Config(max_exact_dim=2))
        assert res.method is MinMethod.GEODESIC_DESCENT
        assert res.value == pytest.approx(-1.0, abs=1e-6)
        assert res.iterations >= 1
        # diag(-1, 1, 1) has e_1 as its least eigenvector: the Perron screen
        # answers past the cap, no worse than any descent start
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        res = minimize_orthant(A, Config(max_exact_dim=2))
        assert res.method is MinMethod.EXACT_PARETO
        starts = sample_orthant_array(A.n, 8, np.random.default_rng(0))
        bound = TestDescent.REFERENCE_BOUND * max(1.0, A.norm_fro())
        for x0 in starts:
            assert res.value <= reference_descent(A.a, x0)[0] + bound

    def test_descent_matches_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            exact = minimize_orthant(A).value
            approx = minimize_orthant(A, Config(max_exact_dim=3)).value
            assert approx == pytest.approx(exact, abs=1e-6)

    @staticmethod
    def z_matrix(rng, n):
        """Seeded Z-matrix with every off-diagonal entry negative, so
        irreducible: its least eigenvector is positive."""
        off = -rng.uniform(0.01, 1.0, (n, n))
        a = (off + off.T) / 2.0
        np.fill_diagonal(a, 2.0 * rng.standard_normal(n))
        return SymMatrix(a)

    def test_perron_screen_at_and_past_cap(self):
        rng = np.random.default_rng(17)
        cases = [(n, Config()) for n in (16, 17, 19, 40)]
        cases += [(n, Config(max_exact_dim=4)) for n in (4, 5, 9)]
        for n, config in cases:
            A = self.z_matrix(rng, n)
            res = minimize_orthant(A, config)
            assert res.method is MinMethod.EXACT_PARETO
            # at or below the cap the screen reads eigh's lambda1, past it
            # eigvalsh's
            if n > config.max_exact_dim:
                least = np.linalg.eigvalsh(A.a)[0]
            else:
                least = np.linalg.eigh(A.a)[0][0]
            assert res.value == float(least)
            x = res.argmin.coords
            assert float(x.min()) >= 0.0
            assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
            assert res.iterations == 0

    def test_perron_screen_matches_enumeration(self):
        # below the cap the screen's report is the enumeration's, byte for
        # byte, on irreducible Z-matrices: dense ones and tridiagonal chains
        rng = np.random.default_rng(18)
        corpus = []
        for n in range(1, 13):
            corpus += [self.z_matrix(rng, n) for _ in range(4)]
            chain = np.diag(rng.standard_normal(n))
            link = -rng.uniform(0.1, 1.0, n - 1)
            corpus.append(SymMatrix(chain + np.diag(link, 1) + np.diag(link, -1)))
        for A in corpus:
            least = pareto_spectrum(A).pairs[0]
            enumerated = probe.MinResult(
                value=least.value,
                argmin=SpherePoint(least.vector),
                method=MinMethod.EXACT_PARETO,
                iterations=0,
            )
            assert report_bytes(minimize_orthant(A)) == report_bytes(enumerated), A

    @staticmethod
    def screen_corpus():
        """(family, A, config) past the cap: seeded dense and sparse
        Z-matrices, block-diagonal Z-matrices with tied or nearly tied
        (gap 1e-12 to 1e-4) component minima, their coordinates shuffled,
        A = 0 and cI, and dense, PSD and entrywise-nonnegative matrices; half
        at n 17-40 under the default cap, half at n 5-12 under cap 4."""
        rng = np.random.default_rng(30)

        def z(n, density=1.0):
            off = -rng.uniform(0.01, 1.0, (n, n)) * (rng.random((n, n)) < density)
            a = np.triu(off, 1)
            return a + a.T + np.diag(2.0 * rng.standard_normal(n))

        def blocks(n, gap):
            b = z(n // 2)
            c = b if gap is None else z(n - n // 2)
            if gap is not None:
                shift = np.linalg.eigvalsh(b)[0] - np.linalg.eigvalsh(c)[0] + gap
                c = c + shift * np.eye(c.shape[0])
            a = np.zeros((n, n))
            a[: b.shape[0], : b.shape[0]] = b
            a[n - c.shape[0]:, n - c.shape[0]:] = c[::-1, ::-1]
            if gap is None and n % 2:
                a[n // 2, n // 2] = 10.0  # the middle index between the blocks
            p = rng.permutation(n)
            return a[np.ix_(p, p)]

        def dense(n):
            raw = rng.standard_normal((n, n))
            return (raw + raw.T) / 2.0

        def psd(n):
            g = rng.standard_normal((n, n))
            return g @ g.T / n

        families = {
            "z-dense": z,
            "z-sparse": lambda n: z(n, 0.15),
            "tied": lambda n: blocks(n, None),
            "near-tie": lambda n: blocks(n, 10.0 ** rng.uniform(-12, -4)),
            "scalar": lambda n: float(rng.choice([0.0, -3.0, 1e-7, 1e7])) * np.eye(n),
            "dense": dense,
            "psd": psd,
            "nonneg": lambda n: np.abs(dense(n)),
        }
        for family, make in families.items():
            for i in range(12):
                if i % 2:
                    n, config = int(rng.integers(17, 41)), Config()
                else:
                    n, config = int(rng.integers(5, 13)), Config(max_exact_dim=4)
                yield family, SymMatrix(make(n)), config

    def test_perron_screen_past_cap_corpus(self):
        # past the cap the screen takes lambda1 from eigvalsh and its vector
        # from one shifted solve; it must fire wherever the eigh column did,
        # and on every Z-matrix, where (A - sigma I)^-1 >= 0 for sigma below
        # lambda1 (an M-matrix inverse), ties among the component minima too
        gained = 0
        for family, A, config in self.screen_corpus():
            lam1, x = _perron_pair(A, config)
            assert lam1 == float(np.linalg.eigvalsh(A.a)[0])
            # the screen as it was at every n: eigen_decompose's first pair
            E = eigen_decompose(A)
            v = E.vectors[:, 0]
            reference = v.min() >= -config.tol_sign and (
                v.min() >= 0.0
                or A.quad(SpherePoint(np.maximum(v, 0.0)).coords) - E.eigenvalues[0]
                <= config.tol_slack * A.norm_fro()
            )
            if reference or family in ("z-dense", "z-sparse", "tied", "near-tie", "scalar"):
                assert x is not None, (family, A)
            if x is not None:
                gained += not reference
                c = x.coords
                assert float(c.min()) >= 0.0
                assert abs(float(np.linalg.norm(c)) - 1.0) <= 1e-12
                assert A.quad(c) - lam1 <= config.tol_slack * A.norm_fro()
            if x is not None and A.n > enumeration_cap(config):
                # the solved vector in its first array form, bit for bit
                w, eps = np.linalg.eigvalsh(A.a), np.finfo(float).eps
                d = max(4.0 * A.n * eps * max(-w[0], w[-1]), np.finfo(float).tiny)
                u = np.linalg.solve(A.a - (w[0] - d) * np.eye(A.n), np.full(A.n, d))
                u = u / np.linalg.norm(u)
                u = np.maximum(-u if u[np.argmax(np.abs(u))] < 0.0 else u, 0.0)
                assert c.tobytes() == (u / np.linalg.norm(u)).tobytes()
        # the eigh column of a tied lambda1 can mix the blocks' signs
        assert gained > 0

    def test_perron_screen_exact_at_zero_slack(self):
        # at tol_slack = 0 only the n eps ||A||_F round-off term is left
        # between q(x) and lambda1: it must still fire on every irreducible
        # Z-matrix past the cap (without that term round-off alone declined
        # about a third of these)
        rng = np.random.default_rng(31)
        config = Config(tol_slack=0.0)
        for _ in range(200):
            A = self.z_matrix(rng, int(rng.integers(17, 65)))
            lam1, x = _perron_pair(A, config)
            assert x is not None, A
            assert lam1 == float(np.linalg.eigvalsh(A.a)[0])
            assert A.quad(x.coords) - lam1 <= A.n * np.finfo(float).eps * A.norm_fro()

    def test_perron_screen_claims_only_what_it_attains(self):
        # at tol_sign = 0.8 the least eigenvector (0, 1, -1)/sqrt(2) passes
        # the orientation test, but clipped to e_2 it gives q = 1, not
        # lambda1 = -2; the enumeration answers, -1 at e_1
        A = sym([[-1.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
        res = minimize_orthant(A, Config(tol_sign=0.8))
        assert res.method is MinMethod.EXACT_PARETO
        assert res.value == -1.0
        np.testing.assert_array_equal(res.argmin.coords, [1.0, 0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(
        tol_sign=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**16),
        n=st.integers(2, 6),
    )
    def test_value_is_attained_at_any_tol_sign(self, tol_sign, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, n))
        A = SymMatrix((raw + raw.T) / 2.0)
        config = Config(tol_sign=tol_sign)
        res = minimize_orthant(A, config)
        norm = A.norm_fro()
        slack = config.tol_slack * min(1.0, norm) + 1e-12 * max(1.0, norm)
        assert abs(A.quad(res.argmin.coords) - res.value) <= slack

    def test_argmin_in_orthant(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            res = minimize_orthant(A)
            assert float(res.argmin.coords.min()) >= -1e-10
            q = float(res.argmin.coords @ A.a @ res.argmin.coords)
            assert abs(q - res.value) <= 1e-9


class TestDescent:
    def test_trajectory_monotone(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            raw = 2.0 * rng.random((5, 5)) - 1.0
            a = (raw + raw.T) / 2.0
            x0 = np.abs(rng.standard_normal(5))
            _, X, _, _, trajectory = _descent(a, x0[None])
            x, trajectory = X[0], trajectory[:, 0]
            assert all(b <= s + 1e-15 for s, b in zip(trajectory, trajectory[1:]))
            assert float(x.min()) >= 0.0
            assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_stationary_start(self):
        a = np.diag([-1.0, 1.0, 1.0])
        values, X, _, _, _ = _descent(a, np.array([[1.0, 0.0, 0.0]]))
        assert values[0] == pytest.approx(-1.0)
        np.testing.assert_allclose(X[0], [1.0, 0.0, 0.0])

    # the stacked descent sums in other orders than the one-start loop, which
    # moves its stop by a few iterations but its minimum by no more than the
    # descent's own step floor, relative to max(1, ||A||_F)
    REFERENCE_BOUND = 1e-10

    @staticmethod
    def reference_corpus():
        """Seeded dense, Z and diagonal matrices at n 3-64, 8 starts each."""
        rng = np.random.default_rng(15)
        for n in (3, 5, 8, 13, 21, 34, 64):
            raw = 2.0 * rng.random((n, n)) - 1.0
            off = -rng.random((n, n))
            z = (off + off.T) / 2.0
            np.fill_diagonal(z, 2.0 * rng.standard_normal(n))
            for a in ((raw + raw.T) / 2.0, z, np.diag(rng.standard_normal(n))):
                yield a, sample_orthant_array(n, 8, rng)

    def test_matches_reference_loop(self):
        descended = 0
        for a, starts in self.reference_corpus():
            bound = self.REFERENCE_BOUND * max(1.0, float(np.linalg.norm(a)))
            values = _descent(a, starts)[0]
            ref = [reference_descent(a, x0)[0] for x0 in starts]
            assert np.abs(values - ref).max() <= bound

            # minimize_orthant past the cap: its seeded starts, its best.
            # Where the least eigenvector fits the orthant (the Z and
            # diagonal matrices, and the dense one at n = 3) the Perron
            # screen answers, no worse than any start; elsewhere the descent
            A = SymMatrix(a)
            res = minimize_orthant(A, Config(max_exact_dim=2))
            seeded = sample_orthant_array(A.n, 8, np.random.default_rng(0))
            best = min(reference_descent(a, x0)[0] for x0 in seeded)
            if least_eigenvector_fits(a):
                assert res.method is MinMethod.EXACT_PARETO
                assert res.value <= best + bound
            else:
                descended += 1
                assert res.method is MinMethod.GEODESIC_DESCENT
                assert abs(res.value - best) <= bound
            x = res.argmin.coords
            assert float(x.min()) >= 0.0
            assert abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
            assert abs(res.value - float(x @ a @ x)) <= 1e-12
        # the dense matrices at n = 5 ... 64
        assert descended == 6


    def test_power_of_two_scale(self):
        # the step sizes scale with 1/||A||_F, so on 2^k A every trial is A's
        # scaled by 2^k: the same iterations, argmin and value / 2^k, bit for
        # bit.  At t = 1e-3 the first step of 1 made the n = 20 input take
        # over 4,000 iterations
        rng = np.random.default_rng(5)
        for n in (20, 40):
            raw = rng.standard_normal((n, n))
            a = (raw + raw.T) / 2.0
            base = minimize_orthant(SymMatrix(a))
            assert base.method is MinMethod.GEODESIC_DESCENT
            assert base.iterations < 100
            for t in (2.0**-10, 2.0**10):
                res = minimize_orthant(SymMatrix(t * a))
                assert res.iterations == base.iterations
                assert (res.value / t).hex() == base.value.hex()
                assert res.argmin.coords.tobytes() == base.argmin.coords.tobytes()


class TestLocalGlobal:
    def test_certified_instances_agree(self):
        # on a certified-Yes input a strict local minimum is global, so every
        # descent start reaches the same value
        for A in (
            SymMatrix(np.diag([-1.0, 1.0, 1.0])),
            make_householder([1.0, 1.0, 1.0]),
        ):
            v = certify(A, Config(samples=2_000))
            assert v.status is Status.CERTIFIED_QUASICONVEX
            starts = sample_orthant_array(A.n, 8, np.random.default_rng(0))
            values = _descent(A.a, starts)[0]
            assert max(values) - min(values) <= 1e-6


class TestWitnessForms:
    def test_geodesic_witness_is_cone_form(self):
        # on a falsifiable instance every emitted witness is one of the two
        # re-checkable shapes
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(30):
            raw = 2.0 * rng.random((3, 3)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            rep = falsify(A, samples=2_000, seed=0)
            if rep.witness is not None:
                seen.add(rep.witness.kind)
                assert rep.witness.kind in (
                    WitnessKind.PAIR_VIOLATION,
                    WitnessKind.CONE_NONCONVEXITY,
                )
        assert seen  # at least one falsifiable draw in the batch


def orthant_pairs(rng, n, count):
    """Seeded unit orthant pairs; the second half are near-parallel."""
    X = sample_orthant_array(n, count, rng)
    Y = sample_orthant_array(n, count, rng)
    near = X + 1e-3 * np.abs(rng.standard_normal(X.shape))
    Y[count // 2 :] = (near / np.linalg.norm(near, axis=1, keepdims=True))[count // 2 :]
    return X, Y


class TestMarginsKernel:
    """``probe._margins`` against an independent computation per column."""

    def test_columns_match_oracle(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            raw = 3.0 * rng.standard_normal((n, n))
            A = sym((raw + raw.T) / 2.0)
            tol = 1e-12 * max(1.0, float(np.linalg.norm(A.a, 2)))
            X, Y = orthant_pairs(rng, n, 40)

            def q(v):
                return float(v @ A.a @ v)

            cols = [probe._PAIR, probe._GEODESIC, probe._MIDPOINT, probe._C]
            for row, x, y in zip(probe._margins(A.a, X, Y), X, Y):
                c = max(q(x), q(y))
                seg = GeodesicSegment.connect(x, y)
                ts = probe._GEODESIC_TS
                geo = max(q(geodesic_eval(seg, t).coords) - c for t in ts)
                s = x + y
                mid = float(s @ (A.a - c * np.eye(n)) @ s)
                expected = [pair_violation_margin(A, x, y), geo, mid, c]
                np.testing.assert_allclose(row[cols], expected, rtol=0.0, atol=tol)

    def test_parallel_pairs_have_no_geodesic(self):
        X = sample_orthant_array(4, 50, np.random.default_rng(3))
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        for Y in (X, -X):
            rows = probe._margins(a, X, Y)
            assert np.all(rows[:, probe._GEODESIC] == -np.inf)
            assert np.all(rows[:, [probe._ALPHA, probe._BETA]] == 0.0)

    def test_geodesic_coefficients_give_a_witness(self):
        A = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        X, Y = orthant_pairs(np.random.default_rng(9), 3, 400)
        rows = probe._margins(A.a, X, Y)
        hits = np.flatnonzero(rows[:, probe._GEODESIC] > 1e-6)
        assert hits.size > 0
        for i in hits:
            alpha, beta, c = rows[i, [probe._ALPHA, probe._BETA, probe._C]]
            w = Witness(
                kind=WitnessKind.CONE_NONCONVEXITY,
                data={"c": c, "x": alpha * X[i], "y": beta * Y[i]},
                margin=rows[i, probe._GEODESIC],
            )
            assert verify_witness(A, w)


def report_bytes(report):
    return json.dumps(_jsonable(report), sort_keys=True)


class TestBlockedSampling:
    A = SymMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))

    @staticmethod
    def spy(monkeypatch):
        counts = []

        def sample(n, count, rng):
            counts.append(count)
            return sample_orthant_array(n, count, rng)

        monkeypatch.setattr(probe, "sample_orthant_array", sample)
        return counts

    def test_one_block_draws_one_x_and_one_y(self, monkeypatch):
        reference = falsify(self.A, samples=1_000, seed=4)
        # 6,000 entries at n = 6: blocks of 1,000 rows
        monkeypatch.setattr(probe, "_BLOCK_ENTRIES", 6_000)
        counts = self.spy(monkeypatch)
        rep = falsify(self.A, samples=1_000, seed=4)
        assert counts == [1_000, 1_000]
        assert report_bytes(rep) == report_bytes(reference)

    def test_ten_blocks(self, monkeypatch):
        monkeypatch.setattr(probe, "_BLOCK_ENTRIES", 6_000)
        counts = self.spy(monkeypatch)
        r1 = falsify(self.A, samples=9_500, seed=4)
        assert counts == [1_000] * 18 + [500, 500]
        r2 = falsify(self.A, samples=9_500, seed=4)
        assert report_bytes(r1) == report_bytes(r2)
        assert r1.samples_used == 9_500
        assert r1.witness is not None
        assert verify_witness(self.A, r1.witness)

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        monkeypatch.setattr(probe, "_BLOCK_ENTRIES", 6_000)

        def peak(samples):
            tracemalloc.start()
            try:
                falsify(self.A, samples=samples, seed=4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(1_000)
        assert peak(10_000) <= 2 * one

    def test_row_limit_caps_small_n(self, monkeypatch):
        # at n = 6 the entry budget allows more rows than _BLOCK
        monkeypatch.setattr(probe, "_BLOCK", 1_000)
        counts = self.spy(monkeypatch)
        falsify(self.A, samples=2_500, seed=4)
        assert counts == [1_000, 1_000, 1_000, 1_000, 500, 500]

    def test_peak_memory_at_n64(self):
        # 2^16 samples at n = 64 are two blocks of 2^21 / 64 = 2^15 rows; an
        # X and a Y block hold 2 * 2^21 doubles (32 MiB), and the kernel's
        # temporaries stay within a few times that.  One 2^16-row block
        # would peak near 160 MiB.
        A = SymMatrix(np.diag(np.linspace(0.0, 1.0, 64)))
        tracemalloc.start()
        try:
            falsify(A, samples=2**16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (2 * probe._BLOCK_ENTRIES * 8)
