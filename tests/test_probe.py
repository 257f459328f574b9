import numpy as np
import pytest

from quadsphere.certify import Status, WitnessKind, certify, verify_witness
from quadsphere.config import Config
from quadsphere.genex import make_householder
from quadsphere.linalg import SymMatrix
from quadsphere.probe import (
    MinMethod,
    falsify,
    minimize_orthant,
    _descent,
)
from quadsphere.sphere import sample_orthant_array

from oracles import grid_min_quadratic


def sym(rows):
    return SymMatrix(np.array(rows, dtype=float))


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
        A = SymMatrix(np.diag([-1.0, 1.0, 1.0]))
        res = minimize_orthant(A, Config(max_exact_dim=2))
        assert res.method is MinMethod.GEODESIC_DESCENT
        assert res.value == pytest.approx(-1.0, abs=1e-6)
        assert res.iterations >= 1

    def test_descent_matches_exact(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            raw = 2.0 * rng.random((4, 4)) - 1.0
            A = SymMatrix((raw + raw.T) / 2.0)
            exact = minimize_orthant(A).value
            approx = minimize_orthant(A, Config(max_exact_dim=3)).value
            assert approx == pytest.approx(exact, abs=1e-6)

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
            _, x, _, _, trajectory = _descent(a, x0)
            assert all(b <= s + 1e-15 for s, b in zip(trajectory, trajectory[1:]))
            assert float(x.min()) >= 0.0
            assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_stationary_start(self):
        a = np.diag([-1.0, 1.0, 1.0])
        value, x, _, _, _ = _descent(a, np.array([1.0, 0.0, 0.0]))
        assert value == pytest.approx(-1.0)
        np.testing.assert_allclose(x, [1.0, 0.0, 0.0])


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
            values = [_descent(A.a, x0)[0] for x0 in starts]
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
