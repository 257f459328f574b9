import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import quadsphere
from quadsphere.cli import _jsonable, _render_text, main
from quadsphere.config import Config
from quadsphere.genex import make_householder, make_negative_positive
from quadsphere.matrixdoc import MatrixDocument, dumps, loads
from quadsphere.linalg import SymMatrix
from quadsphere.sphere import sample_orthant_array

from oracles import reference_descent


def write_doc(tmp_path, rows, name=None):
    path = tmp_path / "m.json"
    path.write_text(dumps(SymMatrix(np.array(rows, dtype=float)), name=name))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixDocument:
    def test_round_trip_bit_exact(self):
        a = np.array([[1.0 / 3.0, -0.1], [-0.1, np.pi]])
        A = SymMatrix((a + a.T) / 2.0)
        doc = loads(dumps(A, name="x"))
        assert doc.name == "x"
        assert doc.matrix.a.tobytes() == A.a.tobytes()

    def test_digest_stable(self):
        A = SymMatrix(np.eye(2))
        assert MatrixDocument(A).digest() == MatrixDocument(A).digest()
        B = SymMatrix(2.0 * np.eye(2))
        assert MatrixDocument(A).digest() != MatrixDocument(B).digest()

    def test_digest_is_sha256(self):
        # the interpreter's built-in SHA-256 gives hashlib's digest
        rng = np.random.default_rng(42)
        for n in (2, 3, 7, 12):
            raw = rng.standard_normal((n, n))
            doc = MatrixDocument(SymMatrix((raw + raw.T) / 2.0), name="x")
            payload = json.dumps({"n": n, "rows": doc.matrix.a.tolist()},
                                 separators=(",", ":"))
            assert doc.digest() == hashlib.sha256(payload.encode()).hexdigest()[:16]

    def test_immutable_and_keyword_built(self):
        A = SymMatrix(np.eye(2))
        doc = MatrixDocument(name="x", matrix=A)
        assert (doc.matrix, doc.name) == (A, "x")
        assert MatrixDocument(A).name is None
        for name in ("matrix", "name", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(doc, name, None)
        assert not hasattr(doc, "__dict__")

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            loads("not json")
        with pytest.raises(ValueError):
            loads("{}")
        with pytest.raises(ValueError):
            loads('{"n": 2, "rows": [[1.0]]}')
        with pytest.raises(ValueError, match="'n' must be an integer"):
            loads('{"n": true, "rows": [[1.0]]}')


class TestAnalyze:
    def test_yes_structured(self, tmp_path, capsys):
        path = write_doc(tmp_path, np.diag([-1.0, 1.0, 1.0]), name="gold")
        code, out, _ = run(capsys, "analyze", path, "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "analyze"
        assert report["name"] == "gold"
        assert report["verdict"]["status"] == "CertifiedQuasiconvex"
        assert report["verdict"]["certificate"]["rule"] == "DiagonalCharacterization"

    def test_no_with_witness(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
        code, out, _ = run(capsys, "analyze", path, "--format", "structured")
        assert code == 0  # a No verdict is payload, not a failure
        report = json.loads(out)
        assert report["verdict"]["status"] == "CertifiedNotQuasiconvex"
        assert report["verdict"]["witness"]["kind"] == "PairViolation"
        assert report["verdict"]["witness"]["margin"] == pytest.approx(1.0)

    def test_text_format(self, tmp_path, capsys):
        path = write_doc(tmp_path, np.diag([-1.0, 1.0, 1.0]))
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "CertifiedQuasiconvex" in out

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0.5, -0.25], [-0.25, 1.0]])
        args = ("analyze", path, "--format", "structured")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, tmp_path, capsys):
        path = write_doc(tmp_path, np.diag([-1.0, 1.0, 1.0]))
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "analyze", path, "--format", "structured", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["command"] == "analyze"


class TestOtherCommands:
    def test_pareto(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0.0, -1.0], [-1.0, 0.0]])
        code, out, _ = run(capsys, "pareto", path, "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["pareto"]["min_value"] == pytest.approx(-1.0)
        assert report["pareto"]["exact"] is True
        assert report["pareto"]["pairs"]

    def test_copositive(self, tmp_path, capsys):
        path = write_doc(tmp_path, np.eye(3))
        code, out, _ = run(capsys, "copositive", path, "--format", "structured")
        assert code == 0
        assert json.loads(out)["copositive"] is True

    def test_cone_commands_at_large_norm(self, tmp_path, capsys):
        # M = 1e6 (lambda2 I - a) for a band input: m_33 = -9.92e5, so e_3
        # refutes copositivity, and support {3} is a Pareto pair whose
        # off-support residual -9.5e-7 passes only a slack that scales with M
        a = np.array([[-0.6548, 0.0, 9.52e-13], [0.0, -0.3619, 0.0], [9.52e-13, 0.0, 0.6301]])
        m = 1e6 * (np.linalg.eigvalsh(a)[1] * np.eye(3) - a)
        path = write_doc(tmp_path, m)
        code, out, _ = run(capsys, "copositive", path, "--format", "structured")
        assert code == 0
        assert json.loads(out)["copositive"] is False
        code, out, _ = run(capsys, "pareto", path, "--format", "structured")
        assert code == 0
        assert json.loads(out)["pareto"]["min_value"] == pytest.approx(-9.92e5)

    def test_copositive_past_the_cap(self, tmp_path, capsys):
        # n = 24, positive diagonal, one block of five coupled by
        # -0.8 sqrt(d_i d_j): every 2x2 block is copositive, but the clipped
        # least eigenvector refutes it without walking a support
        rng = np.random.default_rng(24)
        d = rng.uniform(1.0, 2.0, 24)
        off = rng.uniform(-0.2, 1.0, (24, 24))
        a = (off + off.T) / 2.0
        block = np.ix_(range(5), range(5))
        a[block] = -0.8 * np.sqrt(np.outer(d[:5], d[:5]))
        np.fill_diagonal(a, d)
        path = write_doc(tmp_path, a)
        code, out, err = run(capsys, "copositive", path, "--format", "structured")
        assert code == 0, err
        assert json.loads(out)["copositive"] is False

    def test_minimize(self, tmp_path, capsys):
        path = write_doc(tmp_path, np.diag([-1.0, 1.0, 1.0]))
        code, out, _ = run(capsys, "minimize", path, "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["minimum"]["value"] == pytest.approx(-1.0)
        assert report["minimum"]["method"] == "ExactPareto"

    def test_probe(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[0.0, 1.0], [1.0, 0.0]])
        code, out, _ = run(
            capsys, "probe", path, "--format", "structured", "--samples", "2000"
        )
        assert code == 0
        report = json.loads(out)
        assert report["probe"]["best_margin"] > 1e-8
        assert report["probe"]["witness"] is not None

    def test_minimize_past_enumeration_limit(self, tmp_path, capsys):
        # max_exact_dim admits n = 19, the enumeration limit does not: on a
        # dense matrix, whose least eigenvector leaves the orthant, the
        # descent minimizer answers, as past max_exact_dim
        rng = np.random.default_rng(19)
        raw = rng.uniform(-1.0, 1.0, (19, 19))
        path = write_doc(tmp_path, (raw + raw.T) / 2.0)
        code, out, _ = run(
            capsys, "minimize", path, "--format", "structured", "--max-exact-dim", "40"
        )
        assert code == 0
        assert json.loads(out)["minimum"]["method"] == "GeodesicDescent"
        # diag(0, ..., 18) has e_1 as its least eigenvector: the Perron
        # screen answers, no worse than any of the descent's seeded starts
        a = np.diag(np.arange(19.0))
        path = write_doc(tmp_path, a)
        code, out, _ = run(
            capsys, "minimize", path, "--format", "structured", "--max-exact-dim", "40"
        )
        assert code == 0
        minimum = json.loads(out)["minimum"]
        assert minimum["method"] == "ExactPareto"
        starts = sample_orthant_array(19, 8, np.random.default_rng(0))
        bound = 1e-10 * max(1.0, float(np.linalg.norm(a)))
        for x0 in starts:
            assert minimum["value"] <= reference_descent(a, x0)[0] + bound


def _api_payload(command, A, cfg):
    """(report key, payload) of ``command``, built from the library API."""
    if command == "analyze":
        return "verdict", quadsphere.certify(A, cfg)
    if command == "pareto":
        spectrum = quadsphere.pareto_spectrum(A, cfg)
        pairs = [
            {"value": p.value, "vector": p.vector, "support": list(p.support)}
            for p in spectrum.pairs
        ]
        return "pareto", {
            "min_value": spectrum.min_value, "exact": spectrum.exact, "pairs": pairs,
        }
    if command == "copositive":
        return "copositive", quadsphere.is_copositive(A, cfg)
    if command == "minimize":
        res = quadsphere.minimize_orthant(A, cfg)
        return "minimum", {
            "value": res.value,
            "argmin": res.argmin.coords,
            "method": res.method,
            "iterations": res.iterations,
            "boundary_hit": res.boundary_hit,
        }
    return "probe", quadsphere.falsify(A, cfg.samples, cfg.seed, tol_margin=cfg.tol_margin)


class TestWholeReport:
    """Each matrix command prints the base fields, then its payload, and
    nothing else, in either format."""

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize(
        "command", ["analyze", "pareto", "copositive", "minimize", "probe"]
    )
    def test_report_equals_api(self, tmp_path, capsys, command, fmt):
        A = SymMatrix([[1.0, -0.2, 0.0], [-0.2, 2.0, -0.1], [0.0, -0.1, 3.0]])
        path = tmp_path / "m.json"
        path.write_text(dumps(A, name="z3"))
        code, out, err = run(
            capsys, command, str(path), "--format", fmt,
            "--samples", "3000", "--seed", "5", "--tol-margin", "1e-7",
        )
        assert (code, err) == (0, "")
        cfg = Config(tol_margin=1e-7, samples=3000, seed=5)
        key, payload = _api_payload(command, A, cfg)
        report = _jsonable({
            "command": command,
            "version": quadsphere.__version__,
            "input_digest": MatrixDocument(A, "z3").digest(),
            "config": cfg.as_dict(),
            "name": "z3",
            key: payload,
        })
        if fmt == "structured":
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            assert out == "\n".join(_render_text(report)) + "\n"


class TestGenerate:
    def test_round_trip(self, tmp_path, capsys):
        dest = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "generate", "three-eig", "--n", "3",
            "--eigs", "0,3,4", "--out", str(dest),
        )
        assert code == 0
        code, out, _ = run(capsys, "analyze", str(dest), "--format", "structured")
        assert code == 0
        assert json.loads(out)["verdict"]["status"] == "CertifiedQuasiconvex"

    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "householder", "--v", "1,1,1")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["rows"], (np.eye(3) - 2.0 / 3.0))

    def test_householder_large_v(self, capsys):
        code, out, _ = run(capsys, "generate", "householder", "--v", "1e200,1e200")
        assert code == 0
        assert json.loads(out)["rows"] == [[0.0, -1.0], [-1.0, 0.0]]

    def test_negative_positive_seeded(self, capsys):
        code, out1, _ = run(
            capsys, "generate", "negative-positive", "--n", "4", "--seed", "7"
        )
        assert code == 0
        code, out2, _ = run(
            capsys, "generate", "negative-positive", "--n", "4", "--seed", "7"
        )
        assert out1 == out2

    def test_negative_positive_past_n13(self, capsys):
        code, out, _ = run(capsys, "generate", "negative-positive", "--n", "14")
        assert code == 0
        assert json.loads(out)["n"] == 14

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "generate", "three-eig")
        assert code == 2
        assert "eigs" in err

    def test_positive_basis_n_from_eigs(self, capsys):
        eigs = ("--eigs", "0,1,1.01,1.02")
        code, out, _ = run(capsys, "generate", "positive-basis", *eigs)
        assert code == 0
        assert (code, out) == run(capsys, "generate", "positive-basis", "--n", "4", *eigs)[:2]
        code, _, err = run(capsys, "generate", "positive-basis", "--n", "3", *eigs)
        assert code == 2
        assert "expected 3 eigenvalues" in err

    @pytest.mark.parametrize("params", [
        ("three-eig", "--eigs", "0,1,inf"),
        ("positive-basis", "--n", "3", "--eigs", "0,inf,inf"),
        ("householder", "--v", "1,inf"),
    ])
    def test_nonfinite_parameters(self, capsys, params):
        # a numpy RuntimeWarning before the error would fail this test
        code, out, err = run(capsys, "generate", *params)
        assert (code, out) == (2, "")
        assert err == "error: generator parameters must be finite\n"


_GRID_NS = (0, 2, 3, 4, 7)
_GRID_VALUES = (0.0, 1.0, -1.0, 5e-324, 1e-300, -1e-300, 1e150, -1e150,
                1e308, -1e308, np.inf, -np.inf, np.nan)


def _draw(rng, count):
    """count values from _GRID_VALUES, ascending in about half the draws so
    that more of them pass the generators' ordering checks."""
    values = rng.choice(_GRID_VALUES, count)
    return np.sort(values) if rng.random() < 0.5 else values


def _csv(values):
    return ",".join(repr(float(x)) for x in values)


class TestGenerateGrid:
    """Seeded parameter draws for every family at n in _GRID_NS, with
    parameter lists of the right length and of a wrong one: each call exits
    0 or 2, and no warning escapes (pytest turns one into an error)."""

    def test_three_eig(self, capsys):
        finite = sorted(x for x in _GRID_VALUES if np.isfinite(x))
        triples = [list(t) for t in itertools.combinations(finite, 3)]
        rng = np.random.default_rng(1)
        triples += [_draw(rng, int(rng.choice([2, 3, 3, 4]))) for _ in range(40)]
        for k, eigs in enumerate(triples):
            n = _GRID_NS[k % len(_GRID_NS)]
            code, _, _ = run(capsys, "generate", "three-eig", "--n", str(n), f"--eigs={_csv(eigs)}")
            assert code in (0, 2)
            if code == 0:
                # every member meets the rule mu >= (lam + nu)/2 exactly
                lam, mu, nu = (Fraction(float(x)) for x in eigs)
                assert 2 * mu >= lam + nu, eigs

    def test_positive_basis(self, capsys):
        rng = np.random.default_rng(2)
        for n in _GRID_NS:
            for _ in range(12):
                count = n + int(rng.random() < 0.2)
                eigs = f"--eigs={_csv(_draw(rng, count))}"
                result = run(capsys, "generate", "positive-basis", "--n", str(n), eigs)
                assert result[0] in (0, 2)
                if count == n:
                    # without --n, n is the number of --eigs
                    assert run(capsys, "generate", "positive-basis", eigs) == result

    def test_householder(self, capsys):
        rng = np.random.default_rng(3)
        for n in _GRID_NS:
            for _ in range(12):
                v = _draw(rng, n)
                v = np.abs(v) if rng.random() < 0.5 else v
                assert run(capsys, "generate", "householder", f"--v={_csv(v)}")[0] in (0, 2)

    def test_diag_two_eig(self, capsys):
        rng = np.random.default_rng(4)
        for n in _GRID_NS:
            for _ in range(12):
                eigs = f"--eigs={_csv(_draw(rng, int(rng.choice([2, 2, 3]))))}"
                assert run(capsys, "generate", "diag-two-eig", "--n", str(n), eigs)[0] in (0, 2)

    def test_negative_positive(self, capsys):
        for n in _GRID_NS:
            for seed in range(3):
                code, _, _ = run(capsys, "generate", "negative-positive", "--n", str(n), "--seed", str(seed))
                assert code == (2 if n < 2 else 0)


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/m.json")
        assert code == 2
        assert err

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 2

    def test_too_small_matrix(self, tmp_path, capsys):
        path = write_doc(tmp_path, [[1.0]])
        code, _, _ = run(capsys, "analyze", path)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "--bogus")
        assert code == 2

    def test_help(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    @pytest.mark.parametrize("params", [
        ("three-eig", "--eigs", "0,2,3"),
        ("negative-positive",),
    ])
    def test_out_of_memory(self, capsys, params):
        # numpy refuses the 71 PiB n x n array at the first allocation
        code, out, err = run(capsys, "generate", *params, "--n", "100000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate")

    @pytest.mark.parametrize(
        "command", ["analyze", "pareto", "copositive", "minimize", "probe"]
    )
    def test_overflowing_entries(self, tmp_path, capsys, command):
        # (a + a^T)/2 and the Frobenius norm overflow to inf; accepting the
        # matrix used to certify it as a constant form with eigenvalue NaN
        path = tmp_path / "huge.json"
        path.write_text('{"n":2,"rows":[[1e308,-1e308],[-1e308,1e308]]}')
        code, out, err = run(capsys, command, str(path), "--samples", "100")
        assert code == 2
        assert out == ""
        assert "too large" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": "2", "rows": [[1.0, 0.0], [0.0, 1.0]]}',
            '{"n": true, "rows": [[1.0]]}',
            '{"n": 2.0, "rows": [[1.0, 0.0], [0.0, 1.0]]}',
        ],
    )
    def test_non_integer_n(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "'n' must be an integer" in err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"rows": 5}',
            '{"rows": [[1.0, {}], [0.0, 1.0]]}',
            # numpy converts numeric strings and booleans to floats
            '{"rows": [["1", "0"], ["0", "2"]]}',
            '{"rows": [[true, false], [false, true]]}',
            # an integer past the float range raised OverflowError
            '{"rows": [[1, 0], [0, 1' + "0" * 400 + ']]}',
        ],
    )
    def test_non_numeric_rows(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "'rows' must" in err

    def test_deeply_nested_document(self, tmp_path, capsys):
        # json.loads raises RecursionError, a RuntimeError, on this input;
        # it is a malformed document, not a numerical failure
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert out == ""
        assert "malformed matrix document" in err

    def test_eigensolver_failure(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError; it must not pass for an input error.
        # A diagonal input never reaches eigh, so this one is a Z-matrix
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        path = write_doc(tmp_path, np.array([[1.0, -1.0], [-1.0, 2.0]]))
        code, _, err = run(capsys, "analyze", path)
        assert code == 3
        assert "numerical failure" in err

    def test_eigvalsh_failure_past_the_cap(self, tmp_path, capsys, monkeypatch):
        # past the cap the Perron screen reads lambda1 from eigvalsh, whose
        # LinAlgError must end as a numerical failure too
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        off = -np.random.default_rng(20).uniform(0.01, 0.1, (20, 20))
        path = write_doc(tmp_path, off + off.T)
        code, out, err = run(capsys, "minimize", path)
        assert code == 3
        assert out == ""
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--tol-margin", "-1"),
            ("--tol-margin", "nan"),
            ("--tol-sign", "-0.5"),
            ("--tol-sign", "inf"),
            ("--samples", "0"),
            ("--seed", "-1"),
            ("--max-exact-dim", "-1"),
        ],
    )
    def test_invalid_config(self, tmp_path, capsys, flags):
        # diag(1, 2, 2) is quasi-convex; with tol_margin = -1 its zero-margin
        # pair (e_1, e_2) used to pass as a verified No witness, and with NaN
        # no witness could verify
        path = write_doc(tmp_path, np.diag([1.0, 2.0, 2.0]))
        code, out, err = run(capsys, "analyze", path, *flags)
        assert code == 2
        assert out == ""
        assert "must be" in err

    @pytest.mark.parametrize("command", ["pareto", "copositive"])
    def test_enumeration_limit(self, tmp_path, capsys, command):
        # 2^19 - 1 supports: an input error however high max_exact_dim is set.
        # No copositivity screen decides this matrix: it has a negative entry
        # off the diagonal, lambda1 = -1 and a least eigenvector
        # (1, -1, 0, ...)/sqrt(2), whose clipped halves give q = 1/2
        a = np.eye(19)
        a[0, 1] = a[1, 0] = 2.0
        a[2, 3] = a[3, 2] = -0.5
        path = write_doc(tmp_path, a)
        code, out, err = run(capsys, command, path, "--max-exact-dim", "40")
        assert code == 2
        assert out == ""
        assert "enumeration cap" in err


# JSON tokens that a careless writer could put where a number belongs
_ODD_TOKENS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
     '"1"', '"x"', "true", "false", "null", "[]", "{}", "[1.0]"]
)
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.integers(-10, 10).map(str),
)
_ODD_N = st.sampled_from(
    ["0", "-1", "2.0", "2.5", "1e400", '"2"', "true", "null", str(10**12),
     "1" + "0" * 400]
)


@st.composite
def _near_valid_documents(draw):
    """A square ``rows`` of numbers with at most one fault of each kind: an
    odd entry, a ragged row, an odd ``n``."""
    size = draw(st.integers(1, 4))
    rows = [
        draw(st.lists(_NUMBERS, min_size=size, max_size=size)) for _ in range(size)
    ]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        rows[i][j] = draw(_ODD_TOKENS)
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, size - 1))].append("1")
    n = draw(st.one_of(st.none(), st.none(), _ODD_N))
    head = "" if n is None else f'"n": {n}, '
    body = ",".join("[" + ",".join(r) + "]" for r in rows)
    return "{" + head + '"rows": [' + body + "]}"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "rows", "name", "x"]), inner, max_size=4),
    max_leaves=12,
).map(json.dumps)


class TestExitCodeFuzz:
    """Every document ends in a verdict, an input error or a numerical
    failure: exit 0, 2 or 3, never an exception."""

    @settings(
        max_examples=150, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    # two thirds of the examples are near-valid documents
    @given(
        text=st.one_of(_JSON_VALUES, _near_valid_documents(), _near_valid_documents())
    )
    def test_analyze_exit_code(self, tmp_path, text):
        path = tmp_path / "fuzz.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) in (0, 2, 3)


def spawn(args, blas_threads=None):
    """``python args`` run on this checkout's sources, completed."""
    env = dict(os.environ)
    src = str(Path(quadsphere.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, timeout=120
    )


class TestFreshProcess:
    """Report bytes must not depend on the process or the BLAS thread count,
    and a command's process loads only the modules the command runs."""

    @staticmethod
    def child(args, blas_threads=None):
        """Stdout of ``python args`` run on this checkout's sources."""
        proc = spawn(args, blas_threads)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    @classmethod
    def report_bytes(cls, command, path, blas_threads):
        return cls.child(
            ["-m", "quadsphere.cli", command, path, "--format", "structured"],
            blas_threads,
        )

    # runs the CLI on its arguments, then prints every quadsphere module loaded
    LOADED = (
        "import sys\n"
        "from quadsphere.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'quadsphere'))\n"
        "raise SystemExit(code)\n"
    )
    # what an analyze process decided before step 7 loads
    CHAIN = {
        "quadsphere", "quadsphere.certify", "quadsphere.cli", "quadsphere.cones",
        "quadsphere.config", "quadsphere.linalg", "quadsphere.matrixdoc",
        "quadsphere.sphere",
    }

    def loaded(self, *argv):
        return set(self.child(["-c", self.LOADED, *argv]).decode().split())

    def test_commands_load_only_what_they_run(self, tmp_path):
        path = tmp_path / "m.json"
        out = str(tmp_path / "out")
        path.write_text(dumps(make_negative_positive(6, 0)))  # a step-5 Yes
        analyze = ("analyze", str(path), "--format", "structured", "--out", out)
        assert self.loaded(*analyze) == self.CHAIN
        status = json.loads(Path(out).read_text())["verdict"]["status"]
        assert status == "CertifiedQuasiconvex"
        minimize = self.loaded("minimize", str(path), "--out", out)
        assert minimize == self.CHAIN | {"quadsphere.probe"}
        generate = self.loaded("generate", "householder", "--v", "1,1", "--out", out)
        assert "quadsphere.genex" in generate and "quadsphere.probe" not in generate
        # a step-7 No: only the cap witness loads edge
        path.write_text(dumps(SymMatrix([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0],
                                         [0.0, -1.0, 3.0]])))
        assert self.loaded(*analyze) == self.CHAIN | {"quadsphere.edge"}
        assert "vertex" in json.loads(Path(out).read_text())["verdict"]["witness"]["data"]

    @pytest.mark.parametrize("status", ["CertifiedQuasiconvex", "CertifiedNotQuasiconvex"])
    def test_analyze_bytes_identical(self, tmp_path, status):
        if status == "CertifiedQuasiconvex":
            # copositive-sufficiency Yes, by the diagonal rule
            doc = dumps(make_negative_positive(6, 0))
        else:
            # three nonnegative eigenvectors: a No witness built from eigenvectors
            a = np.diag([1.0, 1.4, 2.0, 3.0])
            a[0, 1] = a[1, 0] = -0.3
            doc = dumps(SymMatrix(a))
        path = tmp_path / "m.json"
        path.write_text(doc)
        single = self.report_bytes("analyze", str(path), "1")
        default = self.report_bytes("analyze", str(path), None)
        assert single == default
        assert json.loads(single)["verdict"]["status"] == status

    @pytest.mark.parametrize("command", ["pareto", "copositive"])
    def test_cone_bytes_identical(self, tmp_path, command):
        # pareto enumerates every support in stacked eigh calls; copositive
        # stops at the first negative Pareto value
        path = tmp_path / "m.json"
        path.write_text(dumps(make_negative_positive(6, 0)))
        single = self.report_bytes(command, str(path), "1")
        default = self.report_bytes(command, str(path), None)
        assert single == default
        assert command in json.loads(single)

    def test_descent_bytes_identical(self, tmp_path):
        # an n = 20 dense matrix is past the default max_exact_dim and its
        # least eigenvector leaves the orthant, so minimize runs the stacked
        # descent, whose gradients and trial values come from BLAS matrix
        # products
        rng = np.random.default_rng(20)
        raw = rng.uniform(-1.0, 1.0, (20, 20))
        path = tmp_path / "m.json"
        path.write_text(dumps(SymMatrix((raw + raw.T) / 2.0)))
        single = self.report_bytes("minimize", str(path), "1")
        default = self.report_bytes("minimize", str(path), None)
        assert single == default
        assert json.loads(single)["minimum"]["method"] == "GeodesicDescent"

    def test_screen_bytes_identical(self, tmp_path):
        # an n = 20 Z-matrix with every off-diagonal entry negative: its least
        # eigenvector is positive, so the Perron screen answers past the cap
        rng = np.random.default_rng(20)
        off = -rng.uniform(0.01, 0.1, (20, 20))
        a = (off + off.T) / 2.0
        np.fill_diagonal(a, np.linspace(-1.0, 1.0, 20))
        path = tmp_path / "m.json"
        path.write_text(dumps(SymMatrix(a)))
        single = self.report_bytes("minimize", str(path), "1")
        default = self.report_bytes("minimize", str(path), None)
        assert single == default
        assert json.loads(single)["minimum"]["method"] == "ExactPareto"


def _outcome(report):
    """The rule of a Yes, the witness kind of a No (with its vertex for the
    cap witness), or Unknown."""
    verdict = report["verdict"]
    if verdict["certificate"]:
        return verdict["certificate"]["rule"]
    if verdict["witness"]:
        witness = verdict["witness"]
        return witness["kind"] + (" vertex" if "vertex" in witness["data"] else "")
    return verdict["status"]


# one document per path through the decision chain: outcome -> matrix
_PATHS = {
    "ConstantForm": np.eye(3),
    "DiagonalCharacterization": np.diag([-1.0, 1.0, 1.0]),
    "TwoEigenvalueCharacterization": make_householder([1.0, 1.0, 1.0]).a,
    "CopositiveSufficiency": make_negative_positive(6, 0).a,
    "PairViolation": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "ConeNonconvexity": np.array([[1.0, -0.3, 0.0, 0.0], [-0.3, 1.4, 0.0, 0.0],
                                  [0.0, 0.0, 2.0, 0.0], [0.0, 0.0, 0.0, 3.0]]),
    "ConeNonconvexity vertex": np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0],
                                         [0.0, -1.0, 3.0]]),
    # an entry inside the tolerance band, lambda2 = max a_ii
    "Unknown": np.array([[0.0, 5e-9, -1.0], [5e-9, 0.0, -1.0], [-1.0, -1.0, 0.0]]),
}


class TestProcessContract:
    """``python -m quadsphere.cli`` runs cli.entry, which freezes the
    collector's heap before main: the process must still write the bytes and
    exit with the code of an in-process main, flush its output and run its
    atexit handlers, and only entry may freeze."""

    # registers an atexit hook that reports the freeze count, then runs entry
    # on its arguments; with FAIL first, every eigh call fails
    ENTRY = (
        "import atexit, gc\n"
        "from quadsphere import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
        "cli.entry()\n"
    )
    FAIL = (
        "import numpy as np\n"
        "def fail(a):\n"
        "    raise np.linalg.LinAlgError('Eigenvalues did not converge')\n"
        "np.linalg.eigh = fail\n"
    )

    @pytest.mark.parametrize("outcome", list(_PATHS))
    def test_analyze_bytes_equal_main(self, tmp_path, capsys, outcome):
        path = write_doc(tmp_path, _PATHS[outcome])
        for fmt in ("text", "structured"):
            argv = ["analyze", path, "--format", fmt]
            proc = spawn(["-m", "quadsphere.cli", *argv])
            code, out, err = run(capsys, *argv)
            assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
                0, out, "")
            assert (code, err) == (0, "")
        assert _outcome(json.loads(out)) == outcome
        child, main_out = tmp_path / "child.txt", tmp_path / "main.txt"
        proc = spawn(["-m", "quadsphere.cli", *argv, "--out", str(child)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert run(capsys, *argv, "--out", str(main_out)) == (0, "", "")
        assert child.read_bytes() == main_out.read_bytes()

    def test_input_error_exits_2(self, tmp_path, capsys):
        argv = ["analyze", str(tmp_path / "missing.json")]
        proc = spawn(["-m", "quadsphere.cli", *argv])
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            code, out, err)

    def test_entry_freezes_and_finalizes(self, tmp_path):
        path = write_doc(tmp_path, _PATHS["CopositiveSufficiency"])
        proc = spawn(["-c", self.ENTRY, "analyze", path, "--format", "structured"])
        assert proc.returncode == 0, proc.stderr.decode()
        report, hook = proc.stdout.decode().rsplit("}\n", 1)
        assert json.loads(report + "}")["verdict"]["status"] == "CertifiedQuasiconvex"
        name, count = hook.split()
        assert name == "frozen" and int(count) > 0

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # a Z-matrix that is not diagonal reaches eigh
        path = write_doc(tmp_path, [[1.0, -1.0], [-1.0, 2.0]])
        proc = spawn(["-c", self.FAIL + self.ENTRY, "analyze", path])
        name, count = proc.stdout.decode().split()
        assert name == "frozen" and int(count) > 0

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run(capsys, "analyze", path)
        assert code == 3 and out == "" and err.startswith("numerical failure:")
        assert (proc.returncode, proc.stderr.decode()) == (code, err)

    def test_main_leaves_the_collector(self, tmp_path, capsys):
        path = write_doc(tmp_path, _PATHS["CopositiveSufficiency"])
        assert run(capsys, "analyze", path)[0] == 0
        assert gc.get_freeze_count() == 0
