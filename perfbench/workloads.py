"""Seeded instance lists, the calls that run them, and the checks on their
outputs.

Every workload is a fixed list of instances built from the benchmark seed;
the program receives only the generated matrices (or matrix documents) and
the default ``Config``.  The latency percentiles are taken over the calls of
one list, each at its fastest repeat, so class counts are chosen so that the
median and the tail percentile (ten calls beyond it) each fall inside one
group of classes whose costs are within 2x of each other (see the comment in
each build_* function).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import quadsphere
from quadsphere import SymMatrix, matrixdoc
from quadsphere.certify import Status

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"

# absolute tolerance for the benchmark's own arithmetic checks
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class Instance:
    """One call of the workload.

    ``op`` is ``certify``, ``is_copositive``, ``minimize`` or ``cli``.
    ``expect`` is the verdict a ``certify``/``cli`` call must give: ``yes``
    (a constructed quasi-convex family), ``no`` (known not quasi-convex; an
    honest Unknown also passes and shows in ``decided_ratio``) or ``open``
    (truth unknown: Unknown or a verified No).
    """

    cls: str
    op: str
    matrix: SymMatrix
    expect: str = ""
    vector: np.ndarray | None = None
    path: str | None = None

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.cls}|{self.op}|{self.expect}|{self.matrix.n}".encode())
        h.update(self.matrix.a.tobytes())
        if self.vector is not None:
            h.update(self.vector.tobytes())
        return h.hexdigest()[:16]


def child_env() -> dict:
    """Environment for every child interpreter: the checkout's sources and
    single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


# ---------------------------------------------------------------- generators


def _constant(rng, n):
    return SymMatrix(rng.uniform(-3.0, 3.0) * np.eye(n))


def _diagonal_yes(rng, n):
    lam = rng.uniform(-2.0, 0.0)
    d = np.full(n, lam + rng.uniform(0.5, 3.0))
    d[rng.integers(n)] = lam
    return SymMatrix(np.diag(d))


def _diagonal_no(rng, n):
    # at least three distinct values, so no two-value characterization fits
    d = rng.permutation(np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n))
    return SymMatrix(np.diag(d))


def _householder(rng, n):
    return quadsphere.make_householder(rng.uniform(0.1, 1.0, n))


def _dense(rng, n):
    m = rng.standard_normal((n, n))
    return SymMatrix((m + m.T) / 2.0)


def _z_block(rng, n, shift):
    off = -rng.uniform(0.1, 1.0, (n, n))
    a = (off + off.T) / 2.0
    np.fill_diagonal(a, rng.uniform(-1.0, 1.0, n) + shift)
    return a


def _three_blocks(rng, n):
    # three irreducible Z-blocks: each contributes a nonnegative Perron
    # eigenvector, and the block shifts keep their eigenvalues apart
    sizes = [n // 3, n // 3, n - 2 * (n // 3)]
    a = np.zeros((n, n))
    start = 0
    for k, size in enumerate(sizes):
        a[start:start + size, start:start + size] = _z_block(rng, size, 3.0 * k)
        start += size
    perm = rng.permutation(n)
    return SymMatrix(a[np.ix_(perm, perm)])


def _z_dense(rng, n):
    off = -rng.random((n, n))
    a = (off + off.T) / 2.0
    np.fill_diagonal(a, 2.0 * rng.standard_normal(n))
    return SymMatrix(a)


def _z_near_diagonal(rng, n):
    # a diagonal with more than two distinct values is not quasi-convex with
    # an O(1) margin; weak negative coupling keeps that margin, makes the
    # matrix an irreducible Z-matrix and leaves only step 7 to decide it
    off = -rng.uniform(0.01, 0.1, (n, n))
    a = (off + off.T) / 2.0
    np.fill_diagonal(a, rng.permutation(np.linspace(-1.0, 1.0, n)) + rng.uniform(-0.1, 0.1, n))
    return SymMatrix(a)


def _positive_basis(rng, n):
    lam1 = rng.uniform(-1.0, 1.0)
    lam2 = lam1 + rng.uniform(0.5, 2.0)
    room = (lam2 - lam1) / (n * (n - 2))
    rest = np.sort(lam2 + rng.uniform(0.05, 0.9, n - 2) * room)
    return quadsphere.make_positive_basis(n, np.concatenate([[lam1, lam2], rest]))


def _negative_positive(rng, n):
    return quadsphere.make_negative_positive(n, int(rng.integers(2**31)))


def _not_copositive(rng, n):
    """Positive diagonal, no violating pair, and a stored violating vector
    on a support of size >= 3."""
    k = int(rng.integers(3, 6))
    support = rng.choice(n, size=k, replace=False)
    d = rng.uniform(1.0, 2.0, n)
    off = rng.uniform(-0.2, 1.0, (n, n))
    a = (off + off.T) / 2.0
    # on the support a_ij = -t sqrt(a_ii a_jj) with 1/(k-1) < t < 1: every
    # 2x2 principal block stays copositive, x = D^(-1/2) 1_S does not
    t = rng.uniform(0.7, 0.9)
    a[np.ix_(support, support)] = -t * np.sqrt(np.outer(d[support], d[support]))
    np.fill_diagonal(a, d)
    x = np.zeros(n)
    x[support] = 1.0 / np.sqrt(d[support])
    x /= np.linalg.norm(x)
    return SymMatrix(a), x


# ------------------------------------------------------- instance lists


def _build(rng, mix):
    """Instances for ``mix`` = [(cls, op, expect, make, sizes)], in a seeded
    order."""
    out = []
    for cls, op, expect, make, sizes in mix:
        for n in sizes:
            made = make(rng, n)
            matrix, vector = made if isinstance(made, tuple) else (made, None)
            out.append(Instance(cls, op, matrix, expect, vector))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def build_chain_rules(seed, workdir=None):
    # p50 falls among the 40 sub-ms rule paths (constant, diagonal), the
    # tail among the 15 dense n = 24, 28 decompositions (60-120 ms).  No
    # falsifier-path input.
    sizes = [4, 8, 12, 16, 20, 24, 28, 32]
    mix = [
        ("constant", "certify", "yes", _constant, sizes),
        ("diagonal-yes", "certify", "yes", _diagonal_yes, sizes * 2),
        ("diagonal-no", "certify", "no", _diagonal_no, sizes * 2),
        ("householder", "certify", "yes", _householder, sizes),
        ("z-pair", "certify", "no", _dense, [6, 8, 10, 12, 14, 16, 20] + [24] * 8 + [28] * 7),
        ("three-vector", "certify", "no", _three_blocks, [18, 21, 24, 27, 30, 32]),
    ]
    return _build(_rng(seed, "chain-rules"), mix)


def build_copositive_exact(seed, workdir=None):
    # costs grow ~2.7x per unit of n (n = 6: ~60 ms, n = 7: ~160 ms), so
    # each n is its own cost group: of the 26 calls, p50 falls in the 14 at
    # n = 6, the tail on the second of the 12 at n = 7
    mix = [
        ("negative-positive", "certify", "yes", _negative_positive, [6] * 5 + [7] * 4),
        ("positive-basis", "certify", "yes", _positive_basis, [6] * 4 + [7] * 4),
        ("not-copositive", "is_copositive", "", _not_copositive, [6] * 5 + [7] * 4),
    ]
    return _build(_rng(seed, "copositive-exact"), mix)


def build_probe_search(seed, workdir=None):
    # of the 42 calls, p50 falls among the 25 descent calls at n = 64 (~6
    # ms, below the ~8 ms at n = 20, whose iteration counts vary more with
    # the seed), the tail on the second of the 12 falsifier calls (n = 4, 6
    # find a witness in 0.2-0.4 s; n = 20 skips step 5 at the exact cap and
    # ends Unknown after ~1.3 s)
    mix = [
        ("descent", "minimize", "", _z_near_diagonal, [20] * 5 + [64] * 25),
        ("falsify-witness", "certify", "no", _z_near_diagonal, [4] * 9 + [6] * 2),
        ("falsify-unknown", "certify", "open", _z_dense, [20]),
    ]
    return _build(_rng(seed, "probe-search"), mix)


def build_cli_analyze(seed, workdir):
    # cheap rule-path documents, so interpreter start, imports and document
    # parsing dominate every call; all 25 cost within 2x of each other
    sizes = [4, 6, 8, 10, 12]
    mix = [
        ("constant", "cli", "yes", _constant, sizes),
        ("diagonal-yes", "cli", "yes", _diagonal_yes, sizes),
        ("diagonal-no", "cli", "no", _diagonal_no, sizes),
        ("householder", "cli", "yes", _householder, sizes),
        ("z-pair", "cli", "no", _dense, sizes),
    ]
    instances = _build(_rng(seed, "cli-analyze"), mix)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for i, inst in enumerate(instances):
        path = workdir / f"doc{i:02d}-{inst.cls}.json"
        path.write_text(matrixdoc.dumps(inst.matrix, name=inst.cls))
        out.append(Instance(inst.cls, inst.op, inst.matrix, inst.expect, path=str(path)))
    return out


MAKE_INSTANCES = {
    "chain-rules": build_chain_rules,
    "copositive-exact": build_copositive_exact,
    "probe-search": build_probe_search,
    "cli-analyze": build_cli_analyze,
}


# --------------------------------------------------------------------- calls


def cli_command(inst: Instance, trace_out: str | None = None) -> list[str]:
    args = ["analyze", inst.path, "--format", "structured"]
    if trace_out is None:
        return [sys.executable, "-m", "quadsphere.cli", *args]
    return [sys.executable, str(TRACE_CHILD), trace_out, *args]


def call(inst: Instance, trace_out: str | None = None):
    """Run one instance through the public API (looked up at call time, so
    a tracer that rebinds the package attributes sees the call)."""
    if inst.op == "certify":
        return quadsphere.certify(inst.matrix)
    if inst.op == "is_copositive":
        return quadsphere.is_copositive(inst.matrix)
    if inst.op == "minimize":
        return quadsphere.minimize_orthant(inst.matrix)
    if inst.op == "cli":
        return subprocess.run(
            cli_command(inst, trace_out),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=120,
            check=False,
        )
    raise ValueError(f"unknown op {inst.op!r}")


def decided(inst: Instance, out) -> bool | None:
    """Yes/No verdict (True), Unknown (False), or None for a non-certify
    call."""
    if inst.op == "certify":
        return isinstance(out, quadsphere.Verdict) and out.status is not Status.UNKNOWN
    if inst.op == "cli":
        try:
            return json.loads(out.stdout)["verdict"]["status"] != Status.UNKNOWN.value
        except (AttributeError, ValueError, KeyError, TypeError):
            return False
    return None


# -------------------------------------------------------------------- checks


def _lambda_min_and_second(A: SymMatrix):
    w = np.linalg.eigvalsh(A.a)
    return float(w[0]), float(w[1])


def _check_verdict(inst: Instance, v) -> bool:
    if not isinstance(v, quadsphere.Verdict):
        return False
    A = inst.matrix
    if v.status is Status.CERTIFIED_QUASICONVEX:
        if inst.expect != "yes" or v.certificate is None:
            return False
        vec = v.certificate.data.get("eigenvector")
        if vec is not None:
            vec = np.asarray(vec, dtype=float)
            lam1, _ = _lambda_min_and_second(A)
            scale = max(1.0, A.norm_fro())
            if float(vec.min()) < -1e-9 or abs(float(np.linalg.norm(vec)) - 1.0) > 1e-9:
                return False
            if float(np.linalg.norm(A.a @ vec - lam1 * vec)) > 1e-7 * scale:
                return False
        if inst.cls == "negative-positive":
            _, lam2 = _lambda_min_and_second(A)
            if float((lam2 * np.eye(A.n) - A.a).min()) < -CHECK_TOL * max(1.0, abs(lam2)):
                return False
        return True
    if v.status is Status.CERTIFIED_NOT_QUASICONVEX:
        return (
            inst.expect in ("no", "open")
            and v.witness is not None
            and quadsphere.verify_witness(A, v.witness)
        )
    return v.status is Status.UNKNOWN and inst.expect in ("no", "open")


def _check_copositive(inst: Instance, out) -> bool:
    x = inst.vector
    stored_violates = float(x.min()) >= 0.0 and inst.matrix.quad(x) < 0.0
    return isinstance(out, (bool, np.bool_)) and not out and stored_violates


def _check_minimum(inst: Instance, res) -> bool:
    if not isinstance(res, quadsphere.MinResult):
        return False
    A = inst.matrix
    x = np.asarray(res.argmin.coords, dtype=float)
    scale = max(1.0, A.norm_fro())
    lam1, _ = _lambda_min_and_second(A)
    return (
        float(x.min()) >= -1e-12
        and abs(float(np.linalg.norm(x)) - 1.0) <= 1e-12
        and abs(res.value - A.quad(x)) <= CHECK_TOL * scale
        and res.value >= lam1 - CHECK_TOL * scale
    )


class Checker:
    """Checks outputs; ``cli`` outputs must also equal the in-process
    verdict and the first report bytes seen for the same document."""

    def __init__(self):
        self._reference_bytes = {}
        self._inprocess = {}

    def __call__(self, inst: Instance, out) -> bool:
        if isinstance(out, BaseException):
            return False
        if inst.op == "certify":
            return _check_verdict(inst, out)
        if inst.op == "is_copositive":
            return _check_copositive(inst, out)
        if inst.op == "minimize":
            return _check_minimum(inst, out)
        return self._check_cli(inst, out)

    def _check_cli(self, inst: Instance, proc) -> bool:
        if proc.returncode != 0:
            return False
        try:
            report = json.loads(proc.stdout)
            status = report["verdict"]["status"]
        except (ValueError, KeyError, TypeError):
            return False
        ref = self._reference_bytes.setdefault(inst.path, proc.stdout)
        if proc.stdout != ref:
            return False
        if inst.path not in self._inprocess:
            self._inprocess[inst.path] = quadsphere.certify(inst.matrix)
        verdict = self._inprocess[inst.path]
        return status == verdict.status.value and _check_verdict(inst, verdict)
