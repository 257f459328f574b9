"""One benchmark run: set-up, an untimed warm-up call of each instance
class, a fixed number of measured passes over the seeded instance list,
output checks and metrics.

Every call runs in a closed loop from this single process with one client:
the next call starts when the previous one has returned.  End-to-end
metrics come from untraced passes only, with every time scaled to the
host's reference speed.  A traced run alternates untraced and traced
passes; its per-layer numbers are raw and per traced pass.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent

# Seconds per pass, reference kernels included, on a 2-vCPU Intel Xeon KVM
# guest in its usual (not its fastest) state, numpy 2.4 with OpenBLAS on one
# thread.  They turn --seconds into a fixed number of passes, so a faster
# program does the same work in less time.
PASS_SECONDS = {
    "chain-rules": 2.8,
    "copositive-exact": 2.8,
    "probe-search": 4.1,
    "cli-analyze": 6.1,
}
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "pass_ratio": "ratio",
    "setup_s": "s",
}

OUTCOMES = [
    "ConstantForm",
    "DiagonalCharacterization",
    "TwoEigenvalueCharacterization",
    "CopositiveSufficiency",
    "ZMatrixFastPathV",
    "ZMatrixFastPathVI",
    "NegativePositiveMatrix",
    "PairViolation",
    "ConeNonconvexity",
    "ZViolation",
    "ThreeNonnegEigenvectors",
    "Unknown",
]

PER_LAYER_UNITS = {
    "linalg.eigen_decompose.calls": "count",
    "linalg.eigen_decompose.self_ms": "ms",
    "linalg.eigen_decompose.mean_n": "n",
    "cones.pareto_spectrum.calls": "count",
    "cones.pareto_spectrum.self_ms": "ms",
    "cones.pareto_spectrum.supports": "count",
    "cones.pareto_spectrum.eigen_calls": "count",
    "cones.is_copositive.calls": "count",
    "probe.falsify.calls": "count",
    "probe.falsify.self_ms": "ms",
    "probe.falsify.samples": "count",
    "probe.falsify.witness_ratio": "ratio",
    "probe.minimize_orthant.calls": "count",
    "probe.minimize_orthant.self_ms": "ms",
    "sphere.sample_orthant_array.calls": "count",
    "sphere.sample_orthant_array.self_ms": "ms",
    "certify.certify.self_ms": "ms",
    "certify.verify_witness.calls": "count",
    "certify.verify_witness.self_ms": "ms",
    **{f"certify.outcome.{o}.count": "count" for o in OUTCOMES},
    "genex.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "matrixdoc.loads.self_ms": "ms",
    "run.steal_ms": "ms",
    "run.nivcsw": "count",
    "trace.overhead_ratio": "ratio",
}


def passes_for(workload: str, seconds: float) -> int:
    # at least two, so every CLI document is analyzed twice
    return max(2, round(seconds / PASS_SECONDS[workload]))


# ------------------------------------------------------------- host speed

# The host slows each vCPU by up to 2x, CPU time as much as wall time, in
# spells from under a second to minutes, so runs of identical code differ by
# more than the bounds.  Every timing is therefore divided by the host's
# slowness at that moment: the time of a fixed reference kernel run right
# before and right after it, over REFERENCE_MS.  The kernel mixes
# interpreted Python with small LAPACK calls, as the program does; it runs
# on the same (pinned) vCPU and never calls the program, so a change to the
# program moves a scaled time exactly as it moves the raw one.
REFERENCE_MS = 3.0  # the kernel on an unloaded vCPU of the reference host
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_REFERENCE_MATRIX = _REFERENCE_MATRIX + _REFERENCE_MATRIX.T


def reference_ms() -> float:
    """Milliseconds the reference kernel takes now."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(20_000):
        acc += i * i
    for _ in range(20):
        np.linalg.eigh(_REFERENCE_MATRIX)
    return (time.perf_counter_ns() - t0) / 1e6


# ------------------------------------------------------------ measurement


def _steal_ms() -> float:
    """Machine-wide stolen CPU time so far, from /proc/stat (0 if absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[0] != "cpu" or len(fields) < 9:
        return 0.0
    return int(fields[8]) * 1000.0 / os.sysconf("SC_CLK_TCK")


def _cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _nivcsw() -> int:
    return sum(
        resource.getrusage(who).ru_nivcsw
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the largest of this process and any child
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def _child_import_s() -> float:
    code = (
        "import time; t = time.perf_counter(); import quadsphere; "
        "print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        env=workloads.child_env(),
        timeout=120,
        check=True,
        text=True,
    )
    return float(proc.stdout)


class Pass:
    """Per-call wall latency, CPU time, host slowness (reference kernel time
    around the call over REFERENCE_MS) and output of one pass, and the
    pass's wall time."""

    def __init__(self, instances, tracer=None, workdir=None):
        self.latency_ns = []
        self.cpu_s = []
        self.slowness = []
        self.outputs = []
        summary = None
        if tracer is not None and instances[0].op == "cli":
            summary = workdir / "trace-summary.json"
        gc.collect()
        start = time.perf_counter_ns()
        if tracer is not None and summary is None:
            with tracer.installed():
                self._loop(instances, None, None)
        else:
            self._loop(instances, tracer, summary)
        self.wall_s = (time.perf_counter_ns() - start) / 1e9

    def _loop(self, instances, tracer, summary):
        before = reference_ms()
        for inst in instances:
            cpu0 = _cpu_s()
            t0 = time.perf_counter_ns()
            try:
                out = workloads.call(inst, None if summary is None else str(summary))
            except Exception as exc:  # a failed call counts against pass_ratio
                out = exc
            self.latency_ns.append(time.perf_counter_ns() - t0)
            self.cpu_s.append(_cpu_s() - cpu0)
            after = reference_ms()
            self.slowness.append((before + after) / 2.0 / REFERENCE_MS)
            before = after
            self.outputs.append(out)
            if summary is not None and summary.exists():
                # spans recorded inside the CLI child
                dumped = json.loads(summary.read_text())
                summary.unlink()
                tracer.counters["cli.import_ns"] += dumped.pop("import_ns")
                tracer.counters["cli.children"] += 1
                tracer.merge(dumped)


# ---------------------------------------------------------------- metrics


def tail(latencies_ms):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples
    beyond it: (value, percentile, samples beyond)."""
    ordered = sorted(latencies_ms)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _end_to_end(instances, passes, setup_s, checks, rss_mb):
    k = len(instances)
    # a call's cost is its mean over the run's passes, each scaled to the
    # reference speed of the host (see REFERENCE_MS)
    call_ms = [
        statistics.fmean(p.latency_ns[i] / 1e6 / p.slowness[i] for p in passes)
        for i in range(k)
    ]
    call_cpu_ms = [
        statistics.fmean(1000.0 * p.cpu_s[i] / p.slowness[i] for p in passes)
        for i in range(k)
    ]
    classes = [f"{inst.cls}/n{inst.matrix.n}" for inst in instances]
    tail_ms, tail_pct, beyond = tail(call_ms)
    decided = [
        workloads.decided(inst, out)
        for p in passes
        for inst, out in zip(instances, p.outputs)
    ]
    verdicts = [d for d in decided if d is not None]
    order = sorted(range(k), key=call_ms.__getitem__)
    metrics = {
        "ops_per_s": 1000.0 * k / sum(call_ms),
        "latency_p50_ms": statistics.median(call_ms),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": sum(call_cpu_ms) / k,
        "peak_rss_mb": rss_mb,
        "decided_ratio": sum(verdicts) / len(verdicts),
        "pass_ratio": sum(checks) / len(checks),
        "setup_s": setup_s,
    }
    details = {
        "samples": k,
        "repeats_per_sample": len(passes),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "p50_class": classes[order[(k - 1) // 2]],
        "tail_class": classes[order[k - beyond - 1]],
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_latency_ms": [[ns / 1e6 for ns in p.latency_ns] for p in passes],
        "pass_slowness": [p.slowness for p in passes],
        "raw_ops_per_s": 1e9 * k * len(passes) / sum(sum(p.latency_ns) for p in passes),
        "class_mean_ms": {
            c: statistics.median(t for t, cc in zip(call_ms, classes) if cc == c)
            for c in sorted(set(classes))
        },
    }
    return metrics, details


def _per_layer(tracer, n_passes, genex_ms, overhead, steal_ms, nivcsw):
    s, c = tracer.stats, tracer.counters

    def calls(name):
        return s[name][0] / n_passes

    def self_ms(name):
        return s[name][2] / 1e6 / n_passes

    eig = s["linalg.eigen_decompose"][0]
    fal = s["probe.falsify"][0]
    return {
        "linalg.eigen_decompose.calls": calls("linalg.eigen_decompose"),
        "linalg.eigen_decompose.self_ms": self_ms("linalg.eigen_decompose"),
        "linalg.eigen_decompose.mean_n": c["linalg.eigen_decompose.n_sum"] / eig if eig else 0.0,
        "cones.pareto_spectrum.calls": calls("cones.pareto_spectrum"),
        "cones.pareto_spectrum.self_ms": self_ms("cones.pareto_spectrum"),
        "cones.pareto_spectrum.supports": c["cones.pareto_spectrum.supports"] / n_passes,
        "cones.pareto_spectrum.eigen_calls": c["cones.pareto_spectrum.eigen_calls"] / n_passes,
        "cones.is_copositive.calls": calls("cones.is_copositive"),
        "probe.falsify.calls": calls("probe.falsify"),
        "probe.falsify.self_ms": self_ms("probe.falsify"),
        "probe.falsify.samples": c["probe.falsify.samples"] / n_passes,
        "probe.falsify.witness_ratio": c["probe.falsify.witnesses"] / fal if fal else 0.0,
        "probe.minimize_orthant.calls": calls("probe.minimize_orthant"),
        "probe.minimize_orthant.self_ms": self_ms("probe.minimize_orthant"),
        "sphere.sample_orthant_array.calls": calls("sphere.sample_orthant_array"),
        "sphere.sample_orthant_array.self_ms": self_ms("sphere.sample_orthant_array"),
        "certify.certify.self_ms": self_ms("certify.certify"),
        "certify.verify_witness.calls": calls("certify.verify_witness"),
        "certify.verify_witness.self_ms": self_ms("certify.verify_witness"),
        **{
            f"certify.outcome.{o}.count": c[f"certify.outcome.{o}.count"] / n_passes
            for o in OUTCOMES
        },
        "genex.self_ms": genex_ms,
        "cli.import_ms": (
            c["cli.import_ns"] / 1e6 / c["cli.children"] if c["cli.children"] else 0.0
        ),
        "cli.main.self_ms": self_ms("cli.main"),
        "matrixdoc.loads.self_ms": self_ms("matrixdoc.loads"),
        "run.steal_ms": steal_ms,
        "run.nivcsw": nivcsw,
        "trace.overhead_ratio": overhead,
    }


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "reference_ms": REFERENCE_MS,
    }


# -------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, details)."""
    workdir = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir):
    build = workloads.MAKE_INSTANCES[workload]
    setup_runs, digests = [], set()

    def set_up():
        """Import quadsphere in a fresh interpreter and build the inputs.
        Repeated between the measured passes, so that the median set-up
        time samples the whole run, not one moment of a shared host."""
        before = reference_ms()
        import_s = _child_import_s()
        t0 = time.perf_counter()
        built = build(seed, workdir)
        generate_s = time.perf_counter() - t0
        slowness = (before + reference_ms()) / 2.0 / REFERENCE_MS
        setup_runs.append(
            {"import_s": import_s, "generate_s": generate_s, "slowness": slowness}
        )
        digests.add(tuple(inst.digest() for inst in built))
        return built

    instances = set_up()

    genex_ms = 0.0
    if trace:
        gen_tracer = Tracer()
        with gen_tracer.installed():
            build(seed, workdir)
        genex_ms = gen_tracer.self_ms("genex.")

    check = workloads.Checker()
    # one call of each instance class fills lazy imports and caches; a full
    # pass would add up to a third to the run time
    warm_by_class = {}
    for inst in instances:
        warm_by_class.setdefault((inst.cls, inst.op), inst)
    warm_list = list(warm_by_class.values())
    warm = Pass(warm_list, workdir=workdir)
    n_passes = passes_for(workload, seconds)
    tracer = Tracer() if trace else None
    steal0, nivcsw0 = _steal_ms(), _nivcsw()
    plain, traced = [], []
    for _ in range(max(1, n_passes // 2) if trace else n_passes):
        plain.append(Pass(instances, workdir=workdir))
        if trace:
            traced.append(Pass(instances, tracer, workdir))
        else:
            set_up()
    measured = len(plain) + len(traced)
    steal_ms = (_steal_ms() - steal0) / measured
    nivcsw = (_nivcsw() - nivcsw0) / measured
    rss_mb = _peak_rss_mb()
    while len(setup_runs) < SETUP_REPEATS:
        set_up()
    if len(digests) != 1:
        raise RuntimeError("input generation is not reproducible for a fixed seed")
    setup_s = statistics.median(
        (r["import_s"] + r["generate_s"]) / r["slowness"] for r in setup_runs
    )

    checks = [check(inst, out) for inst, out in zip(warm_list, warm.outputs)]
    checks += [
        check(inst, out)
        for p in [*plain, *traced]
        for inst, out in zip(instances, p.outputs)
    ]
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "calls_per_pass": len(instances),
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_runs": setup_runs,
        "steal_ms_per_pass": steal_ms,
        "nivcsw_per_pass": nivcsw,
        "machine": machine_facts(),
    }
    if trace:
        overhead = sum(p.wall_s for p in traced) / sum(p.wall_s for p in plain)
        metrics = _per_layer(tracer, len(traced), genex_ms, overhead, steal_ms, nivcsw)
        units = PER_LAYER_UNITS
        details["self_ms_per_pass"] = {
            name: own / 1e6 / len(traced) for name, (_, _, own) in tracer.stats.items()
        }
        if tracer.counters["cli.import_ns"]:
            details["self_ms_per_pass"]["cli.import"] = (
                tracer.counters["cli.import_ns"] / 1e6 / len(traced)
            )
        details["trace_sites"] = sorted(tracer.sites)
    else:
        metrics, more = _end_to_end(instances, plain, setup_s, checks, rss_mb)
        units = END_TO_END_UNITS
        details.update(more)
    result = {
        "correct": all(checks),
        "attempted": len(checks),
        "failed": checks.count(False),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, details
