"""Tests of the benchmark itself: reproducible inputs, output checks that
reject wrong answers, and the routing and dominance claims its workloads
are built on (checked on one traced pass of each workload).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
import types

import pytest

import bench
import run
import workloads
from quadsphere import Status, Verdict, certify, is_copositive, minimize_orthant

ROOT = bench.BENCH_DIR.parent


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_fixed_seed_reproduces_instances(workload, tmp_path):
    build = workloads.MAKE_INSTANCES[workload]
    first = [i.digest() for i in build(7, tmp_path / "a")]
    again = [i.digest() for i in build(7, tmp_path / "b")]
    other = [i.digest() for i in build(8, tmp_path / "c")]
    assert first == again
    assert first != other


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.MAKE_INSTANCES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = bench.tail([float(v) for v in range(30, 0, -1)])
    assert (value, beyond) == (20.0, 10)
    assert percentile == pytest.approx(200.0 / 3.0)


def test_times_are_scaled_to_the_reference_speed():
    instances = workloads.build_chain_rules(5)[:2]
    outputs = [certify(i.matrix) for i in instances]

    def one_pass(slowness):
        return types.SimpleNamespace(
            latency_ns=[10e6 * slowness, 30e6 * slowness],
            cpu_s=[0.01 * slowness, 0.03 * slowness],
            slowness=[slowness, slowness],
            outputs=outputs,
            wall_s=0.04 * slowness,
        )

    metrics, details = bench._end_to_end(
        instances, [one_pass(1.0), one_pass(1.6)], 0.1, [True] * 4, 40.0
    )
    assert metrics["ops_per_s"] == pytest.approx(50.0)
    assert metrics["latency_p50_ms"] == pytest.approx(20.0)
    assert metrics["cpu_ms_per_op"] == pytest.approx(20.0)
    assert details["raw_ops_per_s"] == pytest.approx(4.0 / (0.04 + 0.064))


def _first(instances, cls):
    return next(i for i in instances if i.cls == cls)


def test_checks_reject_wrong_outputs():
    check = workloads.Checker()
    chain = workloads.build_chain_rules(5)
    no_inst = _first(chain, "z-pair")
    verdict = certify(no_inst.matrix)
    assert check(no_inst, verdict)
    assert not check(no_inst, Verdict(status=Status.CERTIFIED_QUASICONVEX))
    w = verdict.witness
    flipped = dataclasses.replace(w, data={**w.data, "x": w.data["y"], "y": w.data["x"] * 0})
    assert not check(no_inst, dataclasses.replace(verdict, witness=flipped))

    yes_inst = _first(chain, "householder")
    assert check(yes_inst, certify(yes_inst.matrix))
    assert not check(yes_inst, Verdict(status=Status.UNKNOWN))

    exact = workloads.build_copositive_exact(5)
    nc = _first(exact, "not-copositive")
    assert check(nc, is_copositive(nc.matrix))
    assert not check(nc, True)

    probe = workloads.build_probe_search(5)
    desc = _first(probe, "descent")
    res = minimize_orthant(desc.matrix)
    assert check(desc, res)
    assert not check(desc, dataclasses.replace(res, value=res.value - 1e-3))
    assert not check(desc, RuntimeError("boom"))


def test_cli_check_requires_identical_bytes(tmp_path):
    doc = workloads.build_cli_analyze(5, tmp_path)[0]
    check = workloads.Checker()
    proc = workloads.call(doc)
    assert check(doc, proc)
    assert check(doc, workloads.call(doc))
    changed = subprocess.CompletedProcess(proc.args, 0, proc.stdout + b" ", proc.stderr)
    assert not check(doc, changed)


def test_refuses_a_tree_without_sources(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    (bench_copy / "run.py").write_text((bench.BENCH_DIR / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-rules",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced pass of every workload."""
    return {w: bench.run(w, seed=3, seconds=0.1, trace=True) for w in run.WORKLOADS}


def _metric(traced, workload, name):
    return traced[workload][0]["metrics"][name]["value"]


def test_traced_runs_pass_their_checks(traced):
    for workload, (result, details) in traced.items():
        assert result["correct"], workload
        assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
        assert 0.5 < _metric(traced, workload, "trace.overhead_ratio") < 3.0


def test_tracer_rebinds_every_import_site(traced):
    sites = set(traced["probe-search"][1]["trace_sites"])
    for site in [
        "quadsphere.certify",  # the package re-export of the function
        "quadsphere.certify.certify",
        "quadsphere.certify.eigen_decompose",
        "quadsphere.cones.eigen_decompose",
        "quadsphere.genex.eigen_decompose",
        "quadsphere.certify.pareto_spectrum",
        "quadsphere.probe.pareto_spectrum",
        "quadsphere.probe.sample_orthant_array",
        "quadsphere.probe.verify_witness",
    ]:
        assert site in sites
    assert "quadsphere.cli.main" in traced["cli-analyze"][1]["trace_sites"]


def test_routing(traced):
    assert _metric(traced, "chain-rules", "cones.pareto_spectrum.calls") == 0
    assert _metric(traced, "chain-rules", "probe.falsify.calls") == 0
    assert _metric(traced, "copositive-exact", "probe.falsify.calls") == 0
    assert _metric(traced, "copositive-exact", "cones.is_copositive.calls") > 0
    assert _metric(traced, "probe-search", "probe.falsify.calls") > 0
    assert _metric(traced, "probe-search", "probe.minimize_orthant.calls") > 0
    assert _metric(traced, "cli-analyze", "cli.import_ms") > 0
    assert _metric(traced, "cli-analyze", "matrixdoc.loads.self_ms") > 0


@pytest.mark.parametrize(
    "workload, layer",
    [
        ("chain-rules", "linalg.eigen_decompose"),
        ("copositive-exact", "linalg.eigen_decompose"),
        ("probe-search", "probe.falsify"),
        ("cli-analyze", "cli.import"),
    ],
)
def test_dominant_layer_holds_most_self_time(traced, workload, layer):
    self_ms = traced[workload][1]["self_ms_per_pass"]
    assert self_ms[layer] > 0.5 * sum(self_ms.values())
