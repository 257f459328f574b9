"""Seeded benchmark of quadsphere's decision chain, its layers and its CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload chain-rules --seed 1 --seconds 20 --trace 0

Workloads:
  chain-rules       certify on inputs decided by rules 1-4 and 6
  copositive-exact  certify on copositive-sufficiency Yes families beside
                    is_copositive on non-copositive inputs
  probe-search      certify on Z-matrices that reach the falsifier, beside
                    minimize_orthant on the descent path
  cli-analyze       one `quadsphere analyze --format structured` child
                    process per call

The benchmark builds its inputs from --seed, makes one untimed warm-up call
of each instance class and then a fixed number of passes over the instance
list (set by --seconds), checks every output, and prints as its last line
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
End-to-end times are each call's mean over the passes, scaled to the
reference speed of the host by a fixed kernel timed around every call (see
bench.REFERENCE_MS); per-layer times are raw.  The line before the result
holds the run details (machine facts, tail percentile and sample count,
per-class means, raw per-call latencies and the host slowness beside each);
both are also written to perfbench/results/.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("chain-rules", "copositive-exact", "probe-search", "cli-analyze")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "quadsphere" / "__init__.py").is_file():
        print(f"error: no quadsphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one vCPU for this process and its children, so that the host-speed
    # reference (bench.REFERENCE_MS) runs where the measured calls run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # one BLAS thread, fixed before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result, details = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
