"""Run the ``quadsphere`` CLI with the layer tracer installed.

Usage: python trace_child.py SUMMARY.json CLI-ARGS...

Behaves like ``python -m quadsphere.cli CLI-ARGS...`` (same stdout, stderr
and exit code) and writes the import time of ``quadsphere.cli`` and the span
aggregates of the call to SUMMARY.json.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import quadsphere.cli

    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    with tracer.installed():
        code = quadsphere.cli.main(argv)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ns": import_ns, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
