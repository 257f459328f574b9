"""Span tracer for quadsphere's layers, installed from outside the package.

Modules bind layer functions with ``from .x import y``, so a function has
several import sites (``certify.eigen_decompose``, ``cones.eigen_decompose``,
the package re-export ...).  ``Tracer.install`` rebinds every module
attribute of a loaded ``quadsphere`` module that *is* a traced function, and
``uninstall`` restores them.  Spans are aggregated as they close: a span's
self time is its duration minus the durations of the traced spans it
directly encloses.  Only the standard library is imported here, so the CLI
trace child can load this module before ``quadsphere``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, function, span name)
LAYERS = [
    ("quadsphere.linalg", "eigen_decompose", "linalg.eigen_decompose"),
    ("quadsphere.cones", "pareto_spectrum", "cones.pareto_spectrum"),
    ("quadsphere.cones", "is_copositive", "cones.is_copositive"),
    ("quadsphere.probe", "falsify", "probe.falsify"),
    ("quadsphere.probe", "minimize_orthant", "probe.minimize_orthant"),
    ("quadsphere.sphere", "sample_orthant_array", "sphere.sample_orthant_array"),
    ("quadsphere.certify", "certify", "certify.certify"),
    ("quadsphere.certify", "verify_witness", "certify.verify_witness"),
    ("quadsphere.genex", "make_three_eigenvalue", "genex.make_three_eigenvalue"),
    ("quadsphere.genex", "make_positive_basis", "genex.make_positive_basis"),
    ("quadsphere.genex", "make_householder", "genex.make_householder"),
    ("quadsphere.genex", "make_diag_two_eig", "genex.make_diag_two_eig"),
    ("quadsphere.genex", "make_negative_positive", "genex.make_negative_positive"),
    ("quadsphere.matrixdoc", "loads", "matrixdoc.loads"),
    ("quadsphere.cli", "main", "cli.main"),
]

PARETO = "cones.pareto_spectrum"


def _dim(a) -> int:
    n = getattr(a, "n", None)
    return int(n) if n is not None else len(a)


def _outcome(verdict) -> str:
    if verdict.certificate is not None:
        return verdict.certificate.rule.value
    if verdict.witness is not None:
        return verdict.witness.kind.value
    return verdict.status.value


class Tracer:
    """Per-span ``[calls, total_ns, self_ns]`` plus layer counters."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0, 0])
        self.counters = defaultdict(int)
        self._stack = []  # open spans: [name, child_ns]
        self._installed = []  # (module, attribute, original)
        self.sites = set()  # every import site ever rebound

    def _wrap(self, fn, span):
        stack = self._stack
        stats = self.stats[span]
        counters = self.counters

        def traced(*args, **kwargs):
            if span == "linalg.eigen_decompose":
                counters["linalg.eigen_decompose.n_sum"] += _dim(args[0])
                if any(frame[0] == PARETO for frame in stack):
                    counters["cones.pareto_spectrum.eigen_calls"] += 1
            elif span == PARETO:
                counters["cones.pareto_spectrum.supports"] += 2 ** _dim(args[0]) - 1
            elif span == "probe.falsify":
                counters["probe.falsify.samples"] += (
                    args[1] if len(args) > 1 else kwargs["samples"]
                )
            frame = [span, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if span == "probe.falsify" and result.witness is not None:
                counters["probe.falsify.witnesses"] += 1
            elif span == "certify.certify":
                counters[f"certify.outcome.{_outcome(result)}.count"] += 1
            return result

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "quadsphere" or name.startswith("quadsphere."))
        ]
        for origin, name, span in LAYERS:
            if origin not in sys.modules:
                continue  # e.g. the CLI module in an in-process run
            original = getattr(sys.modules[origin], name)
            wrapper = self._wrap(original, span)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))
                        self.sites.add(f"{module.__name__}.{attr}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_ms(self, prefix: str) -> float:
        """Summed self time of all spans whose name starts with ``prefix``."""
        return sum(s[2] for k, s in self.stats.items() if k.startswith(prefix)) / 1e6

    def dump(self) -> dict:
        return {
            "stats": dict(self.stats),
            "counters": dict(self.counters),
            "sites": sorted(self.sites),
        }

    def merge(self, dumped: dict) -> None:
        for name, (calls, total, own) in dumped["stats"].items():
            s = self.stats[name]
            s[0] += calls
            s[1] += total
            s[2] += own
        for name, value in dumped["counters"].items():
            self.counters[name] += value
        self.sites.update(dumped["sites"])
