"""Shared tolerance and sampling knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

__all__ = ["Config", "DEFAULT"]


@dataclass(frozen=True)
class Config:
    """Tolerances and budgets used across the certifier and probes.

    tol_margin   -- a violation counts only beyond tol_margin * sigma
                    (plus round-off), sigma = ||A - (tr A / n) I||_F; also
                    the Z-pattern threshold of certify step 1
    tol_sign     -- slack for orthant-membership tests of eigenvectors
                    (certify steps 3, 4 and 6, the Perron screen)
    tol_slack    -- certify step 6's floor, -tol_slack * sigma, reached
                    only when no witness verifies; in cones,
                    times ||A||_F, which a shift moves: the
                    complementarity slack of Pareto eigenpairs off the
                    support, the copositivity threshold on the least Pareto
                    value, and how far above lambda1 the Perron screen's
                    clipped point may lie (plus n eps of round-off)
    max_exact_dim -- largest dimension for exhaustive support enumeration
                     (the CLI pareto and copositive commands,
                     minimize_orthant, and certify step 6 inside the
                     tolerance band); the enumeration never runs above
                     n = 18, whatever this says.  The screens are not
                     capped: minimize_orthant runs the Perron screen at
                     every n, and is_copositive its screens at every n,
                     before it walks any support
    samples      -- sampling budget of the falsifier, which only the probe
                    command runs; certify samples nothing
    seed         -- seed of the probe command's falsifier and of
                    minimize_orthant's descent starts (nonnegative, as
                    numpy's generators require); certify reads neither

    The tolerances must be finite and nonnegative: a negative tol_margin
    would accept a zero-margin violation as a No witness, and a NaN one
    would reject every witness.  max_exact_dim must be nonnegative (0
    enumerates nothing), samples at least 1 and seed nonnegative.
    """

    tol_margin: float = 1e-8
    tol_sign: float = 1e-10
    tol_slack: float = 1e-9
    max_exact_dim: int = 16
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("tol_margin", "tol_sign", "tol_slack"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if self.max_exact_dim < 0:
            raise ValueError(f"max_exact_dim must be nonnegative, got {self.max_exact_dim!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT = Config()
