"""Shared tolerance and sampling knobs."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

__all__ = ["Config", "DEFAULT"]


@dataclass(frozen=True)
class Config:
    """Tolerances and budgets used across the certifier and probes.

    tol_margin   -- a violation counts only beyond this margin (also the
                    Z-pattern threshold of certify step 2)
    tol_sign     -- slack for orthant-membership tests of eigenvectors
                    (certify steps 4-6)
    tol_slack    -- complementarity slack for Pareto eigenpairs,
                    (Ax - lambda x) >= -tol_slack * min(1, ||A||_F) off the
                    support, and the copositivity threshold: least Pareto
                    value (or certify step 5's bound) >= -tol_slack *
                    min(1, ||A||_F); a matrix below unit norm gets a slack
                    and a threshold that scale with it, as its Pareto
                    values and residuals do
    max_exact_dim -- largest dimension for exhaustive support enumeration
                     (the CLI pareto and copositive commands,
                     minimize_orthant, and certify step 5 inside the
                     tolerance band); the enumeration never runs above
                     n = 18, whatever this says
    samples      -- sampling budget for the falsifier
    seed         -- master seed for all randomized search (nonnegative,
                    as numpy's generators require)

    The tolerances must be finite and nonnegative: a negative tol_margin
    would accept a zero-margin violation as a No witness, and a NaN one
    would reject every witness.
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
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")

    def as_dict(self) -> dict:
        return asdict(self)


DEFAULT = Config()
