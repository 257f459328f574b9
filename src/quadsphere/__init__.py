"""Certifier and falsifier for spherical quasi-convexity of quadratic forms
on the nonnegative orthant patch of the unit sphere."""

__version__ = "0.1.0"

from .certify import (
    Certificate,
    Rule,
    Status,
    Verdict,
    Witness,
    WitnessKind,
    certify,
    verify_witness,
)
from .config import Config
from .cones import (
    ParetoEigenpair,
    ParetoSpectrum,
    is_copositive,
    pareto_spectrum,
)
from .genex import (
    make_diag_two_eig,
    make_householder,
    make_negative_positive,
    make_positive_basis,
    make_three_eigenvalue,
)
from .linalg import ConvergenceError, SymMatrix
from .probe import (
    MinMethod,
    MinResult,
    ProbeReport,
    falsify,
    minimize_orthant,
)
from .sphere import SpherePoint

__all__ = [
    # certify
    "Certificate", "Rule", "Status", "Verdict", "Witness", "WitnessKind",
    "certify", "verify_witness",
    # config
    "Config",
    # cones
    "ParetoEigenpair", "ParetoSpectrum", "is_copositive", "pareto_spectrum",
    # genex
    "make_diag_two_eig", "make_householder", "make_negative_positive",
    "make_positive_basis", "make_three_eigenvalue",
    # linalg
    "ConvergenceError", "SymMatrix",
    # probe
    "MinMethod", "MinResult", "ProbeReport", "falsify", "minimize_orthant",
    # sphere
    "SpherePoint",
]
