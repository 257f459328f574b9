"""Certifier and falsifier for spherical quasi-convexity of quadratic forms
on the nonnegative orthant patch of the unit sphere.

The decision chain's names are imported with the package.  The generators
(``genex``) and the falsifier and minimizer (``probe``) load on first
access to one of their names, which is then cached in the package
namespace: a ``quadsphere analyze`` process never compiles them.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# eager: loading the submodule quadsphere.certify binds the package's
# ``certify`` to the module, and this import binds the function over it
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
from .linalg import ConvergenceError, SymMatrix
from .sphere import SpherePoint

# public name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        ("make_diag_two_eig", "make_householder", "make_negative_positive",
         "make_positive_basis", "make_three_eigenvalue"),
        "genex",
    ),
    **dict.fromkeys(
        ("MinMethod", "MinResult", "ProbeReport", "falsify", "minimize_orthant"),
        "probe",
    ),
}

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


def __getattr__(name):
    """Resolve a ``genex`` or ``probe`` name and cache it in the package
    namespace, where later lookups and rebinding find it (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
