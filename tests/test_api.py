"""The public API is pinned: a name joins ``quadsphere.__all__`` only by an
edit to this list, and every name comes from exactly one submodule's
``__all__``."""

import importlib
import pkgutil

import quadsphere

PUBLIC = [
    # certify
    "Certificate", "Rule", "Status", "Verdict", "Witness", "WitnessKind",
    "certify", "construct_diag_witness", "pair_violation_margin",
    "verify_witness",
    # config
    "Config",
    # cones
    "ParetoEigenpair", "ParetoSpectrum", "is_copositive", "pareto_spectrum",
    # genex
    "make_diag_two_eig", "make_householder", "make_negative_positive",
    "make_positive_basis", "make_three_eigenvalue",
    # linalg
    "ConvergenceError", "EigenStructure", "EigenSystem", "SymMatrix",
    "cluster_eigenvalues", "eigen_decompose", "is_diagonal",
    # probe
    "MinMethod", "MinResult", "ProbeReport", "falsify", "minimize_orthant",
    # sphere
    "SpherePoint",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 33
    assert quadsphere.__all__ == PUBLIC


def test_every_name_comes_from_one_submodule():
    modules = [
        importlib.import_module(f"quadsphere.{info.name}")
        for info in pkgutil.iter_modules(quadsphere.__path__)
    ]
    for name in quadsphere.__all__:
        owners = [m for m in modules if name in getattr(m, "__all__", ())]
        assert len(owners) == 1, (name, [m.__name__ for m in owners])
        assert getattr(quadsphere, name) is getattr(owners[0], name)
