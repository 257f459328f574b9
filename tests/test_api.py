"""The public API is pinned: a name joins ``quadsphere.__all__`` only by an
edit to this list, and every name comes from exactly one submodule's
``__all__``."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import quadsphere

PUBLIC = [
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


def test_all_is_pinned():
    assert len(PUBLIC) == 26
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


# run in a fresh interpreter: the first line imports the certify submodule
# before anything else, as ``from quadsphere.certify import Status`` does
LAZY_FACTS = """
import json, sys
import quadsphere.certify
import quadsphere


def loaded():
    return sorted(m for m in sys.modules if m.startswith("quadsphere."))


facts = {
    "unbound": [n for n in quadsphere.__all__ if n not in vars(quadsphere)],
    "loaded": loaded(),
    "dir": dir(quadsphere),
    "certify": type(quadsphere.certify).__name__,
}
first = quadsphere.make_householder
facts["after_first"] = loaded()
facts["first_cached"] = vars(quadsphere).get("make_householder") is first
star = {}
exec("from quadsphere import *", star)
facts["star"] = sorted(k for k in star if k != "__builtins__")
facts["owners"] = {
    name: [
        m.__name__ for m in map(sys.modules.get, loaded())
        if name in getattr(m, "__all__", ())
        and getattr(m, name) is star[name] is vars(quadsphere)[name]
    ]
    for name in facts["unbound"]
}
try:
    quadsphere.no_such_name
except AttributeError as exc:
    facts["unknown"] = str(exc)
print(json.dumps(facts))
"""


def test_generators_and_probe_load_on_first_access():
    env = dict(os.environ)
    src = str(Path(quadsphere.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_FACTS], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    facts = json.loads(proc.stdout)
    genex = [name for name in PUBLIC if name.startswith("make_")]
    probe = ["MinMethod", "MinResult", "ProbeReport", "falsify", "minimize_orthant"]
    assert facts["unbound"] == genex + probe
    assert not {"quadsphere.genex", "quadsphere.probe"} & set(facts["loaded"])
    assert set(PUBLIC) <= set(facts["dir"])
    assert facts["certify"] == "function"
    assert "quadsphere.genex" in facts["after_first"]
    assert "quadsphere.probe" not in facts["after_first"]
    assert facts["first_cached"]
    assert facts["star"] == sorted(PUBLIC) and len(facts["star"]) == 26
    assert facts["owners"] == {
        **{name: ["quadsphere.genex"] for name in genex},
        **{name: ["quadsphere.probe"] for name in probe},
    }
    assert facts["unknown"] == "module 'quadsphere' has no attribute 'no_such_name'"
