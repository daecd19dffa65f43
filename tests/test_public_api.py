"""The package's public surface: ``semiring_lab.__all__`` lists exactly the
names of the package's table, each resolves to the object its home layer
defines, nothing deleted lingers there, and a caller loads only the layers
whose names it touches."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import semiring_lab

# names deleted from the library, by the module that defined them
REMOVED = {
    "semiring": ("DifferencePair", "DifferenceRing", "NotCancellativeError", "difference_embed"),
    "conjectures": ("UnitIdealCandidate", "one_plus_Tu_in_P"),
}


def test_all_lists_exactly_the_table_names_from_their_home_layers():
    exported = semiring_lab.__all__
    assert list(exported) == sorted(set(exported))
    assert set(exported) == set(semiring_lab._HOMES)
    assert set(exported) <= set(dir(semiring_lab))
    for name, home in semiring_lab._HOMES.items():
        module = importlib.import_module(f"semiring_lab.{home}")
        value = getattr(semiring_lab, name)
        assert value is getattr(module, name), name
        # the home is where the name is defined, not a layer that re-exports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    for module, names in REMOVED.items():
        submodule = importlib.import_module(f"semiring_lab.{module}")
        for name in names:
            assert not hasattr(semiring_lab, name), name
            assert not hasattr(submodule, name), name


# touches each name given on the command line, then prints the loaded layers
_LAYERS_AFTER = """
import json, sys
import semiring_lab
for name in sys.argv[1:]:
    getattr(semiring_lab, name)
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("semiring_lab."))))
"""

# prints the exported names that a star import leaves unbound
_STAR = """
import semiring_lab
namespace = {}
exec("from semiring_lab import *", namespace)
print([n for n in semiring_lab.__all__ if namespace.get(n) is not getattr(semiring_lab, n)])
"""


def _fresh(script: str, *argv: str) -> str:
    """Run ``script`` in a new interpreter that imports this copy of the package."""
    src = str(Path(semiring_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_caller_loads_only_the_layers_it_touches():
    assert json.loads(_fresh(_LAYERS_AFTER)) == []
    cone = ("Presentation", "EvalHom", "Budget", "parse_poly", "cone_enumerate")
    assert json.loads(_fresh(_LAYERS_AFTER, *cone)) == ["polynomials", "semiring"]
    subring = ("AbhyankarContext", "subalgebra_membership", "ideal_membership")
    assert json.loads(_fresh(_LAYERS_AFTER, *subring)) == ["abhyankar", "groebner", "polynomials"]


def test_star_import_binds_every_exported_name():
    assert _fresh(_STAR).strip() == "[]"
