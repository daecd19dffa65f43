"""The package's public surface: ``semiring_lab.__all__`` lists exactly what
``__init__.py`` imports, in order, and nothing deleted lingers there."""

import ast
import importlib
from pathlib import Path

import semiring_lab

# names deleted from the library, by the module that defined them
REMOVED = {
    "semiring": ("DifferencePair", "DifferenceRing", "NotCancellativeError", "difference_embed"),
    "conjectures": ("UnitIdealCandidate", "one_plus_Tu_in_P"),
}


def test_all_lists_exactly_the_imported_public_names():
    exported = semiring_lab.__all__
    for name in exported:
        getattr(semiring_lab, name)
    assert list(exported) == sorted(set(exported))
    tree = ast.parse(Path(semiring_lab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(exported) == {name for name in imported if not name.startswith("_")}
    for module, names in REMOVED.items():
        submodule = importlib.import_module(f"semiring_lab.{module}")
        for name in names:
            assert not hasattr(semiring_lab, name), name
            assert not hasattr(submodule, name), name
