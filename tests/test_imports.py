"""``src/prefplan`` imports only the standard library and itself, and
exports only names it defines.

The package declares no dependency; packages that happen to be installed
(numpy, scipy, networkx) must not creep in.
"""

import ast
import importlib
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prefplan"
ALLOWED = frozenset({"prefplan"})


def imported_roots(source: str) -> set:
    """Top-level package of every absolute import in ``source``."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def foreign(roots) -> set:
    return {root for root in roots if root not in ALLOWED and root not in sys.stdlib_module_names}


def test_checker_flags_undeclared_packages():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from scipy import sparse\n"
        "from . import mdp\n"
        "def f():\n"
        "    import networkx\n"
    )
    assert imported_roots(source) == {"os", "numpy", "scipy", "networkx"}
    assert foreign(imported_roots(source)) == {"numpy", "scipy", "networkx"}


def test_prefplan_imports_only_stdlib_and_itself():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 9
    found = {
        path.name: sorted(foreign(imported_roots(path.read_text(encoding="utf-8"))))
        for path in files
    }
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_every_export_resolves():
    names = [f"prefplan.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    exports = {name: getattr(importlib.import_module(name), "__all__", ()) for name in names}
    assert sum(bool(attrs) for attrs in exports.values()) >= 5
    stale = {name: [a for a in attrs if not hasattr(sys.modules[name], a)] for name, attrs in exports.items()}
    assert {name: attrs for name, attrs in stale.items() if attrs} == {}
