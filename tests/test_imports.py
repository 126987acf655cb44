"""``src/prefplan`` imports only the standard library and itself, exports
only names it defines, and exports only names its own code uses.

The package declares no dependency; packages that happen to be installed
(numpy, scipy, networkx) must not creep in.
"""

import ast
import importlib
import subprocess
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


def test_cli_import_loads_no_code_generator():
    """Every CLI process imports ``prefplan.cli`` first.  ``dataclasses``
    (which imports ``inspect``) ran ``exec`` for each method of each record,
    most of that import's time; ``-S`` keeps ``site`` from loading either.
    ``mmap`` and ``struct``, which hold and pack the rollout outcomes, are
    loaded by the rollouts alone, and ``array`` by none of src."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import prefplan.cli; "
        "print(sorted({'dataclasses', 'inspect', 'array', 'mmap', 'struct'} & set(sys.modules)))"
    )
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout.strip() == "[]"


def test_cli_import_loads_no_process_or_thread_pool():
    """``monte_carlo`` forks its children with ``os`` alone, and finds out
    whether other threads run by reading ``sys.modules``, not by importing
    ``threading``."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import prefplan.cli; "
        "loaded = lambda: sorted({m.split('.')[0] for m in sys.modules} "
        "& {'multiprocessing', 'concurrent', 'threading'}); "
        "print(loaded()); prefplan.verify._processes(10**6); print(loaded())"
    )
    child = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert child.stdout.split("\n") == ["[]", "[]", ""]


def test_src_generates_no_code():
    calls = {
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in {"exec", "eval", "compile"}
    }
    assert calls == set()
    assert not any("dataclasses" in imported_roots(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py"))


def test_no_src_class_defines_post_init():
    """``record`` runs no ``__post_init__``, so a check put in one would never
    run: each reader checks its input as it builds the record."""
    hooks = {
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and any(getattr(item, "name", None) == "__post_init__" for item in node.body)
    }
    assert hooks == set()


def test_every_export_resolves():
    names = [f"prefplan.{path.stem}" for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    exports = {name: getattr(importlib.import_module(name), "__all__", ()) for name in names}
    assert sum(bool(attrs) for attrs in exports.values()) >= 5
    stale = {name: [a for a in attrs if not hasattr(sys.modules[name], a)] for name, attrs in exports.items()}
    assert {name: attrs for name, attrs in stale.items() if attrs} == {}


# perfbench/run.py's region check imports these; no CLI command runs them.
EXPORTS_WITHOUT_SRC_CALLER = frozenset({"synthesis.MdpView", "verify.value_iteration"})


def exports(tree) -> dict:
    """Each name in the module's ``__all__`` -> the top-level def or class
    defining it, or None."""
    defs = {node.name: node for node in tree.body if hasattr(node, "name")}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            return {elt.value: defs.get(elt.value) for elt in node.value.elts}
    return {}


def references(tree, skip=None) -> set:
    """Every name read and attribute taken in ``tree``, outside ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_has_a_src_caller():
    """``src/`` holds what the CLI runs: an exported name that no other src
    code reads is API kept alive for tests alone, and belongs under tests/."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    found = {module: references(tree) for module, tree in trees.items()}
    uncalled = set()
    for module, tree in trees.items():
        for name, definition in exports(tree).items():
            elsewhere = any(name in refs for other, refs in found.items() if other != module)
            if not elsewhere and name not in references(tree, skip=definition):
                uncalled.add(f"{module}.{name}")
    assert uncalled - EXPORTS_WITHOUT_SRC_CALLER == set()
