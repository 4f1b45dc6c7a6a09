"""Import hygiene of the package sources, checked on their syntax trees.

Every name a module of ``src/procrec`` imports must be used in that module;
the re-exports of ``__init__.py`` are exempt. Every name in a module's
``__all__``, and every name ``procrec`` re-exports, must be bound at the top
level of the module it is taken from. Deleting code therefore cannot leave a
stale import or ``__all__`` entry behind.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "procrec"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


@functools.cache
def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import outside ``from __future__``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree: ast.Module) -> set[str]:
    names = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    tree = _tree(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(_all(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{module}.py imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    tree = _tree(module)
    exported = [(module, name) for name in _all(tree)]
    if module == "__init__":
        exported += [
            (node.module, a.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for a in node.names
        ]
    missing = [f"{source}.{name}" for source, name in exported if name not in _top_level_names(_tree(source))]
    assert not missing, f"{module}.py exports names that are not defined: {', '.join(missing)}"


def _added_at_cli_setup(prefix: str) -> str:
    """The printed list of modules under ``prefix`` that procrec.cli's import and parser add to a bare numpy."""
    code = (
        "import sys, numpy; bare = set(sys.modules); "
        "import procrec.cli; procrec.cli.build_parser(); "
        f"print([m for m in sys.modules if m.startswith({prefix!r}) and m not in bare])"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_setup_leaves_numpy_random_unloaded():
    # numpy.random takes milliseconds to import; it loads at the first draw, not at setup. numpy 2
    # loads it lazily, numpy 1.x in its own __init__, so only what procrec adds to a bare numpy counts
    assert _added_at_cli_setup("numpy.random") == "[]"


def test_cli_setup_loads_no_executor():
    # instruments run one at a time in the command's own process: no pool module is imported
    assert _added_at_cli_setup("concurrent.futures") == "[]"
