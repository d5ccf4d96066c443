"""No dead names in the package: every import is used, every private name read.

Each module of src/modnopo is parsed with ast.  An imported name must be
read in its module (or listed in its __all__), and a module-level _private
name must be read somewhere in the package, by name, as an attribute or
through an import.  Docstrings and comments do not count as uses.  Every
entry of the package's __all__ must name one of its attributes and be read
outside __init__, in the package, the demos or perfbench: a public name
that only tests read is surface kept for its tests.  So must every
module-level UPPER_CASE constant: a limit or tolerance whose code is gone
is a number that no longer bounds anything.
"""

import ast
import re
from pathlib import Path

import pytest

import modnopo

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "modnopo"
MODULES = sorted(PACKAGE.glob("*.py"))
# Code that uses the package: its own modules, the demos and the benchmark.
CALLERS = ([p for p in MODULES if p.stem != "__init__"]
           + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))
# perfbench's gates import DIVERGENCE_BUDGET from both ensemble modules
REEXPORTS = {("positivep", "DIVERGENCE_BUDGET"), ("qsd", "DIVERGENCE_BUDGET")}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree) -> set:
    """Names read in tree: loaded names, attribute names and __all__ entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts)
    return names


def _imported(tree) -> list:
    """(line, name bound) for each import of the module, __future__ aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    return out


def _private_defs(tree) -> list:
    """(line, name) of each module-level _private function, class or variable."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


def _constants(tree) -> list:
    """(line, name) of each module-level UPPER_CASE constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((node.lineno, t.id) for t in targets
                       if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id))
    return out


def _package_reads() -> set:
    names = set()
    for path in MODULES:
        tree = _tree(path)
        names |= _reads(tree)
        names.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = _tree(path)
    reads = _reads(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imported(tree)
              if name not in reads and (path.stem, name) not in REEXPORTS]
    assert not unused


def test_every_private_name_is_read():
    reads = _package_reads()
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in _private_defs(_tree(path)) if name not in reads]
    assert not unread


def test_every_public_name_exists():
    # a deletion that leaves its __all__ entry behind breaks star imports
    missing = [name for name in modnopo.__all__ if not hasattr(modnopo, name)]
    assert not missing


def test_every_public_name_has_a_caller():
    reads = set().union(*(_reads(_tree(path)) for path in CALLERS))
    uncalled = [name for name in modnopo.__all__
                if name != "__version__" and name not in reads]
    assert not uncalled


def test_every_constant_has_a_caller():
    # loaded names and attributes only: an __all__ entry is not a read
    reads = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for line, name in _constants(_tree(path)) if name not in reads]
    assert not unread
