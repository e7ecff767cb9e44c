"""Every function, class, method and property in circgeo is used somewhere.

A definition counts as used when its name appears outside its own body: as a
name or attribute in another definition or at module level of a ``circgeo``
module, or as a dotted name in a string, such as the layer targets that
``perfbench/trace_child.py`` wraps by name.  ``__init__.py`` only re-exports,
so it does not count as a use.  Dunders and ``main``, the console entry
point, are exempt.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "circgeo").glob("*.py") if p.name != "__init__.py")
USERS = [*MODULES, ROOT / "perfbench" / "trace_child.py"]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def mentions(tree):
    """(name, line) of every name, attribute and dotted-name string part in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def test_every_definition_is_named_outside_its_own_body():
    used = defaultdict(list)  # name -> [(path, line)]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in USERS}
    for path, tree in trees.items():
        for name, line in mentions(tree):
            used[name].append((path, line))
    unused = []
    for path in MODULES:
        for node in definitions(trees[path]):
            name = node.name
            if name == "main" or (name.startswith("__") and name.endswith("__")):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in used[name]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"defined but never used: {unused}"
