"""Every function, class, method, property and optional parameter in circgeo is used.

A definition counts as used when its name appears outside its own body: as a
name or attribute in another definition or at module level of a ``circgeo``
module, or as a dotted name in a string, such as the layer targets that
``perfbench/trace_child.py`` wraps by name.  ``__init__.py`` holds only its
docstring, so that each name is imported from its own module.  A parameter
with a default counts as used when some call in ``src/`` sets it, by keyword
or by position; otherwise it is a second way to call the function that only
the tests take.  Dunders and ``main``, the console entry point, are exempt;
dataclass fields are not parameters of a function and are not checked.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "circgeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
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


def exempt(name):
    return name == "main" or (name.startswith("__") and name.endswith("__"))


def defaulted(node, bound):
    """(name, index among a call's positional arguments or None) of each parameter
    of node that has a default; bound is 1 for a method called on an instance."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def sets(call, name, index):
    """Whether call passes the parameter name, at index among positional arguments."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **mapping
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


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
            if exempt(name):
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in body for p, line in used[name]):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"defined but never used: {unused}"


def test_every_default_is_overridden_by_some_call_in_src():
    calls = defaultdict(list)  # callee name -> [ast.Call]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in MODULES}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    functions = []  # (path, node, bound)
    for path, tree in trees.items():
        methods = {}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for m in cls.body:
                if isinstance(m, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    methods[m] = 0 if static else 1
        functions += [(path, node, methods.get(node, 0)) for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and not exempt(node.name)]
    never_set = [
        f"{path.name}:{node.lineno} {node.name}({name}=...)"
        for path, node, bound in functions
        for name, index in defaulted(node, bound)
        if not any(sets(call, name, index) for call in calls[node.name])
    ]
    assert not never_set, f"defaults that no call in src/ overrides: {never_set}"


def test_package_init_is_only_its_docstring():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr), "a second import path"
    assert isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
