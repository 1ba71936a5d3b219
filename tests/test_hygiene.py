"""Source hygiene: every module-level import in the package is used, none
of them is numpy, the package root imports no package module, every
public module-level name has a reader, no module reads the environment,
and only the modules that own them build matrices and homs without
validation."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wittnorm"


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a quoted annotation such as -> "IntMatrix" reads the names inside it
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                expr = ast.parse(const.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _read_names(tree))
    assert unused == [], f"{path.name} imports {unused} without reading them"


def _import_time_modules(tree):
    """The modules imported by statements that run on import: any outside a
    function body, at top level or nested in if, try or class."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        stack.extend(ast.iter_child_nodes(node))


def test_import_time_scan_sees_nested_imports():
    tree = ast.parse("import numpy as np\ntry:\n    from numpy import array\nexcept ImportError:\n"
                     "    pass\ndef f():\n    import json\n")
    assert sorted(_import_time_modules(tree)) == ["numpy", "numpy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_numpy_on_import(path):
    # only the F_p[x] Witt cover needs numpy, and it loads it when first built
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy = [m for m in _import_time_modules(tree) if m.split(".")[0] == "numpy"]
    assert numpy == [], f"{path.name} imports numpy on import"


def test_package_root_imports_no_package_module():
    # every process loads the root, so a module it imported would load
    # everywhere; the check covers imports inside functions too
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "wittnorm":
                found.append(f"line {node.lineno}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}" for alias in node.names
                      if alias.name.split(".")[0] == "wittnorm"]
    assert found == [], f"the package root imports package modules at {found}"


def _readme_names():
    """Names in backticks in the README, where the whole span is a dotted name."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = re.findall(r"`([^`]*)`", text)
    return {part for span in spans if re.fullmatch(r"[A-Za-z_][\w.]*", span)
            for part in span.split(".")}


def _module_trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _unread(trees, names):
    """The labels of the (label, name) pairs whose name nothing reads: not
    read in the package, not named in `perfbench/*.py`, not named as API
    in the README."""
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    named = _readme_names()
    return [label for label, name in names
            if name not in read | named and not re.search(rf"\b{name}\b", bench)]


def _public_defs(body):
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_public_names_have_a_reader():
    # a public function or class is read somewhere in the package, used by
    # the benchmark, or named as API in the README; anything else is
    # surface that only tests keep alive
    trees = _module_trees()
    names = [(f"{module}:{node.name}", node.name) for module, tree in trees.items()
             for node in _public_defs(tree.body)]
    unread = _unread(trees, names)
    assert unread == [], f"public names nothing reads: {unread}"


def test_public_methods_have_a_reader():
    # the same rule for the public methods and properties of public classes
    trees = _module_trees()
    names = [(f"{module}:{cls.name}.{node.name}", node.name)
             for module, tree in trees.items()
             for cls in _public_defs(tree.body) if isinstance(cls, ast.ClassDef)
             for node in _public_defs(cls.body) if isinstance(node, ast.FunctionDef)]
    unread = _unread(trees, names)
    assert unread == [], f"public methods nothing reads: {unread}"


def _environment_reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # every setting is an argument or a flag, never an environment variable
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_environment_reads(tree))
    assert lines == [], f"{path.name} reads the environment at lines {lines}"


# the constructors that skip validation: name -> (class, the module that owns it)
UNCHECKED = {"_trusted": ("IntMatrix", "intlinalg.py"), "_reduced": ("GroupHom", "abgroups.py")}
UNCHECKED_OWNERS = {module for _, module in UNCHECKED.values()}


def _unchecked_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in UNCHECKED:
            yield f"{UNCHECKED[node.attr][0]}.{node.attr} at line {node.lineno}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_unchecked_constructors_stay_in_their_modules(path):
    if path.name in UNCHECKED_OWNERS:
        return
    tree = ast.parse(path.read_text(), filename=str(path))
    uses = list(_unchecked_uses(tree))
    assert uses == [], f"{path.name} skips validation: {uses}"


@pytest.mark.parametrize("name", sorted(UNCHECKED))
def test_unchecked_constructor_is_defined(name):
    # the scan above looks for these names; a rename would leave it passing vacuously
    cls, module = UNCHECKED[name]
    tree = ast.parse((SRC / module).read_text(), filename=module)
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    assert [f for c in classes for f in c.body
            if isinstance(f, ast.FunctionDef) and f.name == name]
