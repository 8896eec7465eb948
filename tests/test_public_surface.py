"""No public library function is kept alive only by its tests.

Every module-level public function in ``src/bssmf`` has a caller in ``src/``
or ``bench/``, or is pinned by the acceptance suite (``tests/test_acceptance.py``
imports it) or by the benchmark (a ``*.calls`` layer in BENCHMARK.json names
it). Neither list is written here by hand: both are read from those files.

A caller is a reference that resolves to the function: its bare name where it
is defined (outside its own body) or imported, or ``module.name`` through an
imported ``bssmf`` module, and names re-exported by ``bssmf/__init__.py``.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bssmf"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_functions():
    return sorted((path.stem, node.name) for path in PACKAGE.glob("*.py")
                  for node in _tree(path).body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
# bssmf.<name> -> (module, name), for the names the package re-exports
REEXPORTS = {alias.asname or alias.name: (node.module, alias.name)
             for node in _tree(PACKAGE / "__init__.py").body
             if isinstance(node, ast.ImportFrom) for alias in node.names}


def _bindings(tree, own_module=None):
    """(functions, modules) a file binds: local name -> (module, function) and
    local name -> module ("" for the package itself)."""
    functions, modules = {}, {}
    if own_module:
        functions.update((node.name, (own_module, node.name)) for node in tree.body
                         if isinstance(node, ast.FunctionDef))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "bssmf":
                    modules[alias.asname or package] = module if alias.asname else ""
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:  # relative: only the package's own modules import this way
                package, module = "bssmf", node.module or ""
            if package != "bssmf":
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module:
                    functions[local] = (module, alias.name)
                elif alias.name in MODULES:
                    modules[local] = alias.name
                elif alias.name in REEXPORTS:
                    functions[local] = REEXPORTS[alias.name]
    return functions, modules


def _uses(path, own_module=None):
    """The (module, function) pairs a file refers to."""
    tree = _tree(path)
    functions, modules = _bindings(tree, own_module)
    used = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in functions:
                found.add(functions[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                module = modules[node.value.id]
                found.add((module, node.attr) if module else REEXPORTS.get(node.attr))
        if isinstance(stmt, ast.FunctionDef):  # a recursive call is no caller
            found.discard((own_module, stmt.name))
        used |= found
    return used


def _callers():
    used = set()
    for path in PACKAGE.glob("*.py"):
        used |= _uses(path, own_module=path.stem)
    for path in (ROOT / "bench").rglob("*.py"):
        used |= _uses(path)
    return used


def _pinned():
    functions, _ = _bindings(_tree(ROOT / "tests" / "test_acceptance.py"))
    layers = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return set(functions.values()) | {tuple(m["name"][: -len(".calls")].split("."))
                                      for m in layers if m["name"].endswith(".calls")}


FUNCTIONS = _public_functions()
CALLED = _callers()
PINNED = _pinned()


@pytest.mark.parametrize("module, name", FUNCTIONS, ids=[".".join(f) for f in FUNCTIONS])
def test_function_has_a_caller(module, name):
    assert (module, name) in CALLED | PINNED, (
        f"bssmf.{module}.{name} has no caller in src/ or bench/ and is pinned by neither "
        "the acceptance suite nor BENCHMARK.json: delete it or move it into tests/")


def _private_reads(path):
    """The other modules' _-prefixed names a file reads, as "module._name":
    attributes of an imported bssmf module and names imported from one."""
    tree = _tree(path)
    _, modules = _bindings(tree)
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            reads.add(f"{modules[node.value.id] or 'bssmf'}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            package, _, module = (node.module or "").partition(".")
            if node.level:
                package, module = "bssmf", node.module
            if package == "bssmf":
                reads |= {f"{module or 'bssmf'}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")}
    return sorted(reads)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert _private_reads(path) == [], (
        f"bssmf.{path.stem} reads private names of other modules: make them public "
        "or move the code that needs them")


def _reads_is_full(path):
    return any(isinstance(node, ast.Attribute) and node.attr == "is_full"
               for node in ast.walk(_tree(path)))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_only_matrixcore_tells_full_from_sparse_masks(path):
    assert path.stem == "matrixcore" or not _reads_is_full(path), (
        f"bssmf.{path.stem} reads ObservationMask.is_full: let a matrixcore kernel "
        "or the Workspace tell the two cases apart")
