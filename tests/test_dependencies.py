"""The package imports nothing at run time beyond the standard library,
numpy and click; scipy, mpmath and hypothesis are test-only.  Every module
uses each name it imports, and every function and class is used."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ckernels"
RUNTIME = {"numpy", "click"}


def _imported_modules(path: pathlib.Path) -> list:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_are_found():
    assert (SRC / "sphere.py").is_file()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_or_click(path):
    foreign = sorted(
        set(_imported_modules(path))
        - RUNTIME
        - set(sys.stdlib_module_names)
    )
    assert not foreign, f"{path.name} imports {foreign}"


def _unused_imports(path: pathlib.Path) -> list:
    """Names one source file imports and never reads; ``__future__``
    imports and the names its ``__all__`` re-exports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _unreferenced_definitions() -> list:
    """Module-level functions and classes of the package that no source file
    reads (as a name or as a module attribute), that ``ckernels.__all__``
    does not export and that no decorator registers (the click commands)."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            referenced |= set(ast.literal_eval(node.value))
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.decorator_list
        and node.name not in referenced
    )


def test_every_definition_is_used():
    unused = _unreferenced_definitions()
    assert not unused, f"defined and never used: {unused}"
