"""The package imports nothing at run time beyond the standard library,
numpy and click; scipy, mpmath and hypothesis are test-only."""

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
