import ast
import importlib
from pathlib import Path

import pytest

import pqgalerkin

MODULES = ["mesh", "fespace", "operators", "estimates", "galerkin", "verify",
           "cli"]


def _package_reexports(module: str):
    tree = ast.parse(Path(pqgalerkin.__file__).read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"pqgalerkin.{name}")
    namespace = {}
    exec(f"from pqgalerkin.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    for attr in _package_reexports(name):
        assert getattr(pqgalerkin, attr) is getattr(module, attr)


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used - exported)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in Path(pqgalerkin.__file__).parent.glob("*.py")
           if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    # the package's lint: a top-level import the module never names
    assert _unused_imports(path) == []
