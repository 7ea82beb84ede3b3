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
