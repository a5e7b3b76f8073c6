"""The demos are too slow to run here (minutes in all), so each one is only
parsed, and every name it imports from baitradar must resolve. A renamed or
removed API then fails this test instead of the demo. So does a name that
``baitradar.__all__`` exports but the package lacks."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "baitradar":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "baitradar":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}:{node.lineno}: {node.module} has no {missing}"


def test_package_exports_resolve():
    package = importlib.import_module("baitradar")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"baitradar.__all__ names {missing}, which the package lacks"
