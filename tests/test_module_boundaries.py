"""Modules of the package use each other's public names only."""

import ast
from pathlib import Path

import flrlab

SOURCES = sorted(Path(flrlab.__file__).parent.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """``from .x import _name`` (dunder names exempt), with its line number."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level > 0 or (node.module or "").split(".")[0] == "flrlab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_sources_are_found():
    assert {"covariance.py", "designs.py", "estimators.py"} <= {p.name for p in SOURCES}


def test_no_module_imports_private_names():
    offenders = [hit for path in SOURCES for hit in private_imports(path)]
    assert not offenders, offenders
