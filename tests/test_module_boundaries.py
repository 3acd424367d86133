"""Modules of the package use each other's public names only."""

import ast
import re
from collections import Counter
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


def grid_input_checks(source: str) -> list[int]:
    """Lines of ``isinstance(x, GridFunction)`` calls, also with GridFunction
    in a tuple of types or read as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        types = node.args[1]
        for t in types.elts if isinstance(types, ast.Tuple) else [types]:
            if (t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)) == "GridFunction":
                lines.append(node.lineno)
    return lines


def test_no_module_takes_grid_input():
    # The library reads coefficient vectors only; grid values are rendered
    # for output and never come back in.
    assert grid_input_checks("isinstance(f, (np.ndarray, fs.GridFunction))\n"
                             "isinstance(f, GridFunction)") == [1, 2]
    offenders = [f"{path.name}:{line}" for path in SOURCES
                 for line in grid_input_checks(path.read_text(encoding="utf-8"))]
    assert not offenders, offenders


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names whose only callers are tests: the acceptance criteria read
# them as references. The two log-likelihoods are the two sides of
# criterion 3's reduction identity.
TEST_REFERENCES = {"conditional_loglik", "reduced_loglik"}


def public_definitions(path: Path) -> list[ast.AST]:
    """Top-level functions and classes of a module whose names are public."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def name_reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller():
    # Public API that nothing uses is deleted: every public top-level name is
    # read somewhere in the package outside its own definition (exports in
    # __init__ do not count), or used by the benchmark, or is an
    # acceptance-criterion reference.
    paths = [path for path in SOURCES if path.name != "__init__.py"]
    reads = sum((name_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in paths),
                Counter())
    benchmark = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    unused = [f"{path.name}:{node.lineno}: {node.name}"
              for path in paths for node in public_definitions(path)
              if reads[node.name] == name_reads(node)[node.name]
              and node.name not in TEST_REFERENCES
              and not re.search(rf"\b{node.name}\b", benchmark)]
    assert not unused, unused
