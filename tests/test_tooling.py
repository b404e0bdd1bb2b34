"""The benchmark's tracer wraps package functions by name; they must exist."""

import ast
from pathlib import Path

import pytest

import nonlocal_transport

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PACKAGE = Path(nonlocal_transport.__file__).parent


def top_level_assignment(path, name):
    """The literal value assigned to ``name`` at the top of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no {name}")


def defined_names(path):
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ in this tree")
def test_every_name_the_tracer_wraps_is_defined():
    # read, not imported: the tracer imports the benchmark's own modules
    targets = top_level_assignment(TRACER, "TARGETS")
    assert targets
    missing = [f"{module}.{name}" for module, names in targets.items()
               for name in names
               if name not in defined_names(PACKAGE / f"{module}.py")]
    assert missing == []
