"""The benchmark's tracer wraps package functions by name; they must exist,
and its span reducers must read what the pipeline returns."""

import ast
import importlib
from pathlib import Path

import pytest

import nonlocal_transport
from nonlocal_transport import darcy, experiment, medium
from nonlocal_transport.config import load_config
from test_cli import tiny_config, write_config

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


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ in this tree")
def test_the_tracers_span_reducers_read_a_tiny_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TRACER.parent))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    data = tiny_config(tmp_path / "out")
    data["learning"]["models"] = ["nonlocal", "fractal", "classical", "mlp"]
    cfg = load_config(write_config(tmp_path, data))
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.run = "own"
        experiment.run_generate(cfg)
        experiment.run_learn(cfg)
        # the tracer's CG probe, the only caller of solve_darcy
        spans.run = "probe-cg"
        darcy.solve_darcy(medium.build_conductivity(
            cfg.medium, cfg.grid_nx, cfg.grid_ny), cfg.medium,
            direct_max_unknowns=0)
    finally:
        spans.uninstall()
    spans.digest()
    reduced = [s for s in spans.spans if s["name"] in tracer.REDUCERS]
    assert {s["name"] for s in reduced} == set(tracer.REDUCERS)
    for span in reduced:
        assert span["attrs"], span["name"]
        assert workloads._finite_numbers(span["attrs"]) == [], span["name"]
    checks = workloads.Checks()
    tracer._check_invariants(checks, tracer.SpanIndex(spans.spans))
    assert checks.attempted and checks.failed == 0, checks.results
