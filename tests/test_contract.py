import ast
import importlib.util
from pathlib import Path

import elladic
from elladic import function_field, pipeline

SOURCES = sorted(Path(elladic.__file__).resolve().parent.glob("*.py"))


def test_no_assert_as_a_runtime_check():
    """assert vanishes under python -O, so invariants raise typed errors."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert SOURCES and not found, found


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracing.py wraps public functions by name; a rename or a
    deletion would otherwise break only the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (function_field.span_nonzero, function_field.rr_space,
                 pipeline.gamma_support)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert function_field.span_nonzero is not originals[0]
        assert pipeline.span_nonzero is function_field.span_nonzero
    finally:
        tracer.remove()
    assert (function_field.span_nonzero, function_field.rr_space,
            pipeline.gamma_support) == originals
