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


def _unbounded_cache(node) -> bool:
    """functools.cache, or lru_cache with maxsize None."""
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name == "cache" for alias in node.names)
    if isinstance(node, ast.Attribute) and node.attr == "cache":
        return isinstance(node.value, ast.Name) and node.value.id == "functools"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)
    return False


def test_every_cache_is_bounded():
    """Caches are shared for the life of the process, so each has a
    finite maxsize.  The finite-field tables are bounded too: ext_field
    keeps at most 256 fields, and each field's tables hold at most
    2 * gf.MAX_TABLE_ORDER entries, since a larger field raises TooLarge."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _unbounded_cache(node)]
    assert SOURCES and not found, found


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/tracing.py wraps public functions by name; a rename or a
    deletion would otherwise break only the traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = (function_field.span_nonzero, function_field.expand_at,
                 pipeline.gamma_support)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert function_field.span_nonzero is not originals[0]
        assert pipeline.expand_at is function_field.expand_at is not originals[1]
    finally:
        tracer.remove()
    assert (function_field.span_nonzero, function_field.expand_at,
            pipeline.gamma_support) == originals
