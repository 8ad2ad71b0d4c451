"""Every name the benchmark tracer wraps must exist in the library.

``benchmarks/tracer.py`` looks each traced name up with ``getattr`` when a
traced run starts, so a renamed or removed function would crash every
traced benchmark run.  The tracer source is compiled and executed here
without writing anything next to it.
"""
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def tracer_namespace():
    namespace = {"__name__": "benchmark_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_traced_targets_resolve():
    tracer = tracer_namespace()
    missing = []
    for short, attrs in tracer["TARGETS"].items():
        module = importlib.import_module(f"parafusion.{short}")
        for attr in attrs:
            obj = getattr(module, attr, None)
            if obj is None or not callable(obj):
                missing.append(f"{short}.{attr}")
            elif isinstance(obj, type) and not hasattr(obj, tracer["CLASS_HOOKS"][attr]):
                missing.append(f"{short}.{attr}.{tracer['CLASS_HOOKS'][attr]}")
    assert missing == []
