"""The names `benchmark/tracing.py` wraps stay bound in bdcsim.

The tracer swaps module attributes for timed wrappers, and some of them
(`cli.run`, `cli.steady_window`, `cli.trace_from_csv`) are bound for it
alone, so a refactor could drop one without any other test noticing."""

import importlib
import importlib.util
from pathlib import Path

from bdcsim import sim

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def test_wrapped_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, _ in tracing.WRAPPED:
        bound = getattr(importlib.import_module(f"bdcsim.{module}"), attr, None)
        assert callable(bound), f"bdcsim.{module}.{attr}"
    assert callable(sim.Trace.to_csv)
