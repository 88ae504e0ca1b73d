"""The names a traced benchmark run rebinds must exist in the library."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import BINDINGS
    for module_name, attr, _, _ in BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr} is traced by the benchmark but does not exist"
