"""Tripwire for the traced search layer of the benchmark.

`bench/layers.py` wraps `optimize` functions by name and counts the rows of
`_objective_batch` through its first parameter, `params`.  A rename or
deletion here would silently drop those per-layer metrics, so this test
imports the layer table (without writing bytecode next to it) and checks
every `optimize` target against the package.
"""
import importlib
import inspect
import sys
from pathlib import Path

from magicbroadcast import optimize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _import_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in ("layers", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return importlib.import_module("layers")
    finally:
        for name in ("layers", "spans"):
            sys.modules.pop(name, None)


def test_every_traced_optimize_target_resolves(monkeypatch):
    layers = _import_layers(monkeypatch)
    targets = [t for t in layers.TARGETS if t.module == "optimize"]
    assert {t.attr for t in targets} >= {
        "batch_experiment", "isres_optimize", "_es_run", "_objective_batch",
    }
    missing = [t.attr for t in targets if not callable(getattr(optimize, t.attr, None))]
    assert missing == []
    first = next(iter(inspect.signature(optimize._objective_batch).parameters))
    assert first == "params"
