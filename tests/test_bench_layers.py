"""Tripwire for the names the benchmark calls.

`bench/layers.py` wraps package functions by name and counts the rows of
`_objective_batch` and `rom_lp_batch` through their first parameters,
`params` and `bloch`.  A rename or deletion here would silently drop those
per-layer metrics, so this test imports the layer table (without writing
bytecode next to it) and checks every `optimize`, `measures` and `polytope`
target against the package, and the two oracles' signatures.

`bench/workloads.py` and `bench/setup_probe.py` call package attributes by
name; those names are checked here too.  The verify workload would rebind
`checks.scan_polytope_crossings`, if present, to count the geometry suite's
scans; the suite now makes one `checks.scan_crossings_batch` call over all
its segments instead, checked below.  The search workload's check rebuilds
each outcome's unitary with `build_unitary(outcome.params)`.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from magicbroadcast import checks, cloners, measures, optimize, polytope

BENCH = Path(__file__).resolve().parent.parent / "bench"


_BENCH_MODULES = ("layers", "spans", "workloads")


def _import_layers(monkeypatch, module="layers"):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return importlib.import_module(module)
    finally:
        for name in _BENCH_MODULES:
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


TRACED_ORACLES = {
    "measures": {"rom_lp_batch"},
    "polytope": {"scan_polytope_crossings", "line_polytope_intersections",
                 "broadcast_geometry_certificate"},
}


@pytest.mark.parametrize("module", sorted(TRACED_ORACLES))
def test_every_traced_oracle_target_resolves(monkeypatch, module):
    layers = _import_layers(monkeypatch)
    mod = importlib.import_module(f"magicbroadcast.{module}")
    targets = [t.attr for t in layers.TARGETS if t.module == module]
    assert set(targets) >= TRACED_ORACLES[module]
    assert [a for a in targets if not callable(getattr(mod, a, None))] == []


def test_the_oracle_signatures_the_layer_table_reads():
    # `rom_lp_batch` rows are counted through its first parameter, `bloch`
    lp = inspect.signature(measures.rom_lp_batch).parameters
    assert next(iter(lp)) == "bloch"
    scan = inspect.signature(polytope.scan_polytope_crossings).parameters
    assert list(scan) == ["b0", "b1", "r", "points"]


BENCH_NAMES = {
    "checks": ("run_suite",),
    "cloners": ("BroadcasterSpec", "theorem2_falsify"),
    "cli": ("build_parser", "main", "cmd_magic", "cmd_clone", "cmd_geometry"),
    "errors": ("MagicBroadcastError",),
    "measures": ("rom_lp_oracle",),
    "optimize": ("OptimizerConfig", "batch_experiment", "build_unitary"),
    "stabilizers": ("clifford_group_1q", "pauli_matrices", "stabilizer_states"),
    "states": ("DensityMatrix", "haar_random_pure", "partial_trace",
               "t_state", "t_perp_state", "h_state"),
}


@pytest.mark.parametrize("module", sorted(BENCH_NAMES))
def test_every_name_the_workloads_call_resolves(module):
    mod = importlib.import_module(f"magicbroadcast.{module}")
    assert [a for a in BENCH_NAMES[module] if not hasattr(mod, a)] == []


def test_geometry_suite_scans_through_the_checks_global(monkeypatch):
    calls = []
    original = checks.scan_crossings_batch

    def counted(b0, b1, r, points):
        calls.append(len(r))
        return original(b0, b1, r, points)

    monkeypatch.setattr(checks, "scan_crossings_batch", counted)
    assert checks.run_suite("geometry", n_samples=5, seed=1).passed
    assert calls == [2 * 5]


def test_the_traced_spec_hook_resolves():
    # wrapped by name as `cloners.BroadcasterSpec.init`
    assert callable(getattr(cloners.BroadcasterSpec, "__post_init__", None))


def test_build_unitary_takes_the_params_of_a_search_outcome():
    cfg = optimize.OptimizerConfig(population=4, max_evals=8, restarts=1)
    (outcome,) = optimize.batch_experiment(1, "magic", cfg).per_sample
    assert measures.magic_power(optimize.build_unitary(outcome.params)) == outcome.magic_power


def test_the_query_mix_parses_with_the_per_command_flags(monkeypatch):
    # building the inputs parses every argv of the mix and of ERROR_INPUTS
    workloads = _import_layers(monkeypatch, "workloads")
    queries = workloads.Queries(seed=1, blocks=1)
    calls = queries.inputs(0)
    assert len(calls) == workloads.CALLS_PER_BLOCK
    assert sum(q.kind == "error" for q in calls) == len(workloads.ERROR_INPUTS)
    clones = [q.ns for q in calls if q.handler == "cmd_clone"]
    # the layer table reads `machine`, wz's `input` and an integer `sweep_points`
    assert {ns.machine for ns in clones} == {"wz", "bh"}
    assert all(isinstance(ns.sweep_points, int) for ns in clones)
    assert all(hasattr(ns, "input") for ns in clones if ns.machine == "wz")
