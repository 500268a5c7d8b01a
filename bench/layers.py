"""Which package functions the traced run wraps, and the per-layer metrics
computed from the spans.

Every span is named `<module>.<function>` (`<module>.<Class>.init` for a
`__post_init__`).  Span totals are reported per pass, so a layer's numbers
do not depend on how many passes fit into the run.
"""
from __future__ import annotations

from spans import Target

SUITES = (
    "lemma1", "clifford", "additivity", "convexity",
    "theorem2", "theorem3", "geometry", "monotone",
)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _rows(args, kwargs, index, name):
    value = _arg(args, kwargs, index, name)
    shape = getattr(value, "shape", None)
    if shape is None:
        return len(value)
    return 1 if len(shape) < 2 else shape[0]


def _level_bucket(args, kwargs):
    level = _arg(args, kwargs, 0, "level")
    if level < 1.5:
        return "lvl_lo"
    return "lvl_mid" if level < 1.7 else "lvl_hi"


def _is_sweep(args, kwargs):
    ns = _arg(args, kwargs, 0, "args")
    return ns.machine == "bh" or not ns.input


def _clone_kind(args, kwargs):
    return "sweep" if _is_sweep(args, kwargs) else "input"


def _sweep_points(args, kwargs):
    return _arg(args, kwargs, 0, "args").sweep_points if _is_sweep(args, kwargs) else 0


TARGETS = (
    Target("optimize", "batch_experiment", "optimize.batch_experiment"),
    Target("optimize", "isres_optimize", "optimize.isres_optimize"),
    Target("optimize", "_es_run", "optimize._es_run"),
    Target("optimize", "_objective_batch", "optimize._objective_batch",
           units=lambda a, k: _rows(a, k, 0, "params")),
    Target("states", "PureState.__post_init__", "states.PureState.init"),
    Target("states", "DensityMatrix.__post_init__", "states.DensityMatrix.init"),
    Target("states", "haar_random_pure", "states.haar_random_pure"),
    Target("measures", "rom_lp_batch", "measures.rom_lp_batch",
           units=lambda a, k: _rows(a, k, 0, "bloch")),
    Target("measures", "magic_power", "measures.magic_power"),
    Target("measures", "rom_qubit", "measures.rom_qubit"),
    Target("measures", "sre2_pure", "measures.sre2_pure"),
    Target("measures", "magic_report", "measures.magic_report"),
    Target("polytope", "scan_polytope_crossings", "polytope.scan_polytope_crossings"),
    Target("polytope", "broadcast_geometry_certificate",
           "polytope.broadcast_geometry_certificate"),
    Target("polytope", "line_polytope_intersections",
           "polytope.line_polytope_intersections"),
    Target("cloners", "BroadcasterSpec.__post_init__", "cloners.BroadcasterSpec.init"),
    Target("cloners", "unrestricted_broadcast", "cloners.unrestricted_broadcast"),
    Target("cloners", "theorem2_falsify", "cloners.theorem2_falsify"),
    Target("checks", "run_suite", "checks.run_suite",
           tag=lambda a, k: _arg(a, k, 0, "name")),
    Target("checks", "sample_bloch_on_level", "checks.sample_bloch_on_level",
           tag=_level_bucket),
    Target("checks", "random_broadcaster_spec", "checks.random_broadcaster_spec"),
    Target("cli", "parse_state_spec", "cli.parse_state_spec"),
    Target("cli", "cmd_magic", "cli.cmd_magic"),
    Target("cli", "cmd_clone", "cli.cmd_clone", tag=_clone_kind, units=_sweep_points),
    Target("cli", "cmd_geometry", "cli.cmd_geometry"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, work: dict) -> dict:
    """Per-layer metrics from the traced passes.

    `work` holds what the workload did in those passes: `inputs` (search
    input states) and `geometry_samples` (geometry-suite samples).
    """
    out = {}
    for target in TARGETS:
        stat = tracer.stat(target.name)
        out[f"{target.name}.calls"] = stat.calls / passes
        out[f"{target.name}.self_s"] = stat.self_s / passes

    objective = tracer.stat("optimize._objective_batch")
    out["optimize._objective_batch.evals"] = objective.units / passes
    out["optimize._objective_batch.evals_per_s"] = _ratio(objective.units, objective.total_s)
    out["optimize.evals_per_sample"] = _ratio(objective.units, work.get("inputs", 0))

    lp = tracer.stat("measures.rom_lp_batch")
    out["measures.rom_lp_batch.rows_per_s"] = _ratio(lp.units, lp.total_s)

    scans = tracer.stat("polytope.scan_polytope_crossings")
    out["polytope.scans_per_geometry_sample"] = _ratio(
        scans.calls, work.get("geometry_samples", 0))

    clone = tracer.stat("cli.cmd_clone")
    sweeps = tracer.tagged_stat("cli.cmd_clone", "sweep")
    out["cloners.sweep_points_per_s"] = _ratio(clone.units, sweeps.total_s)

    for suite in SUITES:
        out[f"checks.{suite}.s"] = tracer.tagged_stat("checks.run_suite", suite).total_s / passes
    for bucket in ("lvl_lo", "lvl_mid", "lvl_hi"):
        sub = tracer.tagged_stat("checks.sample_bloch_on_level", bucket)
        out[f"checks.sample_bloch_on_level.ms_per_call.{bucket}"] = (
            1e3 * _ratio(sub.total_s, sub.calls))
    return out
