"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that
- every metric named in BENCHMARK.json is printed, with its unit, by
  `run.py` on every workload, traced and untraced;
- a traced pass gives the same outputs as an untraced pass of the same
  inputs, and every regular output passes its check;
- the tracer wraps every target and leaves the package's functions as it
  found them;
- a pass that outlives its deadline ends with one timed-out op, and on
  `verify` each suite that outlives its own deadline is one timed-out op;
- the stall replay draws exactly what the package's level sampler draws,
  and a suite past its draw or scan budget is STALLED;
- `run.py` fails without printing a result when the package source is
  missing.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run

WORKLOADS = ("search", "verify", "queries")


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_printed_metrics(spec):
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            expect(proc.returncode == 0, f"{workload} trace={trace} exited "
                                         f"{proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] is True, f"{workload} trace={trace} not correct")
            expect(result["attempted"] >= 1, "nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: printed metrics differ "
                                f"from BENCHMARK.json {section}")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), "non-finite metric value")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics with units")


def package_bindings(pkg_modules, classes) -> dict:
    snapshot = {}
    for mod in pkg_modules:
        for attr, value in vars(mod).items():
            snapshot[(mod.__name__, attr)] = id(value)
    for cls in classes:
        for attr, value in vars(cls).items():
            snapshot[(cls.__qualname__, attr)] = id(value)
    return snapshot


def check_traced_equals_untraced():
    import layers
    import spans
    import workloads
    from magicbroadcast import cloners, states

    modules = spans._package_modules()
    classes = (states.PureState, states.DensityMatrix, cloners.BroadcasterSpec)
    tiny = (workloads.Search(5, per_objective=1), workloads.Verify(5),
            workloads.Queries(5, blocks=1))
    for wl in tiny:
        inputs = wl.inputs(0)
        plain = wl.run(inputs)
        before = package_bindings(modules, classes)
        tracer = spans.Tracer(layers.TARGETS)
        with tracer:
            expect(not tracer.missing, f"targets not found: {tracer.missing}")
            expect(package_bindings(modules, classes) != before, "nothing was wrapped")
            traced = wl.run(inputs, on_op=tracer.set_op)
        expect(package_bindings(modules, classes) == before,
               f"{wl.name}: package bindings changed after uninstall")
        expect(wl.fingerprint(plain.outputs) == wl.fingerprint(traced.outputs),
               f"{wl.name}: traced outputs differ from untraced")
        verdicts = wl.check(inputs, plain.outputs)
        expect(workloads.WRONG not in verdicts, f"{wl.name}: a regular output failed its check")
        expect(tracer.top_level_s > 0.5 * traced.wall_s,
               f"{wl.name}: spans cover only {tracer.top_level_s / traced.wall_s:.0%} of the pass")
        print(f"ok  {wl.name}: traced == untraced over {len(plain.op_s)} ops; "
              f"bindings restored")


def check_deadline():
    import workloads

    for wl in (workloads.Search(5, per_objective=1), workloads.Queries(5, blocks=1)):
        wl.DEADLINE_S = 1e-3
        inputs = wl.inputs(0)
        result = wl.run(inputs)
        verdicts = wl.check(inputs, result.outputs)
        expect(len(verdicts) == len(result.op_s) and verdicts[-1] == workloads.TIMED_OUT
               and verdicts.count(workloads.TIMED_OUT) == 1 and workloads.WRONG not in verdicts,
               f"{wl.name}: deadline verdicts {verdicts[-3:]}")
        print(f"ok  {wl.name}: deadline ends the pass after {len(verdicts)} ops")
    wl = workloads.Verify(5)
    wl.DEADLINE_S = 1e-3
    verdicts = wl.check(wl.inputs(0), wl.run(wl.inputs(0)).outputs)
    expect(len(verdicts) == len(workloads.SUITES)
           and set(verdicts) <= {None, workloads.TIMED_OUT}
           and verdicts[workloads.SUITES.index("geometry")] == workloads.TIMED_OUT,
           f"verify: deadline verdicts {verdicts}")
    print(f"ok  verify: {verdicts.count(workloads.TIMED_OUT)} of {len(verdicts)} suites "
          "timed out, the others ran")


def check_stall_replay():
    import numpy as np

    import workloads
    from magicbroadcast import checks

    for level in (1.0, 1.3, 1.6, 1.72, 1.73):
        rng = np.random.default_rng([7, int(level * 100)])
        state = rng.bit_generator.state
        checks.sample_bloch_on_level(level, rng)
        draws = workloads.sampler_draws(level, state, 10**6)
        replay = np.random.default_rng()
        replay.bit_generator.state = state
        for _ in range(draws):
            replay.standard_normal(3)
        expect(replay.bit_generator.state == rng.bit_generator.state,
               f"replay at level {level} drew other than the package's sampler")
    state = np.random.default_rng(7).bit_generator.state
    expect(workloads.sampler_draws(3 ** 0.5 - 1e-12, state, 1000) == 1001,
           "a level next to sqrt(3) did not exceed the draw budget")

    wl = workloads.Verify(5)
    wl.STALL_DRAWS, wl.SLOW_CALL_S = 0, 0.0
    verdicts = wl.check(wl.inputs(0), wl.run(wl.inputs(0)).outputs)
    stalled = {suite for suite, v in zip(workloads.SUITES, verdicts) if v == workloads.STALLED}
    expect(stalled == {"theorem3", "geometry"} and workloads.WRONG not in verdicts,
           f"verify with a zero draw budget: {verdicts}")

    wl = workloads.Verify(5)
    wl.SCANS_PER_SAMPLE = 0
    verdicts = wl.check(wl.inputs(0), wl.run(wl.inputs(0)).outputs)
    stalled = {suite for suite, v in zip(workloads.SUITES, verdicts) if v == workloads.STALLED}
    expect(stalled == {"geometry"} and workloads.WRONG not in verdicts,
           f"verify with a zero scan budget: {verdicts}")
    print("ok  stall replay matches the sampler; over-budget suites are STALLED")


def check_bare_directory_fails():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py succeeded without the package source")
    expect('"metrics"' not in proc.stdout, "run.py printed a result without the package")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    spec = run.load_spec()
    run.load_package()
    check_traced_equals_untraced()
    check_deadline()
    check_stall_replay()
    check_printed_metrics(spec)
    check_bare_directory_fails()
    print("selftest passed")


if __name__ == "__main__":
    main()
