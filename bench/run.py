"""Benchmark runner for magicbroadcast.

Run from the repository root:

    python3 bench/run.py --workload search|verify|queries --seed N --seconds S --trace 0|1

The runner imports the package from `src/` of the checkout it sits in,
times `setup_s` in fresh child processes, warms the package's lazy tables,
then runs a fixed set of passes of the workload in two rounds and checks
every output of the first round outside the timed region.  The pass count
is `--seconds` over twice the workload's nominal pass time (`PASS_S`), so
a seed always gives the same inputs, the same `attempted` and the same
`failed`, and a run measures about `--seconds` of work on the baseline
host.  Each op's time is its minimum over the two rounds, and the second
round's outputs must equal the first's.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` the second round is traced, and the run reports the
per-layer metrics.  Spans are written to `.bench_out/` at the end.

stdout: a details line (provenance, sizes and every metric computed),
then, as the last line, the result object {correct, attempted, failed,
metrics}.
"""
import os

# pin BLAS/OpenMP pools before numpy is imported here or in a probe child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
# Every pass runs once per round, the rounds one after the other, and an
# op's time is its minimum over the untraced rounds: a burst of load from
# other tenants of the host rarely hits both runs of an op.
ROUNDS = 2


def load_package():
    init = SRC / "magicbroadcast" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: package source not found at {init}; "
                 "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import magicbroadcast

    if Path(magicbroadcast.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported {magicbroadcast.__file__}, expected {init}")
    return magicbroadcast


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"error: {path} not found")
    return json.loads(path.read_text())


def probe_setup() -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(pkg, args, wl) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "package": pkg.__version__,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes(),
    }


def pass_count(wl, seconds: float) -> int:
    return max(1, round(seconds / (ROUNDS * wl.PASS_S)))


def _digests(fingerprint) -> list:
    return [None if f is None else hashlib.sha1(repr(f).encode()).hexdigest()
            for f in fingerprint]


def measure(wl, passes: int, tracer=None):
    """Run `passes` passes in each of ROUNDS rounds.

    Every round runs the same inputs.  With a tracer the last round is
    traced.  Returns per pass the untraced result (the per-op minimum over
    the untraced rounds) and the traced result, one verdict per op of the
    first round, (pass, index, verdict) for every failed op, and whether
    every round gave the outputs of the first.
    """
    wl.run(wl.warm_inputs())
    untraced, traced, verdicts, failures, digests = [], [], [], [], []
    same = True
    for r in range(ROUNDS):
        traced_round = tracer is not None and r == ROUNDS - 1
        for k in range(passes):
            inputs = wl.inputs(k)
            if traced_round:
                with tracer:
                    result = wl.run(inputs, on_op=tracer.set_op)
            else:
                result = wl.run(inputs)
            digest = _digests(wl.fingerprint(result.outputs))
            if r == 0:
                checked = wl.check(inputs, result.outputs)
                failures.extend((k, i, v) for i, v in enumerate(checked) if v is not None)
                verdicts.extend(checked)
                digests.append(digest)
            else:
                # ops that only one round finished (a pass deadline) are not compared
                same &= all(a is None or b is None or a == b
                            for a, b in zip(digests[k], digest))
            # outputs are checked; dropping them keeps memory flat over the run
            result.outputs = None
            if traced_round:
                traced.append(result)
            elif r == 0:
                untraced.append(result)
            else:
                untraced[k] = untraced[k].best(result)
    return untraced, traced, verdicts, failures, same


def latency_by_kind(passes) -> dict:
    """Median and 90th percentile op latency in ms per op kind."""
    by_kind = {}
    for p in passes:
        for t, kind in zip(p.op_s, p.kinds):
            by_kind.setdefault(kind, []).append(t)
    return {kind: {"n": len(ts), "ms_p50": float(np.percentile(ts, 50)) * 1e3,
                   "ms_p90": float(np.percentile(ts, 90)) * 1e3}
            for kind, ts in by_kind.items()}


def e2e_metrics(passes, probes) -> dict:
    walls = [p.wall_s for p in passes]
    ops = [t for p in passes for t in p.op_s]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(ops) / sum(walls),
        "op_ms_p50": float(np.percentile(ops, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(ops, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_metrics(name, passes) -> dict:
    """The workload-specific numbers, zero for the other workloads' keys."""
    from workloads import WORKLOADS

    own = WORKLOADS[name].summary(passes)
    return {f"{wl}.{key}": own[key] if wl == name else 0.0
            for wl, cls in WORKLOADS.items() for key in cls.SUMMARY_KEYS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "verify", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    pkg = load_package()

    import layers
    import setup_probe
    from spans import Tracer
    from workloads import VERDICTS, WORKLOADS, WRONG

    probes = [probe_setup() for _ in range(SETUP_PROBES)]
    setup_probe.warm_tables()

    wl = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(layers.TARGETS) if args.trace else None
    untraced, traced, verdicts, failures, rounds_equal = measure(
        wl, pass_count(wl, args.seconds), tracer)

    attempted = len(verdicts)
    failed = sum(v is not None for v in verdicts)
    metrics = e2e_metrics(untraced, probes)
    metrics.update(workload_metrics(args.workload, untraced))
    metrics["bench.failed_frac"] = failed / attempted
    section = "end_to_end"
    if tracer is not None:
        section = "per_layer"
        n = len(traced)
        work = {key: sum(p.extra.get(key, 0) for p in traced)
                for key in ("inputs", "geometry_samples")}
        metrics.update(layers.layer_metrics(tracer, n, work))
        metrics["stabilizers.cache_misses"] = setup_probe.cache_misses()
        metrics["stabilizers.cold_s"] = statistics.median(p["cold_s"] for p in probes)
        metrics["bench.unattributed_s"] = (
            sum(p.wall_s for p in traced) - tracer.top_level_s) / n
        metrics["bench.trace_overhead_frac"] = statistics.median(
            t.wall_s / u.wall_s for t, u in zip(traced, untraced)) - 1.0
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    details = provenance(pkg, args, wl)
    details.update({
        "passes": len(untraced),
        "traced_passes": len(traced),
        "ops": sum(len(p.op_s) for p in untraced),
        "latency_by_kind": latency_by_kind(untraced),
        "rounds_equal": rounds_equal,
        "verdicts": {"ok": attempted - failed,
                     **{v: verdicts.count(v) for v in VERDICTS}},
        "first_failures": [{"pass": k, "index": i, "verdict": v}
                           for k, i, v in failures[:10]],
        "unwrapped_targets": [] if tracer is None else tracer.missing,
        "setup_probes": probes,
        "metrics": metrics,
    })
    print(json.dumps(details))

    missing = [m["name"] for m in spec[section] if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: metrics not computed: {missing}")
    result = {
        "correct": WRONG not in verdicts and rounds_equal,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
