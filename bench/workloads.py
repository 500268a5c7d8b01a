"""The three benchmark workloads.

Each workload is a closed loop: one client in one process, each operation
starting after the previous one returns.  A run is a fixed number of
*passes*; pass `k` has a fixed composition and inputs drawn from (seed, k),
so a given seed always produces the same inputs and the same verdicts.  `run()` is the timed part; `check()`
verifies the outputs afterwards, outside the timed region, with code that
does not share the formula under test.

- search:  `optimize.batch_experiment` over Haar inputs, equal counts for
           the magic and state objectives; an op is one input state.
- verify:  the eight `checks` suites at the release contract's sample
           ratios scaled by `VERIFY_SCALE`; an op is one pass.
- queries: single calls of `cli.cmd_magic`, `cli.cmd_clone` and
           `cli.cmd_geometry` on pre-parsed argument namespaces; an op is
           one call.

Every pass of `search` and `queries` runs under a deadline (`DEADLINE_S`).
When it expires the op in progress is recorded as timed out with its
elapsed time, and the rest of the pass is skipped, so a hang in the package
cannot stall a run.  `verify` gives each suite its own deadline and goes on
with the next suite; see `Verify` for how a stalled sampler is told apart
from a slow host.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from magicbroadcast import checks, cli, errors, measures, optimize, states

from layers import SUITES

# verdicts of `check()`.  None: output verified.  WRONG: an output
# contradicts an independent check, an op crashed, or a traced pass differs
# from the untraced one; the run is then not correct.  The others are
# operations that failed their documented outcome; they count as failed.
WRONG = "wrong"
SUITE_FAILED = "suite_failed"    # a verify suite reported FAIL
NOT_REJECTED = "not_rejected"    # an invalid input was not refused with a usage error
TIMED_OUT = "timed_out"          # the op was running when the pass deadline expired
STALLED = "stalled"              # a verify suite ran into an unbounded loop (see Verify)
VERDICTS = (WRONG, SUITE_FAILED, NOT_REJECTED, TIMED_OUT, STALLED)

# what `cli.main` turns into exit code 2
USAGE_ERRORS = (errors.MagicBroadcastError, ValueError, OSError, KeyError)

_SIGMA = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)


@dataclass
class PassResult:
    wall_s: float
    op_s: list                   # latency of each op, seconds
    kinds: list                  # op class per op (objective, suite set, call kind)
    outputs: list
    extra: dict = field(default_factory=dict)

    def best(self, other: PassResult) -> PassResult:
        """This pass and a second run of it, each time the smaller of the two.

        Counts come from this run.  An op that only one run finished (a pass
        deadline) keeps that run's time.
        """
        longer = self if len(self.op_s) >= len(other.op_s) else other
        op_s = [min(a, b) for a, b in zip(self.op_s, other.op_s)]
        op_s += longer.op_s[len(op_s):]
        extra = dict(self.extra)
        if "suite_s" in extra:
            extra["suite_s"] = {s: min(t, other.extra["suite_s"][s])
                                for s, t in extra["suite_s"].items()}
        return PassResult(min(self.wall_s, other.wall_s), op_s, longer.kinds,
                          self.outputs, extra)


# ---------------------------------------------------------------------------
# independent numerics used by the checks
# ---------------------------------------------------------------------------

def bloch_of_amps(amps) -> np.ndarray:
    a0, a1 = amps
    off = a0 * np.conj(a1)
    return np.array([2.0 * off.real, -2.0 * off.imag, abs(a0) ** 2 - abs(a1) ** 2])


def bloch_of_matrix(rho) -> np.ndarray:
    return np.einsum("kij,ji->k", _SIGMA, rho).real


def rom_of_bloch(m) -> float:
    return max(1.0, float(np.abs(m).sum()))


def _pauli_strings(n) -> np.ndarray:
    ops = [np.eye(1, dtype=complex)]
    for _ in range(n):
        ops = [np.kron(op, p) for op in ops for p in (np.eye(2), *_SIGMA)]
    return np.array(ops)


_PAULI_STRINGS = {n: _pauli_strings(n) for n in (1, 2)}


def sre2_of_amps(amps) -> float:
    """Stabilizer Renyi-2 entropy from explicit Pauli expectations."""
    amps = np.asarray(amps, dtype=complex)
    n = amps.size.bit_length() - 1
    expectations = np.einsum("i,pij,j->p", amps.conj(), _PAULI_STRINGS[n], amps).real
    return max(0.0, -math.log2((expectations ** 4).sum() / 2 ** n))


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


def _verdict(ok) -> str | None:
    return None if ok else WRONG


class PassTimeout(BaseException):
    """Raised into the op in progress when the pass deadline expires.

    A BaseException, so that no `except Exception` in the package or in
    the queries loop mistakes it for a failure of the op itself.
    """


def _expire(signum, frame):
    raise PassTimeout


@contextlib.contextmanager
def pass_deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _amps_spec(amps) -> str:
    return "amps=" + ",".join(repr(complex(a)).strip("()") for a in amps)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class Search:
    """Haar inputs through `batch_experiment`, PER_OBJECTIVE per objective per pass."""

    name = "search"
    PER_OBJECTIVE = 8
    OBJECTIVES = ("magic", "state")
    SUMMARY_KEYS = ("magic_ops_per_s", "state_ops_per_s", "convergence_rate")
    DEADLINE_S = 30.0    # an input that spends the whole eval budget takes ~0.7 s
    PASS_S = 0.095       # nominal pass time on the baseline host; sets the pass count
    TOL = 1e-9

    def __init__(self, seed: int, per_objective: int | None = None):
        self.per_objective = per_objective or self.PER_OBJECTIVE
        self.base = seed * 1_000_000
        self.cfg = optimize.OptimizerConfig()

    def sizes(self) -> dict:
        return {"inputs_per_objective_per_pass": self.per_objective,
                "objectives": list(self.OBJECTIVES),
                "config": dataclasses.asdict(self.cfg)}

    def inputs(self, k: int) -> int:
        """First per-sample seed of pass k; sample i uses seed + i."""
        return self.base + k * self.per_objective

    def warm_inputs(self) -> int:
        return self.base + 999_000

    def run(self, first_seed: int, on_op=None) -> PassResult:
        clock = time.perf_counter
        records = []                 # (latency, objective, sample seed, outcome)
        current = [self.OBJECTIVES[0], 0, 0.0]   # objective, samples done, op start

        def sink(index, outcome):
            records.append((clock() - current[2], current[0], first_seed + index, outcome))
            current[1] += 1
            if on_op is not None:
                on_op(len(records))
            current[2] = clock()

        t_pass = clock()
        try:
            with pass_deadline(self.DEADLINE_S):
                for objective in self.OBJECTIVES:
                    cfg = dataclasses.replace(self.cfg, seed=first_seed)
                    current[:] = [objective, 0, clock()]
                    if on_op is not None:
                        on_op(len(records))
                    optimize.batch_experiment(self.per_objective, objective, cfg,
                                              outcome_sink=sink)
        except PassTimeout:
            objective, done, start = current
            if done < self.per_objective:
                records.append((clock() - start, objective, first_seed + done, None))
        wall = clock() - t_pass
        outputs = [(obj, seed, outcome) for _, obj, seed, outcome in records]
        return PassResult(wall, [r[0] for r in records], [r[1] for r in records], outputs,
                          {"inputs": len(outputs),
                           "converged": sum(o.converged for _, _, o in outputs if o)})

    def fingerprint(self, outputs) -> list:
        """Comparable form of the outputs; None marks a timed-out op."""
        return [None if o is None else (obj, seed, json.dumps(o.to_json(), sort_keys=True))
                for obj, seed, o in outputs]

    def check(self, first_seed: int, outputs) -> list:
        """One verdict per outcome: fidelities and magics recomputed from params."""
        verdicts = [TIMED_OUT if outcome is None
                    else _verdict(self._check_one(objective, sample_seed, outcome))
                    for objective, sample_seed, outcome in outputs]
        expected = [(obj, first_seed + i) for obj in self.OBJECTIVES
                    for i in range(self.per_objective)]
        seen = [(o, s) for o, s, _ in outputs]
        finished = bool(outputs) and outputs[-1][2] is not None
        if seen != expected[:len(seen)] or (finished and len(seen) != len(expected)):
            verdicts.append(WRONG)
        return verdicts

    def _check_one(self, objective, sample_seed, outcome) -> bool:
        psi = states.haar_random_pure(2, sample_seed).amps
        unitary = optimize.build_unitary(outcome.params)
        out = unitary @ np.kron(psi, [1.0, 0.0])
        joint = states.DensityMatrix(np.outer(out, out.conj()))
        sys_rho = states.partial_trace(joint, 0).mat
        aux_rho = states.partial_trace(joint, 1).mat
        fid = [float(np.vdot(psi, r @ psi).real) for r in (sys_rho, aux_rho)]
        magic = [rom_of_bloch(bloch_of_matrix(r)) for r in (sys_rho, aux_rho)]
        input_magic = rom_of_bloch(bloch_of_amps(psi))
        if objective == "magic":
            value = max(abs(m - input_magic) for m in magic)
        else:
            value = max(1.0 - f for f in fid)
        return all((
            _close(fid[0], outcome.sys_fidelity, self.TOL),
            _close(fid[1], outcome.aux_fidelity, self.TOL),
            _close(magic[0], outcome.sys_magic, self.TOL),
            _close(magic[1], outcome.aux_magic, self.TOL),
            _close(input_magic, outcome.input_magic, self.TOL),
            _close(value, outcome.objective_value, self.TOL),
            outcome.converged == (outcome.objective_value <= self.cfg.epsilon),
            self.cfg.population <= outcome.evals_used <= self.cfg.max_evals,
        ))

    @staticmethod
    def summary(passes) -> dict:
        """Per-objective throughput and convergence over untraced passes."""
        out = {}
        for objective in Search.OBJECTIVES:
            times = [t for p in passes for t, k in zip(p.op_s, p.kinds) if k == objective]
            out[f"{objective}_ops_per_s"] = len(times) / sum(times)
        out["convergence_rate"] = (sum(p.extra["converged"] for p in passes)
                                   / sum(p.extra["inputs"] for p in passes))
        return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

CONTRACT_SAMPLES = {
    "lemma1": 100_000, "clifford": 1000, "additivity": 1000, "convexity": 1000,
    "theorem2": 720, "theorem3": 10_000, "geometry": 1000, "monotone": 10_000,
}
VERIFY_SCALE = 1 / 200


def sampler_draws(level: float, state: dict, limit: int) -> int:
    """Directions `checks.sample_bloch_on_level` draws at `level` from `state`.

    Replays the sampler's rejection loop on a generator set to `state` and
    stops counting at `limit + 1`.  The count is a function of its inputs
    alone, so it does not depend on how fast the host is.
    """
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    rng = np.random.Generator(bit_generator)
    for draws in range(1, limit + 1):
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        m = w * (level / np.abs(w).sum())
        if m @ m <= 1.0:
            return draws
    return limit + 1


class OverBudget(BaseException):
    """Raised into a verify suite at its first polytope scan past the budget."""


class SuiteWatch:
    """Watches the verify suites' two unbounded loops while a pass runs.

    Rebinds `sample_bloch_on_level` and `scan_polytope_crossings` in
    `checks`, the names the suites call, and puts them back on exit.  It
    notes (suite, level, generator state) of every sampler call slower than
    `slow_call_s`; the state is read on entry, before the call draws, and
    reading it draws nothing.  It counts the scans of the current suite and
    raises `OverBudget` at the first one past the suite's budget.
    """

    def __init__(self, slow_call_s: float):
        self.slow_call_s = slow_call_s
        self.slow = []
        self.suite, self.scans, self.scan_budget = None, 0, 0
        self._saved = []

    def start(self, suite: str, scan_budget: int):
        self.suite, self.scans, self.scan_budget = suite, 0, scan_budget

    def slow_calls(self, suite: str) -> list:
        return [(level, state) for s, level, state in self.slow if s == suite]

    def _sampler(self, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            rng = args[1] if len(args) > 1 else kwargs.get("rng")
            bit_generator = getattr(rng, "bit_generator", None)
            state = None if bit_generator is None else bit_generator.state
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if state is not None and clock() - start > self.slow_call_s:
                    level = args[0] if args else kwargs.get("level")
                    self.slow.append((self.suite, float(level), state))

        return watched

    def _scan(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.scans += 1
            if self.scans > self.scan_budget:
                raise OverBudget
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for attr, wrap in (("sample_bloch_on_level", self._sampler),
                           ("scan_polytope_crossings", self._scan)):
            original = getattr(checks, attr, None)
            if original is not None:
                self._saved.append((attr, original))
                setattr(checks, attr, wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            setattr(checks, *self._saved.pop())


class Verify:
    """All eight suites per pass, at the contract ratios times `VERIFY_SCALE`.

    Two loops in the suites have no bound, and a verify op that runs into
    one counts as STALLED, decided from the op's inputs alone so that the
    verdict does not depend on the host's speed:

    - `sample_bloch_on_level` rejects directions until one fits in the
      Bloch ball.  Near level sqrt(3) it rejects nearly all, and one call
      has run for a minute.  A call that needs more than `STALL_DRAWS`
      directions stalls its suite.  The count is replayed
      (`sampler_draws`) from the generator state of every call that took
      over `SLOW_CALL_S`.
    - `check_geometry` rescans the aux segment once per crossing the scan
      finds on the sys segment, and a segment that runs along the level
      surface has thousands (seed 2 pass 241 took 6 s).  A geometry suite
      that asks for more than `SCANS_PER_SAMPLE` scans per sample (at most
      5 otherwise) is ended at the first scan past that.

    Each suite also runs under `DEADLINE_S`, which only a stalled sampler
    call reaches: `STALL_DRAWS` directions take ~0.12 s and a full scan
    budget ~0.15 s on the baseline host, against ~0.06 s for a suite.
    """

    name = "verify"
    HEAVY = ("geometry", "theorem3", "lemma1")
    SUMMARY_KEYS = ("geometry_s", "theorem3_s", "lemma1_s", "other_suites_s")
    PASS_S = 0.08        # nominal pass time on the baseline host; sets the pass count
    DEADLINE_S = 1.0     # per suite
    STALL_DRAWS = 20_000
    SLOW_CALL_S = 0.01   # a call within 1 600 draws or so is never replayed
    SCANS_PER_SAMPLE = 10

    def __init__(self, seed: int):
        self.base = seed * 1_000_000
        self.samples = {s: max(1, round(CONTRACT_SAMPLES[s] * VERIFY_SCALE)) for s in SUITES}

    def sizes(self) -> dict:
        return {"scale": VERIFY_SCALE, "samples_per_pass": self.samples,
                "stall_draws": self.STALL_DRAWS, "scans_per_sample": self.SCANS_PER_SAMPLE,
                "suite_deadline_s": self.DEADLINE_S}

    def inputs(self, k: int) -> int:
        return self.base + k

    def warm_inputs(self) -> int:
        return self.base + 999_000

    def run(self, seed: int, on_op=None) -> PassResult:
        clock = time.perf_counter
        if on_op is not None:
            on_op(seed)
        outputs, suite_s = [], {}
        t_pass = clock()
        with SuiteWatch(self.SLOW_CALL_S) as watch:
            for suite in SUITES:
                watch.start(suite, self.SCANS_PER_SAMPLE * self.samples[suite])
                suite_start = clock()
                over = False
                try:
                    with pass_deadline(self.DEADLINE_S):
                        report = checks.run_suite(suite, n_samples=self.samples[suite],
                                                  seed=seed)
                except PassTimeout:
                    report = None
                except OverBudget:
                    report, over = None, True
                suite_s[suite] = clock() - suite_start
                outputs.append((report, over, watch.slow_calls(suite)))
        wall = clock() - t_pass
        return PassResult(wall, [wall], ["pass"], outputs,
                          {"suite_s": suite_s, "geometry_samples": self.samples["geometry"]})

    def fingerprint(self, outputs) -> list:
        return [None if r is None else (r.check_name, r.samples, r.max_violation,
                                        r.tolerance, r.seed)
                for r, _, _ in outputs]

    def stalled(self, over: bool, slow: list) -> bool:
        return over or any(sampler_draws(level, state, self.STALL_DRAWS) > self.STALL_DRAWS
                           for level, state in slow)

    def check(self, seed: int, outputs) -> list:
        """One verdict per suite run."""
        verdicts = []
        for suite, (report, over, slow) in zip(SUITES, outputs):
            if self.stalled(over, slow):
                verdicts.append(STALLED)
            elif report is None:
                verdicts.append(TIMED_OUT)
            elif not (report.check_name == suite
                      and report.samples == self.samples[suite]
                      and report.seed == seed
                      and math.isfinite(report.max_violation)):
                verdicts.append(WRONG)
            else:
                verdicts.append(None if report.passed else SUITE_FAILED)
        if len(verdicts) != len(SUITES):
            verdicts.append(WRONG)
        return verdicts

    @staticmethod
    def summary(passes) -> dict:
        """Median seconds per pass spent in each heavy suite and in the rest."""
        out = {}
        for suite in Verify.HEAVY:
            out[f"{suite}_s"] = float(np.median([p.extra["suite_s"][suite] for p in passes]))
        out["other_suites_s"] = float(np.median([
            sum(t for s, t in p.extra["suite_s"].items() if s not in Verify.HEAVY)
            for p in passes
        ]))
        return out


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

_GAMMA_T = math.acos(1.0 / math.sqrt(3.0))
_NAMED_REFS = {"T": (_GAMMA_T, math.pi / 4), "H": (math.pi / 4, 0.0),
               "zero": (0.0, 0.0), "plus": (math.pi / 2, 0.0)}
_S2 = 1 / math.sqrt(2)
_NAMED_STATES = {
    "zero": [1, 0], "one": [0, 1], "plus": [_S2, _S2], "minus": [_S2, -_S2],
    "plus_i": [_S2, 1j * _S2], "minus_i": [_S2, -1j * _S2],
}

# inputs whose documented outcome is a usage error (exit 2)
ERROR_INPUTS = (
    ["magic", "nan,0"],
    ["magic", "amps=0.5,0.5,0.5,0.5"],
    ["magic", "not-a-state"],
    ["clone", "wz", "--ref", "T", "--input", "amps=1,1"],
    ["geometry", "--level", "0.5", "--", "1,0,0", "0,1,0", "0,0,1", "-1,0,0"],
)
# Calls per block; a pass repeats the block BLOCKS times with fresh values.
# No record of how the CLI is used exists, so the mix is not a traffic
# model: each input kind gets the same weight (one-qubit magic specs,
# two-qubit magic specs, single-input WZ checks, WZ sweeps, BH sweeps,
# geometry certificates), plus one call per error input.
QUERY_MIX = (
    ("magic", 15),
    ("magic_2q", 15),
    ("wz_input", 15),
    ("wz_sweep", 15),
    ("bh_sweep", 15),
    ("geometry", 15),
    ("error", len(ERROR_INPUTS)),
)
CALLS_PER_BLOCK = sum(count for _, count in QUERY_MIX)
SWEEP_KINDS = ("wz_sweep", "bh_sweep")
# the CLI's default and the value of the README's sweep example
SWEEP_POINTS = 100


@dataclass
class Query:
    kind: str
    handler: str                 # name of the cli.cmd_* function
    ns: object                   # parsed argparse namespace
    expect: dict                 # what the check needs


def _pair(x) -> str:
    return repr(float(x))


def _vec(m) -> str:
    return ",".join(repr(float(v)) for v in m)


class Queries:
    """Single CLI-handler calls with their output captured."""

    name = "queries"
    BLOCKS = 10
    SUMMARY_KEYS = ("op_ms_p99",)
    DEADLINE_S = 10.0    # a pass takes ~0.7 s
    PASS_S = 0.7         # nominal pass time on the baseline host; sets the pass count

    def __init__(self, seed: int, blocks: int | None = None):
        self.blocks = blocks or self.BLOCKS
        self.seed = seed
        self.parser = cli.build_parser()

    def sizes(self) -> dict:
        return {"calls_per_pass": CALLS_PER_BLOCK * self.blocks, "mix_per_block": dict(QUERY_MIX),
                "sweep_points": SWEEP_POINTS, "error_inputs": [" ".join(a) for a in ERROR_INPUTS]}

    def warm_inputs(self) -> list:
        return self._make(np.random.default_rng([self.seed, 999_000]), 1)

    def inputs(self, k: int) -> list:
        return self._make(np.random.default_rng([self.seed, k]), self.blocks)

    # -- input generation ---------------------------------------------------

    def _make(self, rng, blocks) -> list:
        calls = []
        for _ in range(blocks):
            block = []
            for kind, count in QUERY_MIX:
                for j in range(count):
                    block.append(getattr(self, f"_q_{kind}")(rng, j))
            # The single-state calls run first and the sweeps after them,
            # each part in seeded order.  A call right after a sweep finds the
            # sweep's arrays in the caches; in a fully shuffled block a third
            # of the single-state calls would, and the median call would track
            # the host's cache contention more than the call's own cost.
            for sweeps in (False, True):
                part = [q for q in block if (q.kind in SWEEP_KINDS) == sweeps]
                calls.extend(part[i] for i in rng.permutation(len(part)))
        return calls

    def _parse(self, kind, argv, expect) -> Query:
        ns = self.parser.parse_args(argv)
        handler = {"magic": "cmd_magic", "clone": "cmd_clone", "geometry": "cmd_geometry"}[argv[0]]
        return Query(kind, handler, ns, expect)

    @staticmethod
    def _haar_amps(rng, dim):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return z / np.linalg.norm(z)

    def _spec_1q(self, rng, form):
        """A one-qubit state spec in grammar form 0 (name), 1 (theta,zeta) or 2 (amps=)."""
        if form == 0:
            names = ("T", "Tperp", "H", *_NAMED_STATES)
            name = names[rng.integers(len(names))]
            if name in ("T", "Tperp", "H"):
                amps = {"T": states.t_state, "Tperp": states.t_perp_state,
                        "H": states.h_state}[name]().amps
            else:
                amps = np.array(_NAMED_STATES[name], dtype=complex)
            return name, amps
        if form == 1:
            theta, zeta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            spec = f"{_pair(theta)},{_pair(zeta)}"
            if rng.integers(2):
                basis = (states.t_state().amps, states.t_perp_state().amps)
                spec += ",basis=T"
            else:
                basis = (np.array([1, 0], complex), np.array([0, 1], complex))
            return spec, math.cos(theta / 2) * basis[0] + np.exp(1j * zeta) * math.sin(theta / 2) * basis[1]
        spec = _amps_spec(self._haar_amps(rng, 2))
        return spec, self._reparsed(spec)

    def _q_magic(self, rng, j):
        spec, amps = self._spec_1q(rng, j % 3)
        as_json = bool((j // 3) % 2)
        argv = ["magic", spec] + (["--json"] if as_json else [])
        return self._parse("magic", argv, {"amps": amps, "json": as_json})

    def _q_magic_2q(self, rng, j):
        spec = _amps_spec(self._haar_amps(rng, 4))
        return self._parse("magic_2q", ["magic", spec, "--json"],
                           {"amps": self._reparsed(spec), "json": True})

    @staticmethod
    def _reparsed(spec):
        # the exact amplitudes the CLI sees after reading the decimal literals
        return np.array([complex(p) for p in spec[5:].split(",")])

    def _q_wz_input(self, rng, j):
        spec, amps = self._spec_1q(rng, j % 3)
        if j % 5 == 0:
            gamma, gamma_p = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            argv = ["clone", "wz", "--gamma", _pair(gamma), "--gamma-prime", _pair(gamma_p)]
        else:
            ref = ("T", "H", "zero", "plus")[j % 4]
            gamma, gamma_p = _NAMED_REFS[ref]
            argv = ["clone", "wz", "--ref", ref]
        argv += ["--input", spec] + (["--json"] if j % 2 else [])
        return self._parse("wz_input", argv, {"gamma": gamma, "gamma_prime": gamma_p,
                                              "amps": amps, "json": bool(j % 2)})

    @staticmethod
    def _points_flag(j) -> list:
        # half the sweeps pass the default grid size explicitly
        return ["--sweep-points", str(SWEEP_POINTS)] if j % 2 else []

    def _q_wz_sweep(self, rng, j):
        gamma, gamma_p = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        zeta = rng.uniform(0, 2 * math.pi)
        argv = ["clone", "wz", "--gamma", _pair(gamma), "--gamma-prime", _pair(gamma_p),
                "--zeta", _pair(zeta)] + self._points_flag(j)
        return self._parse("wz_sweep", argv, {"gamma": gamma, "gamma_prime": gamma_p,
                                              "zeta": zeta, "points": SWEEP_POINTS, "json": False})

    def _q_bh_sweep(self, rng, j):
        xi, theta = rng.uniform(0, 0.5), rng.uniform(0, math.pi)
        eta_max = 2 * math.sqrt(xi) * math.sqrt(1 - 2 * xi)
        eta = eta_max if (j // 2) % 2 else rng.uniform(0, eta_max)
        as_json = j % 3 == 0
        argv = ["clone", "bh", "--xi", _pair(xi), "--theta", _pair(theta)] + self._points_flag(j)
        argv += (["--eta", _pair(eta)] if not (j // 2) % 2 else []) + (["--json"] if as_json else [])
        return self._parse("bh_sweep", argv, {"xi": xi, "eta": eta, "theta": theta,
                                              "points": SWEEP_POINTS, "json": as_json})

    @staticmethod
    def _on_level(rng, level) -> np.ndarray:
        while True:
            w = rng.standard_normal((256, 3))
            m = w * (level / np.abs(w).sum(axis=1, keepdims=True))
            ok = np.einsum("ij,ij->i", m, m) <= 1.0
            if ok.any():
                return m[np.argmax(ok)]

    def _q_geometry(self, rng, j):
        level = rng.uniform(1.05, 1.7)
        points = [self._on_level(rng, level) for _ in range(4)]
        ref = abs(points[0][0]) + abs(points[0][1]) + abs(points[0][2])
        r = (1.0, ref, rng.uniform(1.0, ref))[j % 3]
        as_json = j % 4 != 3
        argv = ["geometry", "--level", _pair(r)] + (["--json"] if as_json else [])
        argv += ["--"] + [_vec(p) for p in points]
        return self._parse("geometry", argv, {"points": points, "r": r, "json": as_json})

    def _q_error(self, rng, j):
        argv = ERROR_INPUTS[j % len(ERROR_INPUTS)]
        return self._parse("error", list(argv), {})

    # -- timed part ---------------------------------------------------------

    def run(self, calls, on_op=None) -> PassResult:
        clock = time.perf_counter
        buf = io.StringIO()
        records = []                 # (latency, kind, (outcome, captured stdout))
        real_stdout = sys.stdout
        t_pass = t0 = clock()
        sys.stdout = buf
        try:
            with pass_deadline(self.DEADLINE_S):
                for index, call in enumerate(calls):
                    if on_op is not None:
                        on_op(index)
                    handler = getattr(cli, call.handler)
                    t0 = clock()
                    try:
                        rc = handler(call.ns)
                        outcome = ("ok", rc)
                    except USAGE_ERRORS as exc:
                        outcome = ("usage", type(exc).__name__)
                    except Exception as exc:      # any other exception is a failed op
                        outcome = ("crash", f"{type(exc).__name__}: {exc}")
                    records.append((clock() - t0, call.kind, (outcome, buf.getvalue())))
                    buf.seek(0)
                    buf.truncate(0)
        except PassTimeout:
            if len(records) < len(calls):
                records.append((clock() - t0, calls[len(records)].kind, (("timeout", None), "")))
        finally:
            sys.stdout = real_stdout
        return PassResult(clock() - t_pass, [r[0] for r in records], [r[1] for r in records],
                          [r[2] for r in records])

    def fingerprint(self, outputs) -> list:
        return [None if outcome[0] == "timeout" else (outcome, text)
                for outcome, text in outputs]

    # -- checks -------------------------------------------------------------

    def check(self, calls, outputs) -> list:
        verdicts = []
        for call, (outcome, text) in zip(calls, outputs):
            if outcome[0] == "timeout":
                verdicts.append(TIMED_OUT)
                continue
            if call.kind == "error":
                verdicts.append(None if outcome[0] == "usage" else NOT_REJECTED)
                continue
            if outcome != ("ok", 0):
                verdicts.append(WRONG)
                continue
            try:
                verdicts.append(_verdict(getattr(self, f"_check_{call.kind}")(call.expect, text)))
            except (ValueError, KeyError, IndexError, TypeError):
                verdicts.append(WRONG)        # unparsable output
        return verdicts

    @staticmethod
    def _text_fields(text) -> dict:
        fields = {}
        for line in text.strip().splitlines():
            key, value = line.split("=", 1)
            fields[key.strip()] = value.strip()
        return fields

    def _check_magic(self, expect, text):
        amps = np.asarray(expect["amps"], dtype=complex)
        rho = states.DensityMatrix(np.outer(amps, amps.conj()))
        oracle = measures.rom_lp_oracle(rho)
        if expect["json"]:
            data = json.loads(text)
            rom, sre2, n = data["rom"], data["sre2"], data["n"]
        else:
            fields = self._text_fields(text)
            rom, sre2, n = float(fields["rom"]), float(fields["sre2"]), 1
        return (n == 1 and _close(rom, oracle, 1e-8)
                and _close(sre2, sre2_of_amps(amps), 1e-9))

    def _check_magic_2q(self, expect, text):
        data = json.loads(text)
        return (data["n"] == 2 and data["rom"] is None
                and _close(data["sre2"], sre2_of_amps(expect["amps"]), 1e-9))

    @staticmethod
    def _rows(text, as_json):
        if as_json:
            return [list(map(float, r)) for r in json.loads(text)["rows"]]
        return [list(map(float, line.split(","))) for line in text.strip().splitlines()[1:]]

    @staticmethod
    def _ref_amps(gamma, gamma_p):
        ref = np.array([math.cos(gamma / 2), np.exp(1j * gamma_p) * math.sin(gamma / 2)])
        perp = np.array([math.sin(gamma / 2), -np.exp(1j * gamma_p) * math.cos(gamma / 2)])
        return ref, perp

    def _check_wz_input(self, expect, text):
        (row,) = self._rows(text, expect["json"])
        ref, _ = self._ref_amps(expect["gamma"], expect["gamma_prime"])
        amps = expect["amps"] / np.linalg.norm(expect["amps"])
        overlap = min(1.0, abs(np.vdot(ref, amps)))
        input_magic = rom_of_bloch(bloch_of_amps(amps))
        output_magic = overlap * np.abs(bloch_of_amps(ref)).sum()
        # theta is compared through its cosine: acos turns a rounding error of
        # 1e-16 in an overlap near 1 into 1e-8 in the angle
        got = (math.cos(row[0]), *row[1:])
        want = (overlap, input_magic, output_magic, output_magic / input_magic)
        return len(row) == 4 and all(_close(a, b, 1e-9) for a, b in zip(got, want))

    @staticmethod
    def _bloch_rows(a0, a1) -> np.ndarray:
        """Bloch vectors of the rows (a0[i], a1[i]), normalised."""
        norm = np.sqrt(np.abs(a0) ** 2 + np.abs(a1) ** 2)
        a0, a1 = a0 / norm, a1 / norm
        off = a0 * np.conj(a1)
        return np.stack([2.0 * off.real, -2.0 * off.imag,
                         np.abs(a0) ** 2 - np.abs(a1) ** 2], axis=1)

    @staticmethod
    def _rows_match(rows, want) -> bool:
        rows = np.asarray(rows, dtype=float)
        return rows.shape == want.shape and bool(np.all(np.abs(rows - want) <= 1e-9))

    def _check_wz_sweep(self, expect, text):
        ref, perp = self._ref_amps(expect["gamma"], expect["gamma_prime"])
        ref_level = np.abs(bloch_of_amps(ref)).sum()
        theta = np.linspace(0.0, 2.0 * math.pi, expect["points"], endpoint=False)
        c, s = np.cos(theta / 2), np.exp(1j * expect["zeta"]) * np.sin(theta / 2)
        m_in = self._bloch_rows(c * ref[0] + s * perp[0], c * ref[1] + s * perp[1])
        input_magic = np.maximum(1.0, np.abs(m_in).sum(axis=1))
        output_magic = np.maximum(1.0, np.abs(np.cos(theta)) * ref_level)
        want = np.stack([theta, input_magic, output_magic, output_magic / input_magic], axis=1)
        return self._rows_match(self._rows(text, expect["json"]), want)

    def _check_bh_sweep(self, expect, text):
        xi, eta, theta = expect["xi"], expect["eta"], expect["theta"]
        zeta = np.linspace(0.0, 2.0 * math.pi, expect["points"], endpoint=False)
        m_in = self._bloch_rows(np.full(zeta.shape, math.cos(theta / 2), dtype=complex),
                                np.exp(-1j * zeta) * math.sin(theta / 2))
        m_out = np.stack([eta * math.sin(theta) * np.cos(zeta),
                          -eta * math.sin(theta) * np.sin(zeta),
                          np.full(zeta.shape, (1 - 2 * xi) * math.cos(theta))], axis=1)
        level_in, level_out = np.abs(m_in).sum(axis=1), np.abs(m_out).sum(axis=1)
        want = np.stack([zeta, np.maximum(1.0, level_in), np.maximum(1.0, level_out),
                         level_out / level_in], axis=1)
        return self._rows_match(self._rows(text, expect["json"]), want)

    def _check_geometry(self, expect, text):
        p, r = expect["points"], expect["r"]

        def level_gap(b0, b1, t):
            return abs(np.abs((1 - t) * b0 + t * b1).sum() - r)

        if expect["json"]:
            data = json.loads(text)
            sys_t, aux_t, common = data["sys_t"], data["aux_t"], data["common_t"]
            roots_ok = (all(level_gap(p[0], p[1], t) <= 1e-9 for t in sys_t)
                        and all(level_gap(p[2], p[3], t) <= 1e-9 for t in aux_t))
            paired = all(any(abs(c - s) <= 1e-8 for s in sys_t)
                         and any(abs(c - a) <= 1e-8 for a in aux_t) for c in common)
            return roots_ok and paired and data["broadcastable"] == bool(common)
        fields = self._text_fields(text)
        common = json.loads(fields["common_t"])
        return (fields["broadcastable"] == str(bool(common))
                and all(level_gap(p[0], p[1], t) <= 1e-9 and level_gap(p[2], p[3], t) <= 1e-9
                        for t in common))

    @staticmethod
    def summary(passes) -> dict:
        times = [t for p in passes for t in p.op_s]
        return {"op_ms_p99": float(np.percentile(times, 99) * 1e3)}


WORKLOADS = {"search": Search, "verify": Verify, "queries": Queries}
