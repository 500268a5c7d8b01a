"""Acceptance gate.

Each test covers one release criterion and records a single PASS/FAIL line;
the conftest terminal-summary hook prints them after the run so the output
reads as a checklist.  Sample counts follow the release contract; the whole
module stays well inside its runtime budget.
"""
import math
import time

import numpy as np
import pytest

from magicbroadcast.checks import run_suite
from magicbroadcast.cloners import (
    BHParams,
    WZParams,
    bh_input_amps,
    bh_low_magic_interval,
    bh_output,
    eta_schwarz_max,
    m_ratio,
)
from magicbroadcast.measures import magic_power, rom_qubit, sre2_pure_batch
from magicbroadcast.optimize import OptimizerConfig, batch_experiment
from magicbroadcast.stabilizers import (
    CNOT,
    clifford_group_1q,
    stabilizer_states,
)
from magicbroadcast.states import T_POLAR_ANGLE, PureState, bloch_from_density, h_state


VERDICTS = []


def _verdict(num: int, passed: bool, detail: str):
    line = f"criterion {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)
    assert passed, line


def test_criterion_01_closed_form_matches_lp_oracle():
    t0 = time.perf_counter()
    report = run_suite("lemma1", n_samples=100_000, seed=0)
    runtime = time.perf_counter() - t0
    _verdict(
        1,
        report.passed and runtime < 120.0,
        f"closed form vs certified LP optimum on 1e5 states: max diff "
        f"{report.max_violation:.2e} (tol 1e-8), {runtime:.2f}s",
    )


def test_criterion_02_named_state_magic():
    r_t = rom_qubit(
        WZParams(T_POLAR_ANGLE, math.pi / 4.0).reference().density()
    )
    r_h = rom_qubit(h_state().density())
    r_stab = max(rom_qubit_amp(a) for a in stabilizer_states(1))
    ok = (
        abs(r_t - math.sqrt(3.0)) <= 1e-12
        and abs(r_h - math.sqrt(2.0)) <= 1e-12
        and abs(r_stab - 1.0) <= 1e-12
    )
    _verdict(
        2,
        ok,
        f"R(T)={r_t:.12f}, R(H)={r_h:.12f}, max stabilizer R={r_stab:.12f}",
    )


def rom_qubit_amp(amps):
    from magicbroadcast.states import PureState

    return rom_qubit(PureState(amps).density())


def test_criterion_03_entropy_monotone_ingredients():
    clifford = run_suite("clifford", n_samples=1000, seed=0)
    additive = run_suite("additivity", n_samples=1000, seed=0)
    monotone = run_suite("monotone", n_samples=10_000, seed=0)
    ok = clifford.passed and additive.passed and monotone.passed
    _verdict(
        3,
        ok,
        f"Clifford invariance {clifford.max_violation:.2e} (tol 1e-10), "
        f"additivity {additive.max_violation:.2e} (tol 1e-10), "
        f"partial-trace monotonicity {monotone.max_violation:.2e} (tol 1e-9)",
    )


def test_criterion_04_superposed_inputs_break_the_equality():
    report = run_suite("theorem2", n_samples=720, seed=0)
    _verdict(
        4,
        report.passed,
        f"720-point zeta sweep at theta=pi/4: aggregate violation "
        f"{report.max_violation:.2e} (gap > 0.1, closed form to 1e-9, "
        f"output zeta-independent)",
    )


def test_criterion_05_auxiliary_magic_bound():
    report = run_suite("theorem3", n_samples=10_000, seed=0)
    _verdict(
        5,
        report.passed,
        f"1e4 random broadcasters: worst excess of auxiliary over reference "
        f"magic or of a reference output off its level "
        f"{report.max_violation:.2e} (tol 1e-9)",
    )


def test_criterion_06_wz_overproduction_on_h_input():
    from magicbroadcast.cloners import wz_state_check

    check = wz_state_check(WZParams(T_POLAR_ANGLE, math.pi / 4.0), h_state())
    expected = math.sqrt((3.0 + math.sqrt(6.0)) / 2.0)
    ok = (
        abs(check.output_magic - expected) <= 1e-6
        and check.output_magic > check.input_magic
        and abs(check.input_magic - math.sqrt(2.0)) <= 1e-12
    )
    _verdict(
        6,
        ok,
        f"T-reference machine on H input: output magic "
        f"{check.output_magic:.6f} (expected {expected:.6f}) exceeds input "
        f"{check.input_magic:.6f}",
    )


def test_criterion_07_bh_scaling_and_ratios():
    params = BHParams(1.0 / 6.0, 2.0 / 3.0)
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 50):
        for zeta in np.linspace(0.0, 2.0 * math.pi, 50):
            b_in = bloch_from_density(
                PureState(bh_input_amps(float(theta), float(zeta))).density()
            )
            b_out = bloch_from_density(bh_output(params, float(theta), float(zeta)))
            worst = max(worst, np.max(np.abs(b_out - (2.0 / 3.0) * b_in)))

    quarter = BHParams(0.25, eta_schwarz_max(0.25))
    ratio_err = abs(
        m_ratio(quarter, math.pi / 2.0, 0.4) - 1.0 / math.sqrt(2.0)
    )
    low, high = bh_low_magic_interval()
    ok = (
        worst <= 1e-12
        and ratio_err <= 1e-12
        and abs(low - 0.88) <= 0.01
        and abs(high - 0.91) <= 0.01
    )
    _verdict(
        7,
        ok,
        f"2/3 Bloch scaling err {worst:.2e} on 50x50 grid; ratio-at-1/4 err "
        f"{ratio_err:.2e}; low-magic interval [{low:.4f}, {high:.4f}] vs "
        f"[0.88, 0.91] +/- 0.01",
    )


def _paired_bootstrap_interval(a, b) -> tuple:
    """95 % percentile interval of mean(a - b) over 2 000 resamples of the
    pairs, drawn jointly from a fixed seed."""
    diffs = np.asarray(a) - np.asarray(b)
    picks = np.random.default_rng(0).integers(diffs.size, size=(2000, diffs.size))
    low, high = np.percentile(diffs[picks].mean(axis=1), [2.5, 97.5])
    return float(low), float(high)


def test_criterion_08_reduced_scale_experiment():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(
        population=42, max_evals=200_000, epsilon=1e-4, seed=0, restarts=5
    )
    magic_run = batch_experiment(200, "magic", cfg)
    state_run = batch_experiment(200, "state", cfg)
    runtime = time.perf_counter() - t0
    gap = magic_run.mean_magic_power - state_run.mean_magic_power
    low, high = _paired_bootstrap_interval(
        [o.magic_power for o in magic_run.per_sample],
        [o.magic_power for o in state_run.per_sample],
    )
    ok = (
        magic_run.convergence_rate >= 0.95
        and 0.60 <= magic_run.mean_fidelity <= 0.72
        and gap >= 0.02
        and magic_run.min_fidelity < 0.05
        and runtime <= 7200.0
    )
    _verdict(
        8,
        ok,
        f"n=200: convergence {magic_run.convergence_rate:.2f}, mean fidelity "
        f"{magic_run.mean_fidelity:.4f} in [0.60, 0.72], magic-power gap "
        f"{gap:.4f} (paired-bootstrap 95% CI [{low:.3f}, {high:.3f}]) >= 0.02, "
        f"min fidelity {magic_run.min_fidelity:.4f} < "
        f"0.05, {runtime:.0f}s",
    )


def test_criterion_09_geometry_certificate_vs_dense_scan():
    report = run_suite("geometry", n_samples=1000, seed=0)
    _verdict(
        9,
        report.passed,
        f"1e3 randomized certificates vs 1e4-point scans: worst mismatch "
        f"{report.max_violation:.2e} (grid resolution "
        f"{report.tolerance:.1e})",
    )


def test_criterion_10_faithfulness_and_clifford_magic_power():
    worst_sre = 0.0
    for n in (1, 2):
        vals = sre2_pure_batch(stabilizer_states(n))
        worst_sre = max(worst_sre, float(np.max(np.abs(vals))))

    rng = np.random.default_rng(0)
    group = clifford_group_1q()
    worst_power = 0.0
    for _ in range(100):
        u = np.eye(4, dtype=complex)
        for _ in range(rng.integers(1, 6)):
            local = np.kron(
                group[rng.integers(len(group))],
                group[rng.integers(len(group))],
            )
            u = local @ u
            if rng.random() < 0.5:
                u = CNOT @ u
        worst_power = max(worst_power, magic_power(u))
    ok = worst_sre <= 1e-12 and worst_power <= 1e-10
    _verdict(
        10,
        ok,
        f"M2 on all 66 stabilizer states <= {worst_sre:.2e} (tol 1e-12); "
        f"magic power over 100 random Clifford compositions <= "
        f"{worst_power:.2e} (tol 1e-10)",
    )
