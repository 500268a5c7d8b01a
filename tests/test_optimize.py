import math

import numpy as np
import pytest

from magicbroadcast.errors import InvalidInputError
from magicbroadcast.measures import magic_power, rom_qubit
from magicbroadcast.optimize import (
    N_PARAMS,
    BroadcastOutcome,
    OptimizerConfig,
    UnitaryParams15,
    _objective_batch,
    batch_experiment,
    build_unitary,
    isres_optimize,
    outcome_from_json,
)
from magicbroadcast.states import (
    DensityMatrix,
    PureState,
    haar_random_pure,
    partial_trace,
    t_state,
    tensor,
)

FAST_CFG = OptimizerConfig(
    population=42, max_evals=40_000, epsilon=1e-4, seed=0, restarts=3
)


def test_params_round_trip():
    vec = np.linspace(0.1, 6.0, N_PARAMS)
    params = UnitaryParams15.from_vector(vec)
    assert np.allclose(params.to_vector(), vec, atol=1e-15)


def test_build_unitary_is_unitary_on_random_vectors():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        u = build_unitary(
            UnitaryParams15.from_vector(rng.uniform(0, 2 * math.pi, N_PARAMS))
        )
        worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(4))))
    assert worst <= 1e-12


def test_zero_parameters_give_the_identity():
    u = build_unitary(UnitaryParams15.from_vector(np.zeros(N_PARAMS)))
    phase = u[0, 0] / abs(u[0, 0])
    assert np.allclose(u / phase, np.eye(4), atol=1e-12)


def test_clifford_core_angles_have_no_magic_power():
    rng = np.random.default_rng(1)
    for _ in range(25):
        vec = np.zeros(N_PARAMS)
        vec[12:] = rng.choice([0.0, math.pi / 4.0], size=3)
        assert magic_power(build_unitary(UnitaryParams15.from_vector(vec))) <= 1e-10


def test_objectives_at_identity():
    psi = haar_random_pure(2, 3)
    identity = UnitaryParams15.from_vector(np.zeros(N_PARAMS))
    # aux output is |0><0|: magic objective equals R(psi) - 1
    row = identity.to_vector()[None, :]
    expected = rom_qubit(psi.density()) - 1.0
    (magic,) = _objective_batch(row, psi.amps, "magic")
    assert magic == pytest.approx(expected, abs=1e-10)
    # state objective is dominated by the aux-side infidelity 1 - |<psi|0>|^2
    shortfall = 1.0 - abs(psi.amps[0]) ** 2
    (state,) = _objective_batch(row, psi.amps, "state")
    assert state == pytest.approx(shortfall, abs=1e-10)


def test_outcome_reduced_states_match_unitary_action():
    psi = haar_random_pure(2, 5)
    outcome = isres_optimize("magic", psi, FAST_CFG)
    u = build_unitary(outcome.params)
    joint = DensityMatrix(
        u @ tensor(psi, PureState([1.0, 0.0])).density().mat @ u.conj().T
    )
    sys_rho = partial_trace(joint, 0)
    aux_rho = partial_trace(joint, 1)
    assert rom_qubit(sys_rho) == pytest.approx(outcome.sys_magic, abs=1e-9)
    assert rom_qubit(aux_rho) == pytest.approx(outcome.aux_magic, abs=1e-9)


def test_converged_magic_outcome_meets_both_subsystem_conditions():
    psi = haar_random_pure(2, 11)
    outcome = isres_optimize("magic", psi, FAST_CFG)
    assert outcome.converged
    assert abs(outcome.sys_magic - outcome.input_magic) <= FAST_CFG.epsilon
    assert abs(outcome.aux_magic - outcome.input_magic) <= FAST_CFG.epsilon


def test_state_objective_reaches_high_fidelity_on_a_known_input():
    # a per-state unitary may copy a known state; both subsystems approach it
    outcome = isres_optimize("state", t_state(), FAST_CFG)
    assert outcome.converged
    assert outcome.sys_fidelity >= 1.0 - 2e-4
    assert outcome.aux_fidelity >= 1.0 - 2e-4


def test_optimizer_is_deterministic():
    psi = haar_random_pure(2, 7)
    a = isres_optimize("magic", psi, FAST_CFG)
    b = isres_optimize("magic", psi, FAST_CFG)
    assert np.array_equal(a.params.to_vector(), b.params.to_vector())
    assert a.objective_value == b.objective_value
    assert a.evals_used == b.evals_used


def test_optimizer_rejects_unknown_objective():
    with pytest.raises(InvalidInputError):
        isres_optimize("fidelity", t_state(), FAST_CFG)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        OptimizerConfig(population=3)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(population=7)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(epsilon=0.0)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(restarts=0)


def test_config_from_json_ignores_extra_fields():
    cfg = OptimizerConfig.from_json(
        {"population": 14, "seed": 9, "n_samples": 50}
    )
    assert cfg.population == 14
    assert cfg.seed == 9


def test_outcome_json_round_trip():
    outcome = isres_optimize("magic", haar_random_pure(2, 13), FAST_CFG)
    clone = outcome_from_json(outcome.to_json())
    assert isinstance(clone, BroadcastOutcome)
    assert np.allclose(
        clone.params.to_vector(), outcome.params.to_vector(), atol=1e-15
    )
    assert clone.magic_power == pytest.approx(outcome.magic_power, abs=1e-15)


def test_batch_experiment_resume_equivalence():
    cfg = OptimizerConfig(
        population=42, max_evals=20_000, epsilon=1e-4, seed=0, restarts=2
    )
    full = batch_experiment(4, "magic", cfg)
    seen = {}
    batch_experiment(
        2, "magic", cfg, outcome_sink=lambda i, o: seen.__setitem__(i, o)
    )
    resumed = batch_experiment(4, "magic", cfg, precomputed=seen)
    assert resumed.mean_fidelity == full.mean_fidelity
    assert resumed.mean_magic_power == full.mean_magic_power


def test_batch_experiment_rejects_empty_batch():
    with pytest.raises(InvalidInputError):
        batch_experiment(0, "magic", FAST_CFG)


def _analytic_copier(amps) -> np.ndarray:
    """The chart point of 1 x V with V|0> = |psi>: it maps |psi>|0> to |psi>|psi>."""
    x = np.zeros(N_PARAMS)
    x[3] = np.angle(amps[1]) - np.angle(amps[0])        # kappa_2
    x[4] = 2.0 * math.acos(min(1.0, abs(amps[0])))      # lambda_2
    return x


@pytest.mark.parametrize("objective", ["magic", "state"])
def test_known_state_copier_is_a_planted_optimum(objective):
    # a known state can be copied, so both objectives reach 0 at this point
    worst = max(
        float(_objective_batch(_analytic_copier(psi.amps)[None], psi.amps,
                               objective)[0])
        for psi in (haar_random_pure(2, seed) for seed in range(200))
    )
    assert worst <= 1e-12


@pytest.mark.parametrize("objective", ["magic", "state"])
def test_parameter_5_only_adds_a_global_phase(objective):
    # nu_2 rotates the aux |0> about Z before anything acts on it
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(200):
        psi = haar_random_pure(2, rng)
        x = rng.uniform(0.0, 2.0 * math.pi, (2, N_PARAMS))
        x[1] = x[0]
        x[1, 5] = rng.uniform(0.0, 2.0 * math.pi)
        values = _objective_batch(x, psi.amps, objective)
        worst = max(worst, abs(float(values[0] - values[1])))
    assert worst <= 1e-12
