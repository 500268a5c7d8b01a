import dataclasses
import json
import math

import numpy as np
import pytest

from magicbroadcast import optimize
from magicbroadcast.errors import InvalidInputError
from magicbroadcast.measures import magic_power, magic_report, rom_batch, rom_qubit
from magicbroadcast.optimize import (
    N_PARAMS,
    BroadcastOutcome,
    OptimizerConfig,
    _evolved_batch,
    _objective_batch,
    batch_experiment,
    build_unitary,
    isres_optimize,
    outcome_from_json,
)
from magicbroadcast.polytope import broadcast_geometry_certificate
from magicbroadcast.states import (
    DensityMatrix,
    PureState,
    bloch_batch,
    haar_random_pure,
    partial_trace,
    t_state,
)

_TWO_PI = 2.0 * math.pi
FAST_CFG = OptimizerConfig(
    population=42, max_evals=40_000, epsilon=1e-4, seed=0, restarts=3
)


def test_build_unitary_is_unitary_on_random_vectors():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        u = build_unitary(rng.uniform(0, 2 * math.pi, N_PARAMS))
        worst = max(worst, np.max(np.abs(u.conj().T @ u - np.eye(4))))
    assert worst <= 1e-12


def test_zero_parameters_give_the_identity():
    u = build_unitary(np.zeros(N_PARAMS))
    phase = u[0, 0] / abs(u[0, 0])
    assert np.allclose(u / phase, np.eye(4), atol=1e-12)


def test_clifford_core_angles_have_no_magic_power():
    rng = np.random.default_rng(1)
    for _ in range(25):
        vec = np.zeros(N_PARAMS)
        vec[12:] = rng.choice([0.0, math.pi / 4.0], size=3)
        assert magic_power(build_unitary(vec)) <= 1e-10


def test_objectives_at_identity():
    psi = haar_random_pure(2, 3)
    # aux output is |0><0|: magic objective equals R(psi) - 1
    row = np.zeros((1, N_PARAMS))
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
        u @ PureState(np.kron(psi.amps, [1.0, 0.0])).density().mat @ u.conj().T
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
    assert a.params == b.params
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


@pytest.mark.parametrize("field,value", [
    ("epsilon", math.nan), ("epsilon", math.inf), ("epsilon", -math.inf),
    ("epsilon", "1e-4"), ("epsilon", True), ("epsilon", None),
    ("population", 42.0), ("population", True), ("max_evals", 1e5),
    ("seed", 1.5), ("seed", "0"), ("seed", -1), ("restarts", 2.0),
    ("restarts", False),
])
def test_config_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(InvalidInputError, match=field):
        OptimizerConfig(**{field: value})


def test_config_accepts_integral_epsilon_and_numpy_counts():
    cfg = OptimizerConfig(epsilon=1, population=np.int64(42), seed=np.int64(3))
    assert cfg.epsilon == 1 and cfg.population == 42 and cfg.seed == 3


def test_config_from_json_ignores_extra_fields():
    cfg = OptimizerConfig.from_json(
        {"population": 14, "seed": 9, "n_samples": 50}
    )
    assert cfg.population == 14
    assert cfg.seed == 9


def test_outcome_json_round_trip():
    outcome = isres_optimize("magic", haar_random_pure(2, 13), FAST_CFG)
    clone = outcome_from_json(json.loads(json.dumps(outcome.to_json())))
    assert isinstance(clone, BroadcastOutcome)
    for field in dataclasses.fields(BroadcastOutcome):
        got, want = getattr(clone, field.name), getattr(outcome, field.name)
        assert (type(got), got) == (type(want), want), field.name


def test_each_record_payload_is_schema_then_its_fields():
    summary = batch_experiment(
        1, "magic", OptimizerConfig(population=4, max_evals=8, restarts=1)
    )
    ends = ([0.5, 0.4, 0.3], [-0.2, 0.6, -0.4], [0.3, -0.5, 0.4], [0.6, 0.0, -0.6])
    records = (
        magic_report(t_state()),
        broadcast_geometry_certificate(*ends, 1.1),
        summary.per_sample[0],
        summary,
    )
    for record in records:
        names = [f.name for f in dataclasses.fields(record) if f.name != "per_sample"]
        payload = record.to_json()
        assert list(payload) == ["schema", *names]
        assert payload["schema"] == 1


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


# ---------------------------------------------------------------------------
# the einsum chain and three-draw ES loop the fused kernel replaced, kept
# verbatim (names prefixed `_loop_`) as the reference the search must follow
# ---------------------------------------------------------------------------

_LOOP_BELL = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
).T / math.sqrt(2.0)
_LOOP_PHASE_SIGNS = np.array(
    [
        [1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0],
    ]
)


def _loop_su2_batch(kappa, lam, nu) -> np.ndarray:
    """Z-Y-Z Euler unitaries for angle arrays, shape (..., 2, 2)."""
    half_sum = 0.5 * (kappa + nu)
    half_diff = 0.5 * (kappa - nu)
    c, s = np.cos(lam / 2.0), np.sin(lam / 2.0)
    out = np.empty(np.shape(kappa) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * half_sum) * c
    out[..., 0, 1] = -np.exp(-1j * half_diff) * s
    out[..., 1, 0] = np.exp(1j * half_diff) * s
    out[..., 1, 1] = np.exp(1j * half_sum) * c
    return out


def _loop_core_batch(alpha, beta, delta) -> np.ndarray:
    angles = np.stack([alpha, beta, delta], axis=-1)
    phases = np.exp(1j * (angles @ _LOOP_PHASE_SIGNS.T))
    return np.einsum("ik,...k,jk->...ij", _LOOP_BELL, phases, _LOOP_BELL.conj())


def _loop_evolved_batch(params: np.ndarray, psi_amps: np.ndarray):
    """Reduced outputs for a (N, 15) parameter batch.

    Returns (rho_sys, rho_aux), each shaped (N, 2, 2), for the evolved
    |psi> x |0> input.
    """
    p = np.atleast_2d(params)
    u = [_loop_su2_batch(p[:, 3 * i], p[:, 3 * i + 1], p[:, 3 * i + 2])
         for i in range(4)]
    core = _loop_core_batch(p[:, 12], p[:, 13], p[:, 14])

    start = np.outer(psi_amps, [1.0, 0.0]).astype(complex)   # (sys, aux) indices
    w = np.einsum("nij,jk,nlk->nil", u[0], start, u[1])
    w = np.einsum("nij,nj->ni", core, w.reshape(len(p), 4)).reshape(len(p), 2, 2)
    w = np.einsum("nij,njk,nlk->nil", u[2], w, u[3])

    rho_sys = np.einsum("nij,nkj->nik", w, w.conj())
    rho_aux = np.einsum("nji,njk->nik", w, w.conj())
    return rho_sys, rho_aux


def _loop_fidelity_batch_2x2(rho: np.ndarray, psi_amps: np.ndarray) -> np.ndarray:
    return np.einsum("i,nij,j->n", psi_amps.conj(), rho, psi_amps).real


def _loop_objective_batch(params, psi_amps, objective: str) -> np.ndarray:
    rho_sys, rho_aux = _loop_evolved_batch(params, psi_amps)
    if objective == "magic":
        # one core call for both outputs and, in the last row, the input
        rho = np.concatenate(
            (rho_sys, rho_aux, np.outer(psi_amps, psi_amps.conj())[None])
        )
        rom = rom_batch(bloch_batch(rho))
        return np.abs(rom[:-1] - rom[-1]).reshape(2, -1).max(axis=0)
    if objective == "state":
        return np.maximum(
            1.0 - _loop_fidelity_batch_2x2(rho_sys, psi_amps),
            1.0 - _loop_fidelity_batch_2x2(rho_aux, psi_amps),
        )
    raise InvalidInputError(f"unknown objective {objective!r}")


def _loop_es_run(objective, psi_amps, cfg, rng, budget, start=None):
    lam = cfg.population
    mu = max(1, math.ceil(lam / 7))
    tau = 1.0 / math.sqrt(2.0 * math.sqrt(N_PARAMS))
    tau_prime = 1.0 / math.sqrt(2.0 * N_PARAMS)

    if start is None:
        xs = rng.uniform(0.0, _TWO_PI, size=(lam, N_PARAMS))
    else:
        xs = np.mod(
            start + 0.2 * rng.standard_normal((lam, N_PARAMS)), _TWO_PI
        )
        xs[0] = start
    sigmas = np.full((lam, N_PARAMS), 0.2)
    fits = _loop_objective_batch(xs, psi_amps, objective)
    evals = lam
    best_idx = int(np.argmin(fits))
    best_x, best_f = xs[best_idx].copy(), float(fits[best_idx])

    while best_f > cfg.epsilon and evals + lam <= budget:
        # ranking: no nonlinear constraints, so the stochastic bubble sort
        # reduces to a plain fitness sort
        order = np.argsort(fits, kind="stable")
        parent_x = xs[order[:mu]]
        parent_s = sigmas[order[:mu]]
        assign = np.arange(lam) % mu
        global_step = rng.standard_normal((lam, 1))
        local_step = rng.standard_normal((lam, N_PARAMS))
        sigmas = parent_s[assign] * np.exp(
            tau_prime * global_step + tau * local_step
        )
        np.clip(sigmas, 1e-9, _TWO_PI, out=sigmas)
        xs = parent_x[assign] + sigmas * rng.standard_normal((lam, N_PARAMS))
        xs = np.mod(xs, _TWO_PI)       # box is periodic in every coordinate
        fits = _loop_objective_batch(xs, psi_amps, objective)
        evals += lam
        idx = int(np.argmin(fits))
        if fits[idx] < best_f:
            best_x, best_f = xs[idx].copy(), float(fits[idx])
    return best_x, best_f, evals


def _oracle_rows(n: int, seed: int) -> np.ndarray:
    """Seeded angle rows, with 0, pi and 2 pi - 1e-12 planted in every column."""
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.0, _TWO_PI, (n, N_PARAMS))
    edges = np.array([0.0, math.pi, _TWO_PI - 1e-12])
    rows[:3] = edges[:, None]
    rows[3:303] = rng.choice(edges, (300, N_PARAMS))
    mixed = rng.random((n - 303, N_PARAMS)) < 0.2
    rows[303:][mixed] = rng.choice(edges, mixed.sum())
    return rows


def test_fused_kernel_matches_partial_traces_of_the_unitary():
    rows = _oracle_rows(2_000, 0)
    psis = [haar_random_pure(2, seed).amps for seed in range(4)]
    worst = 0.0
    for k, psi in enumerate(psis):
        part = rows[k::len(psis)]
        rho_sys, rho_aux = _evolved_batch(part, psi)
        for row, sys_rho, aux_rho in zip(part, rho_sys, rho_aux):
            out = build_unitary(row) @ np.kron(psi, [1.0, 0.0])
            w = out.reshape(2, 2)                            # (sys, aux)
            worst = max(worst,
                        np.abs(sys_rho - w @ w.conj().T).max(),
                        np.abs(aux_rho - w.T @ w.conj()).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("objective", ["magic", "state"])
def test_fused_objective_matches_the_loop_kernel(objective):
    rows = _oracle_rows(2_000, 1)
    psi = haar_random_pure(2, 21).amps
    new = _objective_batch(rows, psi, objective)
    old = _loop_objective_batch(rows, psi, objective)
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-14)


@pytest.mark.parametrize("objective", ["magic", "state"])
def test_search_trajectories_match_the_loop_search(objective, monkeypatch):
    # 40 inputs at the release configuration: the ES reads fitness only
    # through argsort and argmin, so the ulp-level kernel change must leave
    # every ranking, and so every trajectory, alone
    cfg = OptimizerConfig(seed=0)
    fused = batch_experiment(40, objective, cfg)
    monkeypatch.setattr(optimize, "_es_run", _loop_es_run)
    loop = batch_experiment(40, objective, cfg)
    for new, old in zip(fused.per_sample, loop.per_sample):
        assert new.params == old.params
        assert new.evals_used == old.evals_used
        assert new.converged == old.converged
        assert new.objective_value == pytest.approx(old.objective_value, rel=0, abs=1e-14)
    assert fused.mean_magic_power == loop.mean_magic_power


# ---------------------------------------------------------------------------
# the chart against constructions that share no code with it: Rz Ry Rz
# products for the local unitaries and exp(iH) through `eigh` for the core
# ---------------------------------------------------------------------------

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0 + 0j, -1.0])
_I = np.eye(2, dtype=complex)


def _expi(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def _euler(kappa, lam, nu) -> np.ndarray:
    def rz(t):
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])

    c, s = math.cos(lam / 2.0), math.sin(lam / 2.0)
    return rz(kappa) @ np.array([[c, -s], [s, c]]) @ rz(nu)


def _shipped_core(alpha, beta, delta) -> np.ndarray:
    return _expi(alpha * np.kron(_Z, _X) - beta * np.kron(_Z, _I)
                 + delta * np.kron(_I, _X))


def _core_of_chart(alpha, beta, delta) -> np.ndarray:
    vec = np.zeros(N_PARAMS)
    vec[12:] = (alpha, beta, delta)
    return build_unitary(vec)


def test_chart_matches_euler_products_around_the_shipped_core():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        vec = rng.uniform(0.0, _TWO_PI, N_PARAMS)
        u = [_euler(*vec[3 * i : 3 * i + 3]) for i in range(4)]
        want = (np.kron(u[2], u[3]) @ _shipped_core(*vec[12:])
                @ np.kron(u[0], u[1]))
        got = build_unitary(vec)
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-13


def test_core_generator_is_z_x_minus_z_i_plus_i_x():
    # the core's eigenbasis is |0+>, |1+>, |1->, |0->, so its one nonlocal
    # term is Z.X: the searched family is CNOT-class, not the full KAK chart
    rng = np.random.default_rng(18)
    worst = max(
        np.abs(_core_of_chart(*angles) - _shipped_core(*angles)).max()
        for angles in rng.uniform(0.0, _TWO_PI, (200, 3))
    )
    assert worst <= 1e-13


@pytest.mark.xfail(strict=True, reason="the core is exp[i(a Z.X - b Z.I + d I.X)], "
                   "not the documented exp[i(a XX + b YY + d ZZ)]")
def test_core_is_the_documented_xx_yy_zz_interaction():
    angles = (0.3, 0.7, -0.4)
    want = _expi(angles[0] * np.kron(_X, _X) + angles[1] * np.kron(_Y, _Y)
                 + angles[2] * np.kron(_Z, _Z))
    assert np.abs(_core_of_chart(*angles) - want).max() <= 1e-12
