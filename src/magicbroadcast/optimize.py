"""Broadcasting-unitary search: the 15-angle two-qubit parameterization, the
magic- and state-broadcast objectives, and a stochastic-ranking evolution
strategy over the angle box.

The hot path evaluates whole populations at once with batched 2x2 / 4x4
algebra; a single run is strictly deterministic given its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .measures import magic_power, rom_batch, rom_qubit
from .states import DensityMatrix, PureState, bloch_batch, haar_random_pure

N_PARAMS = 15
_TWO_PI = 2.0 * math.pi

# Bell-type eigenbasis of the sigma_k x sigma_k interaction terms
_BELL = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
).T / math.sqrt(2.0)
# phase coefficients per Bell column for (alpha, beta, delta)
_PHASE_SIGNS = np.array(
    [
        [1.0, -1.0, 1.0],
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0],
        [-1.0, -1.0, -1.0],
    ]
)


@dataclass(frozen=True)
class UnitaryParams15:
    """Four local Z-Y-Z Euler triples plus the three interaction angles."""

    su2_angles: tuple       # ((k1,l1,n1), ..., (k4,l4,n4))
    core_angles: tuple      # (alpha, beta, delta)

    @classmethod
    def from_vector(cls, vec) -> "UnitaryParams15":
        vec = [float(v) for v in vec]
        if len(vec) != N_PARAMS:
            raise InvalidInputError(f"expected {N_PARAMS} angles, got {len(vec)}")
        triples = tuple(tuple(vec[3 * i : 3 * i + 3]) for i in range(4))
        return cls(su2_angles=triples, core_angles=tuple(vec[12:]))

    def to_vector(self) -> np.ndarray:
        flat = [a for triple in self.su2_angles for a in triple]
        flat.extend(self.core_angles)
        return np.array(flat)


def _su2_batch(kappa, lam, nu) -> np.ndarray:
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


def _core_batch(alpha, beta, delta) -> np.ndarray:
    """exp[i (a XX + b YY + d ZZ)] for angle arrays, shape (..., 4, 4)."""
    angles = np.stack([alpha, beta, delta], axis=-1)
    phases = np.exp(1j * (angles @ _PHASE_SIGNS.T))
    return np.einsum("ik,...k,jk->...ij", _BELL, phases, _BELL.conj())


def _evolved_batch(params: np.ndarray, psi_amps: np.ndarray):
    """Reduced outputs for a (N, 15) parameter batch.

    Returns (rho_sys, rho_aux), each shaped (N, 2, 2), for the evolved
    |psi> x |0> input.
    """
    p = np.atleast_2d(params)
    u = [_su2_batch(p[:, 3 * i], p[:, 3 * i + 1], p[:, 3 * i + 2]) for i in range(4)]
    core = _core_batch(p[:, 12], p[:, 13], p[:, 14])

    start = np.outer(psi_amps, [1.0, 0.0]).astype(complex)   # (sys, aux) indices
    w = np.einsum("nij,jk,nlk->nil", u[0], start, u[1])
    w = np.einsum("nij,nj->ni", core, w.reshape(len(p), 4)).reshape(len(p), 2, 2)
    w = np.einsum("nij,njk,nlk->nil", u[2], w, u[3])

    rho_sys = np.einsum("nij,nkj->nik", w, w.conj())
    rho_aux = np.einsum("nji,njk->nik", w, w.conj())
    return rho_sys, rho_aux


def _fidelity_batch_2x2(rho: np.ndarray, psi_amps: np.ndarray) -> np.ndarray:
    return np.einsum("i,nij,j->n", psi_amps.conj(), rho, psi_amps).real


def build_unitary(p: UnitaryParams15) -> np.ndarray:
    """(U3 x U4) . exp[i(a XX + b YY + d ZZ)] . (U1 x U2), a 4x4 unitary."""
    tri = p.su2_angles
    locals_ = [
        _su2_batch(np.array(t[0]), np.array(t[1]), np.array(t[2])) for t in tri
    ]
    core = _core_batch(*[np.array(a) for a in p.core_angles])
    return (
        np.kron(locals_[2], locals_[3]) @ core @ np.kron(locals_[0], locals_[1])
    )


def _objective_batch(params, psi_amps, objective: str) -> np.ndarray:
    rho_sys, rho_aux = _evolved_batch(params, psi_amps)
    if objective == "magic":
        # one core call for both outputs and, in the last row, the input
        rho = np.concatenate(
            (rho_sys, rho_aux, np.outer(psi_amps, psi_amps.conj())[None])
        )
        rom = rom_batch(bloch_batch(rho))
        return np.abs(rom[:-1] - rom[-1]).reshape(2, -1).max(axis=0)
    if objective == "state":
        return np.maximum(
            1.0 - _fidelity_batch_2x2(rho_sys, psi_amps),
            1.0 - _fidelity_batch_2x2(rho_aux, psi_amps),
        )
    raise InvalidInputError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    population: int = 42
    max_evals: int = 200_000
    epsilon: float = 1e-4
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        if self.population < 4 or self.population % 2:
            raise InvalidInputError("population must be even and >= 4")
        if self.epsilon <= 0.0:
            raise InvalidInputError("epsilon must be positive")
        if self.restarts < 1 or self.max_evals < self.population:
            raise InvalidInputError("invalid budget configuration")

    @classmethod
    def from_json(cls, data: dict) -> "OptimizerConfig":
        known = {k: data[k] for k in
                 ("population", "max_evals", "epsilon", "seed", "restarts")
                 if k in data}
        return cls(**known)


@dataclass(frozen=True)
class BroadcastOutcome:
    params: UnitaryParams15
    objective_value: float
    sys_fidelity: float
    aux_fidelity: float
    sys_magic: float
    aux_magic: float
    input_magic: float
    magic_power: float
    evals_used: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "params": [float(v) for v in self.params.to_vector()],
            "objective_value": self.objective_value,
            "sys_fidelity": self.sys_fidelity,
            "aux_fidelity": self.aux_fidelity,
            "sys_magic": self.sys_magic,
            "aux_magic": self.aux_magic,
            "input_magic": self.input_magic,
            "magic_power": self.magic_power,
            "evals_used": self.evals_used,
            "converged": self.converged,
        }


def _es_run(objective, psi_amps, cfg, rng, budget, start=None):
    """One (mu, lambda) evolution-strategy restart; returns (x, f, evals).

    With `start` given, the population is initialized around that point
    (the usual "search from the supplied starting point" convention);
    otherwise it is drawn uniformly over the box.
    """
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
    fits = _objective_batch(xs, psi_amps, objective)
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
        fits = _objective_batch(xs, psi_amps, objective)
        evals += lam
        idx = int(np.argmin(fits))
        if fits[idx] < best_f:
            best_x, best_f = xs[idx].copy(), float(fits[idx])
    return best_x, best_f, evals


def isres_optimize(
    objective: str, psi: PureState, cfg: OptimizerConfig
) -> BroadcastOutcome:
    """Best-of-restarts evolution-strategy search for one input state.

    Never warm-start this search at the analytic copier 1 x V with
    V|0> = |psi> (kappa_2 = arg a_1 - arg a_0, lambda_2 = 2 acos|a_0|, all
    other angles 0).  A known state can be copied, so both objectives are
    zero there: the search would stop at its first evaluation with the same
    unitary for both objectives, and the magic-power gap between them that
    the batch experiment measures would collapse to 0.
    """
    if objective not in ("magic", "state"):
        raise InvalidInputError(f"unknown objective {objective!r}")
    psi_amps = psi.amps
    per_restart = cfg.max_evals // cfg.restarts
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)

    best_x, best_f = None, math.inf
    used = 0
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(seeds[restart])
        # the first restart searches outward from the identity unitary;
        # the rest re-randomize over the full box
        start = np.zeros(N_PARAMS) if restart == 0 else None
        x, f, evals = _es_run(
            objective, psi_amps, cfg, rng, per_restart, start=start
        )
        used += evals
        if f < best_f:
            best_x, best_f = x, f
        if best_f <= cfg.epsilon:
            break

    params = UnitaryParams15.from_vector(best_x)
    rho_sys, rho_aux = _evolved_batch(best_x[None, :], psi_amps)
    sys_rho = DensityMatrix(rho_sys[0])
    aux_rho = DensityMatrix(rho_aux[0])
    return BroadcastOutcome(
        params=params,
        objective_value=best_f,
        sys_fidelity=float(_fidelity_batch_2x2(rho_sys, psi_amps)[0]),
        aux_fidelity=float(_fidelity_batch_2x2(rho_aux, psi_amps)[0]),
        sys_magic=rom_qubit(sys_rho),
        aux_magic=rom_qubit(aux_rho),
        input_magic=rom_qubit(psi.density()),
        magic_power=magic_power(build_unitary(params)),
        evals_used=used,
        converged=best_f <= cfg.epsilon,
    )


def outcome_from_json(data: dict) -> BroadcastOutcome:
    """Rebuild a BroadcastOutcome from its to_json() payload."""
    return BroadcastOutcome(
        params=UnitaryParams15.from_vector(np.asarray(data["params"], float)),
        objective_value=float(data["objective_value"]),
        sys_fidelity=float(data["sys_fidelity"]),
        aux_fidelity=float(data["aux_fidelity"]),
        sys_magic=float(data["sys_magic"]),
        aux_magic=float(data["aux_magic"]),
        input_magic=float(data["input_magic"]),
        magic_power=float(data["magic_power"]),
        evals_used=int(data["evals_used"]),
        converged=bool(data["converged"]),
    )


@dataclass(frozen=True)
class BatchSummary:
    objective: str
    n_samples: int
    mean_fidelity: float
    min_fidelity: float
    mean_magic_power: float
    convergence_rate: float
    per_sample: tuple

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "objective": self.objective,
            "n_samples": self.n_samples,
            "mean_fidelity": self.mean_fidelity,
            "min_fidelity": self.min_fidelity,
            "mean_magic_power": self.mean_magic_power,
            "convergence_rate": self.convergence_rate,
        }


def batch_experiment(
    n_samples: int,
    objective: str,
    cfg: OptimizerConfig,
    outcome_sink=None,
    precomputed=None,
) -> BatchSummary:
    """Optimize over Haar-random inputs with per-sample seeds base + i.

    `outcome_sink` (if given) receives (index, BroadcastOutcome) as results
    arrive; `precomputed` maps sample index -> BroadcastOutcome for resume.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    outcomes = []
    for i in range(n_samples):
        if precomputed is not None and i in precomputed:
            outcome = precomputed[i]
        else:
            sample_seed = cfg.seed + i
            psi = haar_random_pure(2, sample_seed)
            run_cfg = OptimizerConfig(
                population=cfg.population,
                max_evals=cfg.max_evals,
                epsilon=cfg.epsilon,
                seed=sample_seed,
                restarts=cfg.restarts,
            )
            outcome = isres_optimize(objective, psi, run_cfg)
            if outcome_sink is not None:
                outcome_sink(i, outcome)
        outcomes.append(outcome)

    fidelities = np.array(
        [(o.sys_fidelity + o.aux_fidelity) / 2.0 for o in outcomes]
    )
    return BatchSummary(
        objective=objective,
        n_samples=n_samples,
        mean_fidelity=float(fidelities.mean()),
        min_fidelity=float(fidelities.min()),
        mean_magic_power=float(
            np.mean([o.magic_power for o in outcomes])
        ),
        convergence_rate=float(
            np.mean([o.converged for o in outcomes])
        ),
        per_sample=tuple(outcomes),
    )
