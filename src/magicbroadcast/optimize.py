"""Broadcasting-unitary search: the 15-angle two-qubit parameterization, the
magic- and state-broadcast objectives, and a stochastic-ranking evolution
strategy over the angle box.

The hot path is one fused kernel, `_evolved_batch`, that takes a whole
population of angle vectors to the two reduced outputs of psi x |0>:

- the input is the product (U1 psi) x (U2 |0>), one outer product;
- the four local SU(2)s and the core phases come from one `_chart_factors`
  call, one cosine and one sine over all angles;
- the core is a phase vector between two 4x4 products with `_BELL`;
- every 2x2 product is a broadcast multiply-add (`_mul_2x2`).

A single run is strictly deterministic given its seed.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .measures import magic_power, rom_batch, rom_qubit
from .states import DensityMatrix, PureState, bloch_batch, haar_random_pure
from .states import pure_bloch_batch

N_PARAMS = 15
_TWO_PI = 2.0 * math.pi

# Eigenbasis of the core, one basis vector per column.  The transpose makes
# the columns |0+>, |1+>, |1->, |0-> rather than the Bell states, so with
# `_PHASE_SIGNS` the core is exp[i(a Z.X - b Z.I + d I.X)], not the
# exp[i(a XX + b YY + d ZZ)] the chart is named for (a strict-xfail test
# in tests/test_optimize.py pins the difference).
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


def _chart_angles(params) -> np.ndarray:
    """The 15 chart angles as a float vector, refusing any other shape: four
    local Z-Y-Z Euler triples (kappa, lambda, nu), then (alpha, beta, delta)."""
    angles = np.asarray(params, dtype=float)
    if angles.shape != (N_PARAMS,):
        raise InvalidInputError(f"expected {N_PARAMS} angles, got shape {angles.shape}")
    return angles


def _chart_factors(p) -> tuple:
    """Local SU(2)s (..., 4, 2, 2) and core phases (..., 4) of (..., 15) angles.

    Triple t = (kappa, lambda, nu) gives the Z-Y-Z Euler unitary
    [[e^{-ih} c, -e^{-ig} s], [e^{ig} s, e^{ih} c]] with h = (kappa + nu)/2,
    g = (kappa - nu)/2 and c, s the cosine and sine of lambda/2.  Every
    phase comes from one cosine and one sine call over all angles.
    """
    half = 0.5 * p[..., :12]
    angles = np.empty((4,) + p.shape[:-1] + (4,))
    np.add(half[..., 0::3], half[..., 2::3], out=angles[0])          # h
    np.subtract(half[..., 0::3], half[..., 2::3], out=angles[1])     # g
    angles[2] = half[..., 1::3]                                      # lambda/2
    np.matmul(p[..., 12:], _PHASE_SIGNS.T, out=angles[3])            # core
    z = np.empty(angles.shape, dtype=complex)                        # e^{i angles}
    np.cos(angles, out=z.real)
    np.sin(angles, out=z.imag)
    a = z[0] * z[2].real
    b = z[1] * z[2].imag
    u = np.stack((a.conj(), -b.conj(), b, a), axis=-1)
    return u.reshape(a.shape + (2, 2)), z[3]


def _mul_2x2(a, b) -> np.ndarray:
    """a @ b for stacks of 2x2 matrices, as two broadcast products and a sum."""
    return a[..., :, :1] * b[..., None, 0, :] + a[..., :, 1:] * b[..., None, 1, :]


def _evolved_batch(params: np.ndarray, psi_amps: np.ndarray) -> np.ndarray:
    """Reduced outputs for a (N, 15) parameter batch, shape (2, N, 2, 2).

    Row 0 holds rho_sys and row 1 rho_aux for the evolved |psi> x |0> input,
    so `rho_sys, rho_aux = _evolved_batch(...)` unpacks them.
    """
    p = np.atleast_2d(params)
    n = len(p)
    u, phases = _chart_factors(p)
    # input side: (U1 psi) x (U2 |0>), flattened in (sys, aux) order
    u1_psi = u[:, 0, :, 0] * psi_amps[0] + u[:, 0, :, 1] * psi_amps[1]
    v = (u1_psi[:, :, None] * u[:, 1, None, :, 0]).reshape(n, 4)
    # core: rows v -> core @ v, diagonal in the `_BELL` basis
    v = ((v @ _BELL.conj()) * phases) @ _BELL.T
    # output side: (U3 x U4) v is U3 w U4^T on the (sys, aux) matrix w
    w = _mul_2x2(_mul_2x2(u[:, 2], v.reshape(n, 2, 2)), u[:, 3].swapaxes(1, 2))
    # rho_sys = w w^H and rho_aux = w^T conj(w), as m m^H for m in (w, w^T)
    m = np.stack((w, w.swapaxes(1, 2)))
    return _mul_2x2(m, m.conj().swapaxes(2, 3))


def _fidelity_batch_2x2(rho: np.ndarray, psi_amps: np.ndarray) -> np.ndarray:
    return np.einsum("i,...ij,j->...", psi_amps.conj(), rho, psi_amps).real


def build_unitary(params) -> np.ndarray:
    """(U3 x U4) . core . (U1 x U2), a 4x4 unitary, from the 15 chart angles.

    The core is `_BELL` diag(phases) `_BELL`^H, the matrix `_evolved_batch`
    applies to its rows.
    """
    u, phases = _chart_factors(_chart_angles(params))
    core = np.einsum("ik,k,jk->ij", _BELL, phases, _BELL.conj())
    return np.kron(u[2], u[3]) @ core @ np.kron(u[0], u[1])


def _objective_batch(params, psi_amps, objective: str) -> np.ndarray:
    rho = _evolved_batch(params, psi_amps)
    if objective == "magic":
        rom_in = rom_batch(pure_bloch_batch(psi_amps))
        return np.abs(rom_batch(bloch_batch(rho)) - rom_in).max(axis=0)
    if objective == "state":
        return (1.0 - _fidelity_batch_2x2(rho, psi_amps)).max(axis=0)
    raise InvalidInputError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class OptimizerConfig:
    population: int = 42
    max_evals: int = 200_000
    epsilon: float = 1e-4
    seed: int = 0
    restarts: int = 5

    def __post_init__(self):
        for name in ("population", "max_evals", "seed", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        eps = self.epsilon
        if (isinstance(eps, bool) or not isinstance(eps, numbers.Real)
                or not math.isfinite(eps) or eps <= 0.0):
            raise InvalidInputError(
                f"epsilon must be a finite positive number, got {eps!r}"
            )
        if self.population < 4 or self.population % 2:
            raise InvalidInputError("population must be even and >= 4")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.max_evals < self.population:
            raise InvalidInputError("max_evals must be >= population")

    @classmethod
    def from_json(cls, data: dict) -> "OptimizerConfig":
        known = {k: data[k] for k in
                 ("population", "max_evals", "epsilon", "seed", "restarts")
                 if k in data}
        return cls(**known)


@dataclass(frozen=True)
class BroadcastOutcome:
    params: tuple               # the 15 chart angles, as floats
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
            "params": list(self.params),
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

    assign = np.arange(lam) % mu
    while best_f > cfg.epsilon and evals + lam <= budget:
        # ranking: no nonlinear constraints, so the stochastic bubble sort
        # reduces to a plain fitness sort
        order = np.argsort(fits, kind="stable")
        parent_x = xs[order[:mu]]
        parent_s = sigmas[order[:mu]]
        # one draw, split in the order of the global, local and search steps
        normals = rng.standard_normal(lam * (1 + 2 * N_PARAMS))
        global_step = normals[:lam, None]
        local_step, search_step = normals[lam:].reshape(2, lam, N_PARAMS)
        sigmas = parent_s[assign] * np.exp(
            tau_prime * global_step + tau * local_step
        )
        np.clip(sigmas, 1e-9, _TWO_PI, out=sigmas)
        xs = parent_x[assign] + sigmas * search_step
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

    rho_sys, rho_aux = _evolved_batch(best_x[None, :], psi_amps)
    sys_rho = DensityMatrix(rho_sys[0])
    aux_rho = DensityMatrix(rho_aux[0])
    return BroadcastOutcome(
        params=tuple(best_x.tolist()),
        objective_value=best_f,
        sys_fidelity=float(_fidelity_batch_2x2(rho_sys, psi_amps)[0]),
        aux_fidelity=float(_fidelity_batch_2x2(rho_aux, psi_amps)[0]),
        sys_magic=rom_qubit(sys_rho),
        aux_magic=rom_qubit(aux_rho),
        input_magic=rom_qubit(psi.density()),
        magic_power=magic_power(build_unitary(best_x)),
        evals_used=used,
        converged=best_f <= cfg.epsilon,
    )


def outcome_from_json(data: dict) -> BroadcastOutcome:
    """Rebuild a BroadcastOutcome from its to_json() payload."""
    return BroadcastOutcome(
        params=tuple(_chart_angles(data["params"]).tolist()),
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
