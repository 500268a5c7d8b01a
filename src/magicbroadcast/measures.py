"""Magic quantifiers: the witness D, robustness of magic (closed form and an
independent LP oracle), stabilizer Renyi entropy of order 2 (pure and
extended), and the magic-generating power of two-qubit unitaries.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidDimensionError, InvalidUnitaryError
from .stabilizers import pauli_matrices, stabilizer_states
from .states import (
    DensityMatrix,
    PureState,
    bloch_batch,
    bloch_from_density,
    partial_trace,
)

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class MagicReport:
    """Bundle of all quantifiers for one state."""

    n: int
    witness_d: float
    rom: float | None
    sre2: float | None
    extended_sre2: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "d": self.witness_d,
            "rom": self.rom,
            "sre2": self.sre2,
            "extended_sre2": self.extended_sre2,
        }


def _check_qubits(dim: int, n: int):
    if dim != 2 ** n:
        raise InvalidDimensionError(f"dim {dim} does not match {n} qubit(s)")


def witness_d(rho: DensityMatrix, n: int) -> float:
    """D = 2^{-n} sum_P |Tr(P rho)| over the full Pauli group."""
    _check_qubits(rho.dim, n)
    traces = np.einsum("pij,ji->p", pauli_matrices(n), rho.mat).real
    return float(np.abs(traces).sum() / 2 ** n)


def rom_batch(bloch: np.ndarray) -> np.ndarray:
    """Qubit robustness of magic max{1, sum_j |m_j|} over a trailing axis of 3.

    The single implementation of the closed form (Lemma 1); `rom_qubit`,
    the search objective and the check suites all evaluate it here.
    """
    return np.maximum(1.0, np.add.reduce(np.abs(bloch), axis=-1))


def rom_qubit(rho: DensityMatrix) -> float:
    """Robustness of magic of a qubit state: max{1, sum_j |m_j|}."""
    if rho.dim != 2:
        raise InvalidDimensionError(f"expected a qubit state, got dim {rho.dim}")
    return float(rom_batch(bloch_batch(rho.mat)))


# ---------------------------------------------------------------------------
# LP oracle for the qubit robustness
#
# Decompose rho = sum_i x_i theta_i over the 6 pure stabilizer states with
# sum x_i = 1 and matching magnetizations; minimize sum |x_i|. Variables are
# split x = u - v (u, v >= 0) giving a 12-variable standard-form LP with 4
# equality constraints, solved exactly by enumerating basic solutions (the
# constraint matrix is fixed, so all basis inverses are precomputed once).
# ---------------------------------------------------------------------------

_STAB_BLOCH = np.array(
    [
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
    ]
)


@functools.lru_cache(maxsize=1)
def _lp_basis_inverses() -> np.ndarray:
    cols = np.vstack([np.ones(6), _STAB_BLOCH.T])          # columns for u
    a_mat = np.hstack([cols, -cols])                       # and for v = -u
    inverses = []
    for basis in itertools.combinations(range(12), 4):
        sub = a_mat[:, basis]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        inverses.append(np.linalg.inv(sub))
    return np.array(inverses)


def rom_lp_batch(bloch: np.ndarray) -> np.ndarray:
    """LP-oracle robustness for a batch of Bloch vectors, shape (N, 3)."""
    inverses = _lp_basis_inverses()
    rhs = np.hstack([np.ones((len(bloch), 1)), bloch])
    out = np.empty(len(bloch))
    chunk = 2048
    for start in range(0, len(bloch), chunk):
        block = rhs[start : start + chunk]
        sols = np.einsum("kij,mj->mki", inverses, block)
        feasible = (sols >= -1e-9).all(axis=2)
        objective = sols.sum(axis=2)
        objective[~feasible] = np.inf
        out[start : start + chunk] = objective.min(axis=1)
    return out


def rom_lp_oracle(rho: DensityMatrix) -> float:
    """Exact LP optimum of the pseudomixture decomposition (qubit only).

    Reads the Bloch vector through `bloch_from_density`, not the batched
    core behind `rom_qubit`, so the oracle shares no code with it.
    """
    if rho.dim != 2:
        raise InvalidDimensionError(f"expected a qubit state, got dim {rho.dim}")
    b = bloch_from_density(rho).as_array()
    return float(rom_lp_batch(b[None, :])[0])


# ---------------------------------------------------------------------------
# Stabilizer Renyi entropy of order 2
# ---------------------------------------------------------------------------

def sre2_pure(psi: PureState, n: int) -> float:
    """M2 = -log2[ sum_P <psi|P|psi>^4 / 2^n ] for a pure n-qubit state."""
    _check_qubits(psi.dim, n)
    amps = psi.amps
    expectations = np.einsum(
        "pij,i,j->p", pauli_matrices(n), amps.conj(), amps
    ).real
    collision = float((expectations ** 4).sum() / 2 ** n)
    return max(0.0, -math.log(collision) / _LOG2)


def sre2_pure_batch(amps: np.ndarray, n: int) -> np.ndarray:
    """`sre2_pure` over rows of a (N, 2^n) amplitude array."""
    expectations = np.einsum(
        "pij,ni,nj->np", pauli_matrices(n), amps.conj(), amps
    ).real
    collision = (expectations ** 4).sum(axis=1) / 2 ** n
    return np.maximum(0.0, -np.log(collision) / _LOG2)


def sre2_extended(rho: DensityMatrix, n: int) -> float:
    """Purity-normalized extension: -log2[ sum Tr(P rho)^4 / sum Tr(P rho)^2 ].

    Coincides with `sre2_pure` on pure states.
    """
    _check_qubits(rho.dim, n)
    traces = np.einsum("pij,ji->p", pauli_matrices(n), rho.mat).real
    ratio = float((traces ** 4).sum() / (traces ** 2).sum())
    return max(0.0, -math.log(ratio) / _LOG2)


def magic_power(unitary: np.ndarray) -> float:
    """Average M2 generated over all 60 two-qubit stabilizer inputs."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise InvalidUnitaryError(f"expected a 4x4 matrix, got {unitary.shape}")
    if np.max(np.abs(unitary.conj().T @ unitary - np.eye(4))) > tol.UNITARITY:
        raise InvalidUnitaryError("matrix is not unitary")
    inputs = stabilizer_states(2).amplitudes()
    images = inputs @ unitary.T
    return float(sre2_pure_batch(images, 2).mean())


def magic_report(state) -> MagicReport:
    """Compute every applicable quantifier for a pure or mixed state."""
    if isinstance(state, PureState):
        rho = state.density()
        pure = state
    else:
        rho = state
        pure = None
    n = rho.dim.bit_length() - 1
    _check_qubits(rho.dim, n)
    return MagicReport(
        n=n,
        witness_d=witness_d(rho, n),
        rom=rom_qubit(rho) if rho.dim == 2 else None,
        sre2=sre2_pure(pure, n) if pure is not None else None,
        extended_sre2=sre2_extended(rho, n),
    )


def sre2_monotone_gap(psi2: PureState) -> float:
    """M2hat(reduced) - M2(joint) for a two-qubit pure state.

    Non-positive (up to numerics) by partial-trace monotonicity.
    """
    joint = sre2_pure(psi2, 2)
    reduced = partial_trace(psi2.density(), 0)
    return sre2_extended(reduced, 1) - joint
