"""Magic quantifiers: the witness D, robustness of magic (closed form and an
independent LP oracle), stabilizer Renyi entropy of order 2 (pure and
extended), and the magic-generating power of two-qubit unitaries.

The LP oracle `rom_lp_batch` solves the robustness LP by enumerating its
basic solutions.  The `lemma1` suite checks the closed form with an
optimality certificate instead (see `checks`); the oracle is the tests'
cross-check of that certificate, and backs `rom_lp_oracle`.

Each formula has one batched core (`rom_batch`; the SRE2 reducer `_m2` behind
`sre2_pure_batch` and `sre2_extended_batch`); `rom_qubit`, `sre2_pure` and
`sre2_extended` are thin wrappers over it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidDimensionError, InvalidInputError, InvalidUnitaryError
from .stabilizers import pauli_matrices, stabilizer_states
from .states import (
    DensityMatrix,
    JsonRecord,
    PureState,
    bloch_batch,
    bloch_from_density,
)

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class MagicReport(JsonRecord):
    """Bundle of all quantifiers for one state; `d` is the witness D."""

    n: int
    d: float
    rom: float | None
    sre2: float | None
    extended_sre2: float


def _check_qubits(shape: tuple, axes: int = 1) -> int:
    """The n of an array whose last `axes` lengths all equal 2^n (the one
    place n is read; `pauli_matrices` refuses an n outside {1, 2})."""
    dims = shape[-axes:]
    if len(dims) != axes or len(set(dims)) != 1:
        block = ", ".join(["d"] * axes)
        raise InvalidDimensionError(f"expected shape (..., {block}), got {shape}")
    d = dims[0]
    if d < 1 or d & (d - 1):
        raise InvalidDimensionError(f"dimension {d} is not a power of two")
    return d.bit_length() - 1


def _pauli_traces(rho: np.ndarray) -> np.ndarray:
    """Tr(P rho) for all 4^n Pauli strings P, over densities (..., 2^n, 2^n)."""
    n = _check_qubits(rho.shape, axes=2)
    return np.einsum("pij,...ji->...p", pauli_matrices(n), rho).real


def witness_d(rho: DensityMatrix) -> float:
    """D = 2^{-n} sum_P |Tr(P rho)| over the full Pauli group."""
    return float(np.abs(_pauli_traces(rho.mat)).sum() / rho.dim)


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
# constraint matrix is fixed, so all basis inverses are computed once, on
# first use).
#
# The basic solutions come out of einsum as (4, m, k): basic variable, row,
# basis.  Feasibility and the objective then run over four contiguous (m, k)
# slices instead of reducing a trailing axis of length 4.  The objective is
# added up as ((x0 + x1) + x2) + x3, the order in which numpy's sum reduces
# that trailing axis, so every value is bit-identical to the (m, k, 4)
# layout's `sum(axis=2)`.
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
    """LP-oracle robustness for a batch of finite Bloch vectors, shape (N, 3)."""
    bloch = np.asarray(bloch, dtype=float)
    if bloch.ndim != 2 or bloch.shape[1] != 3:
        raise InvalidInputError(f"expected Bloch vectors of shape (N, 3), got {bloch.shape}")
    if not np.isfinite(bloch).all():
        raise InvalidInputError("Bloch vectors must be finite")
    inverses = _lp_basis_inverses()
    rhs = np.hstack([np.ones((len(bloch), 1)), bloch])
    out = np.empty(len(bloch))
    chunk = 2048
    for start in range(0, len(bloch), chunk):
        block = rhs[start : start + chunk]
        sols = np.einsum("kij,mj->imk", inverses, block)
        feasible = sols[0] >= -1e-9
        for basic in sols[1:]:
            feasible &= basic >= -1e-9
        objective = sols[0] + sols[1]
        objective += sols[2]
        objective += sols[3]
        np.copyto(objective, np.inf, where=~feasible)
        out[start : start + chunk] = objective.min(axis=1)
    return out


def rom_lp_oracle(rho: DensityMatrix) -> float:
    """Exact LP optimum of the pseudomixture decomposition (qubit only).

    Reads the Bloch vector through `bloch_from_density`, not the batched
    core behind `rom_qubit`, so the oracle shares no code with it.
    """
    if rho.dim != 2:
        raise InvalidDimensionError(f"expected a qubit state, got dim {rho.dim}")
    b = bloch_from_density(rho)
    return float(rom_lp_batch(b[None, :])[0])


# ---------------------------------------------------------------------------
# Stabilizer Renyi entropy of order 2 (Leone, Oliviero & Hamma, PRL 2022)
# ---------------------------------------------------------------------------

def _m2(x: np.ndarray, norm) -> np.ndarray:
    """-log2[ sum x^4 / norm ] over the trailing axis, floored at +0.0."""
    # np.maximum returns its second argument on a tie, so +0.0 goes second
    return np.maximum(-np.log((x ** 4).sum(axis=-1) / norm) / _LOG2, 0.0)


def sre2_pure_batch(amps: np.ndarray) -> np.ndarray:
    """M2 = -log2[ sum_P <psi|P|psi>^4 / 2^n ] over amplitudes (..., 2^n)."""
    n = _check_qubits(amps.shape)
    expectations = np.einsum(
        "pij,...i,...j->...p", pauli_matrices(n), amps.conj(), amps
    ).real
    return _m2(expectations, 2 ** n)


def sre2_extended_batch(rho: np.ndarray) -> np.ndarray:
    """-log2[ sum Tr(P rho)^4 / sum Tr(P rho)^2 ] over densities (..., d, d).

    This purity-normalized extension coincides with M2 on pure states.
    """
    traces = _pauli_traces(rho)
    return _m2(traces, (traces ** 2).sum(axis=-1))


def sre2_pure(psi: PureState) -> float:
    """`sre2_pure_batch` of one pure n-qubit state."""
    return float(sre2_pure_batch(psi.amps))


def sre2_extended(rho: DensityMatrix) -> float:
    """`sre2_extended_batch` of one n-qubit density matrix."""
    return float(sre2_extended_batch(rho.mat))


def magic_power(unitary: np.ndarray) -> float:
    """Average M2 generated over all 60 two-qubit stabilizer inputs."""
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (4, 4):
        raise InvalidUnitaryError(f"expected a 4x4 matrix, got {unitary.shape}")
    if not np.isfinite(unitary).all():     # before inf - inf makes a NaN
        raise InvalidUnitaryError("matrix has non-finite entries")
    if np.abs(unitary).max() > 1.0 + tol.UNITARITY:   # |U_ij| <= 1; keeps @ finite
        raise InvalidUnitaryError("matrix is not unitary")
    defect = np.max(np.abs(unitary.conj().T @ unitary - np.eye(4)))
    if not defect <= tol.UNITARITY:        # also rejects NaN from overflow
        raise InvalidUnitaryError("matrix is not unitary")
    images = stabilizer_states(2) @ unitary.T
    return float(sre2_pure_batch(images).mean())


def magic_report(state) -> MagicReport:
    """Compute every applicable quantifier for a pure or mixed state."""
    if isinstance(state, PureState):
        rho = state.density()
        pure = state
    else:
        rho = state
        pure = None
    return MagicReport(
        n=_check_qubits(rho.mat.shape, axes=2),
        d=witness_d(rho),
        rom=rom_qubit(rho) if rho.dim == 2 else None,
        sre2=sre2_pure(pure) if pure is not None else None,
        extended_sre2=sre2_extended(rho),
    )

