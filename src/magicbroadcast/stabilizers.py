"""Pauli-string matrices, the single-qubit Clifford group, and the pure
stabilizer-state sets for one and two qubits.

Group tables are built once via the module-level caches and are read-only, so
they can be shared freely across threads.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import UnsupportedError
from .states import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

_PAULI_1Q = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _check_n(n: int):
    if n not in (1, 2):
        raise UnsupportedError(f"only 1 or 2 qubits are supported, got {n}")


@functools.lru_cache(maxsize=None)
def pauli_matrices(n: int) -> np.ndarray:
    """The 4^n Pauli strings on n in {1, 2} qubits, a (4^n, 2^n, 2^n) array.

    Ordered base 4 (I=0, X=1, Y=2, Z=3) with the first qubit's factor as
    the most significant digit, so the identity comes first.
    """
    _check_n(n)
    mats = [np.ones((1, 1), dtype=complex)]
    for _ in range(n):
        mats = [np.kron(m, p) for m in mats for p in _PAULI_1Q]
    table = np.array(mats)
    table.setflags(write=False)
    return table


def _phase_canonical(amps: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive."""
    for a in amps:
        if abs(a) > 1e-9:
            return amps * (a.conjugate() / abs(a))
    raise ValueError("zero vector")


def _canonical_key(amps: np.ndarray) -> tuple:
    fixed = _phase_canonical(amps)
    return tuple(np.round(fixed, 9).view(float))


def _orbit(generators, start: np.ndarray) -> list:
    """Closure of `start` under left multiplication by the generators.

    Breadth-first, deduplicated up to global phase by canonical phase fixing
    of the flattened array; elements keep their order of discovery.
    """
    found = {_canonical_key(start.ravel()): start}
    frontier = [start]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in generators:
                cand = gen @ elem
                key = _canonical_key(cand.ravel())
                if key not in found:
                    fixed = _phase_canonical(cand.ravel()).reshape(cand.shape)
                    found[key] = fixed
                    nxt.append(fixed)
        frontier = nxt
    return list(found.values())


@functools.lru_cache(maxsize=None)
def clifford_group_1q() -> np.ndarray:
    """The 24 single-qubit Clifford unitaries up to global phase, a read-only
    (24, 2, 2) array.

    Built as the closure of <H, S> acting on the identity.
    """
    table = np.array(_orbit((HADAMARD, PHASE_S), IDENTITY_2))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def stabilizer_states(n: int) -> np.ndarray:
    """The pure stabilizer states, a read-only (count, 2^n) amplitude array:
    6 states for one qubit, 60 for two.

    Generated as the orbit of |0...0> under the Clifford generators,
    deduplicated up to global phase.
    """
    _check_n(n)
    if n == 1:
        generators = (HADAMARD, PHASE_S)
    else:
        generators = (
            np.kron(HADAMARD, IDENTITY_2),
            np.kron(IDENTITY_2, HADAMARD),
            np.kron(PHASE_S, IDENTITY_2),
            np.kron(IDENTITY_2, PHASE_S),
            CNOT,
        )
    start = np.zeros(2 ** n, dtype=complex)
    start[0] = 1.0
    table = np.array(_orbit(generators, start))
    table.setflags(write=False)
    return table
