import numpy as np
import pytest

from magicbroadcast.errors import UnsupportedError
from magicbroadcast.stabilizers import (
    CNOT,
    HADAMARD,
    PHASE_S,
    clifford_group_1q,
    pauli_matrices,
    stabilizer_states,
)


def test_pauli_group_sizes():
    assert pauli_matrices(1).shape == (4, 2, 2)
    assert pauli_matrices(2).shape == (16, 4, 4)
    # the cached table is shared by every caller
    assert not pauli_matrices(2).flags.writeable


def test_pauli_group_rejects_large_n():
    with pytest.raises(UnsupportedError):
        pauli_matrices(3)


def test_pauli_strings_are_hermitian_and_unitary():
    for m in pauli_matrices(2):
        assert np.allclose(m, m.conj().T, atol=1e-15)
        assert np.allclose(m @ m, np.eye(4), atol=1e-15)


def test_pauli_matrices_are_trace_orthogonal():
    mats = pauli_matrices(2)
    gram = np.einsum("pij,qji->pq", mats, mats).real
    assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)


def test_clifford_group_has_24_elements_mod_phase():
    group = clifford_group_1q()
    assert len(group) == 24
    for u in group:
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_clifford_group_permutes_pauli_axes():
    paulis = pauli_matrices(1)[1:]
    for u in clifford_group_1q():
        for p in paulis:
            image = u @ p @ u.conj().T
            coeffs = np.einsum("kij,ji->k", paulis, image) / 2.0
            assert np.allclose(np.sort(np.abs(coeffs)), [0, 0, 1], atol=1e-12)


def test_stabilizer_state_counts():
    assert stabilizer_states(1).shape == (6, 2)
    assert stabilizer_states(2).shape == (60, 4)
    assert not stabilizer_states(2).flags.writeable


def test_one_qubit_stabilizer_states_are_pauli_eigenstates():
    axes = []
    for amps in stabilizer_states(1):
        rho = np.outer(amps, amps.conj())
        bloch = np.einsum("kij,ji->k", pauli_matrices(1)[1:], rho).real
        axes.append(tuple(np.round(bloch, 9)))
    assert len(set(axes)) == 6
    for b in axes:
        assert np.allclose(np.sort(np.abs(b)), [0, 0, 1], atol=1e-9)


def test_stabilizer_amplitudes_are_normalized():
    norms = np.linalg.norm(stabilizer_states(2), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_generator_matrices():
    assert np.allclose(HADAMARD @ HADAMARD, np.eye(2), atol=1e-15)
    assert np.allclose(PHASE_S @ PHASE_S, np.diag([1, -1]), atol=1e-15)
    assert np.allclose(CNOT @ CNOT, np.eye(4), atol=1e-15)


def test_pauli_string_identity_is_code_zero():
    assert np.array_equal(pauli_matrices(2)[0], np.eye(4))
    # base-4 code 4a + b is the string P_a (x) P_b, first qubit most significant
    x, z = pauli_matrices(1)[1], pauli_matrices(1)[3]
    assert np.array_equal(pauli_matrices(2)[4 * 1 + 3], np.kron(x, z))
