import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbroadcast import measures
from magicbroadcast.checks import random_qubit_bloch
from magicbroadcast.errors import (
    InvalidDimensionError,
    InvalidInputError,
    InvalidUnitaryError,
    UnsupportedError,
)
from magicbroadcast.measures import (
    magic_power,
    magic_report,
    rom_batch,
    rom_lp_batch,
    rom_lp_oracle,
    rom_qubit,
    sre2_extended,
    sre2_extended_batch,
    sre2_pure,
    sre2_pure_batch,
    witness_d,
)
from magicbroadcast.stabilizers import (
    CNOT,
    clifford_group_1q,
    stabilizer_states,
)
from magicbroadcast.states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityMatrix,
    PureState,
    bloch_batch,
    h_state,
    haar_random_pure,
    partial_trace,
    t_state,
)

ball_coords = st.floats(-0.57, 0.57, allow_nan=False)


def _density(m) -> DensityMatrix:
    """rho = (I + m . sigma) / 2, the inverse of `bloch_from_density`."""
    x, y, z = m
    return DensityMatrix(0.5 * (np.eye(2) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z))


def test_named_state_robustness():
    assert rom_qubit(t_state().density()) == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
    assert rom_qubit(h_state().density()) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )
    assert rom_qubit(PureState([1.0, 0.0]).density()) == 1.0


def test_witness_lemma_relation_on_named_states():
    # R = 2D - 1 for a single qubit
    for psi in (t_state(), h_state(), PureState([1.0, 0.0])):
        rho = psi.density()
        assert 2.0 * witness_d(rho) - 1.0 == pytest.approx(
            rom_qubit(rho), abs=1e-12
        )


@given(ball_coords, ball_coords, ball_coords)
def test_lp_oracle_matches_closed_form(x, y, z):
    rho = _density([x, y, z])
    assert rom_lp_oracle(rho) == pytest.approx(rom_qubit(rho), abs=1e-8)


def test_lp_oracle_batch_on_extremal_states():
    bloch = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0] / np.sqrt(3.0)]
    )
    assert np.allclose(
        rom_lp_batch(bloch), [1.0, 1.0, math.sqrt(3.0)], atol=1e-10
    )


def _axis_sum_lp(bloch):
    """Reference: the LP oracle with its basic solutions laid out (m, k, 4)
    and reduced over the trailing axis, kept verbatim."""
    inverses = measures._lp_basis_inverses()
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


_STABILIZER_POINTS = np.vstack([np.eye(3), -np.eye(3)])
_T_DIRECTIONS = np.array(list(itertools.product([1.0, -1.0], repeat=3))) / math.sqrt(3.0)
_EDGE_ROWS = np.vstack([
    _STABILIZER_POINTS,
    _T_DIRECTIONS,
    np.zeros((1, 3)),
    0.5 * _STABILIZER_POINTS,
    [[-0.0, 0.0, -0.0], [-0.0, -0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, 0.5, 0.5]],
])


def test_lp_oracle_is_bit_identical_to_the_axis_sum_layout():
    # the draw of acceptance criterion 1, then rows on the polytope's edges
    draw = random_qubit_bloch(np.random.default_rng(0), 100_000)
    assert np.array_equal(rom_lp_batch(draw), _axis_sum_lp(draw))
    assert np.array_equal(rom_lp_batch(_EDGE_ROWS), _axis_sum_lp(_EDGE_ROWS))


def test_lp_oracle_is_invariant_under_the_48_signed_permutations():
    bloch = random_qubit_bloch(np.random.default_rng(7), 2_000)
    base = rom_lp_batch(bloch)
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1.0, -1.0], repeat=3):
            moved = rom_lp_batch(np.array(signs) * bloch[:, list(perm)])
            assert np.max(np.abs(moved - base)) <= 1e-14


def _refuse_before_work(monkeypatch, bloch):
    def no_work():
        raise AssertionError("the LP ran on an input it should have refused")

    monkeypatch.setattr(measures, "_lp_basis_inverses", no_work)
    with pytest.raises(InvalidInputError) as caught:
        rom_lp_batch(bloch)
    return str(caught.value)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(ball_coords, min_size=3, max_size=3), min_size=1, max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_lp_oracle_refuses_a_non_finite_row(rows, bad, data):
    bloch = np.array(rows)
    row = data.draw(st.integers(0, len(rows) - 1))
    col = data.draw(st.integers(0, 2))
    bloch[row, col] = bad
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert "finite" in _refuse_before_work(monkeypatch, bloch)


@pytest.mark.parametrize("bloch", [
    np.zeros(3), np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 2, 3)),
    np.zeros((0,)), np.float64(0.5),
])
def test_lp_oracle_refuses_a_shape_other_than_n_by_3(monkeypatch, bloch):
    assert "(N, 3)" in _refuse_before_work(monkeypatch, bloch)


def test_lp_oracle_returns_an_empty_batch_for_no_rows():
    out = rom_lp_batch(np.empty((0, 3)))
    assert out.shape == (0,)


def test_sre2_values():
    assert sre2_pure(t_state()) == pytest.approx(
        math.log2(1.5), abs=1e-12
    )
    assert sre2_pure(PureState([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)
    # maximally mixed state carries no magic
    assert sre2_extended(DensityMatrix(np.eye(2) / 2.0)) == pytest.approx(
        0.0, abs=1e-14
    )


def test_sre2_extended_coincides_with_pure_value():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = haar_random_pure(2, rng)
        assert sre2_extended(psi.density()) == pytest.approx(
            sre2_pure(psi), abs=1e-10
        )


def test_sre2_batch_matches_scalar():
    rng = np.random.default_rng(3)
    states = [haar_random_pure(4, rng) for _ in range(20)]
    amps = np.array([psi.amps for psi in states])
    assert [sre2_pure(psi) for psi in states] == list(sre2_pure_batch(amps))
    pure = [psi.density() for psi in states]
    reduced = [partial_trace(rho, 0) for rho in pure]
    for rhos in (pure, reduced):
        batch = sre2_extended_batch(np.array([rho.mat for rho in rhos]))
        assert [sre2_extended(rho) for rho in rhos] == list(batch)


_ORACLE_PAULIS = (
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]]),
)


def _kron_pauli_traces(rho, n):
    """Tr(P rho) over Pauli strings built with np.kron from hand-written
    2x2 matrices, independent of `stabilizers.pauli_matrices`."""
    strings = [np.eye(1)]
    for _ in range(n):
        strings = [np.kron(s, p) for s in strings for p in _ORACLE_PAULIS]
    return np.array([np.trace(s @ rho).real for s in strings])


@pytest.mark.parametrize("n", [1, 2])
def test_sre2_batches_match_a_kron_built_oracle(n):
    rng = np.random.default_rng(6)
    amps = np.array([haar_random_pure(2 ** n, rng).amps for _ in range(8)])
    pure = np.einsum("ki,kj->kij", amps, amps.conj())
    mixed = np.einsum("mk,kij->mij", rng.dirichlet(np.ones(8), size=8), pure)
    t_pure = [_kron_pauli_traces(rho, n) for rho in pure]
    t_mixed = [_kron_pauli_traces(rho, n) for rho in mixed]
    want_pure = [-math.log2((t ** 4).sum() / 2 ** n) for t in t_pure]
    want_mixed = [-math.log2((t ** 4).sum() / (t ** 2).sum()) for t in t_mixed]
    for got, want in (
        (sre2_pure_batch(amps), want_pure),
        (sre2_extended_batch(pure), want_pure),
        (sre2_extended_batch(mixed), want_mixed),
    ):
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: sre2_pure_batch(np.ones((3, 3)) / math.sqrt(3)),
    lambda: sre2_pure_batch(np.ones(6) / math.sqrt(6)),
    lambda: sre2_pure_batch(np.float64(1.0)),
    lambda: sre2_extended_batch(np.eye(3)[None] / 3),
    lambda: sre2_extended_batch(np.ones((3, 2, 4)) / 4),
    lambda: sre2_extended_batch(np.ones(2) / 2),
    lambda: sre2_pure(PureState([0.6, 0.8, 0.0])),
    lambda: sre2_extended(DensityMatrix(np.eye(3) / 3)),
    lambda: witness_d(DensityMatrix(np.eye(3) / 3)),
    lambda: magic_report(PureState([0.6, 0.8, 0.0])),
])
def test_a_dimension_that_does_not_match_n_qubits_is_refused(call):
    # n is read from the array: a trailing length that is not 2^n, a density
    # that is not square, or an array without the axes is refused
    with pytest.raises(InvalidDimensionError):
        call()


@pytest.mark.parametrize("shape,error,words", [
    ((3,), InvalidDimensionError, "dimension 3 is not a power of two"),
    ((2, 5, 5), InvalidDimensionError, "dimension 5 is not a power of two"),
    ((2, 4, 2), InvalidDimensionError, "expected shape (..., d, d), got (2, 4, 2)"),
    ((1, 1), UnsupportedError, "got 0"),
    ((8,), UnsupportedError, "got 3"),
    ((8, 8), UnsupportedError, "got 3"),
])
def test_the_qubit_count_comes_from_the_array(shape, error, words):
    array = np.ones(shape, dtype=complex)
    call = sre2_pure_batch if len(shape) == 1 else sre2_extended_batch
    with pytest.raises(error) as info:
        call(array)
    assert words in str(info.value)


def test_sre2_additivity_spot_check():
    psi, phi = t_state(), h_state()
    joint = sre2_pure(PureState(np.kron(psi.amps, phi.amps)))
    assert joint == pytest.approx(
        sre2_pure(psi) + sre2_pure(phi), abs=1e-12
    )


def test_sre2_clifford_invariance_spot_check():
    rng = np.random.default_rng(4)
    psi = haar_random_pure(2, rng)
    base = sre2_pure(psi)
    for u in clifford_group_1q():
        rotated = PureState(u @ psi.amps)
        assert sre2_pure(rotated) == pytest.approx(base, abs=1e-12)


def test_magic_power_zero_on_clifford_and_positive_on_t_gate():
    assert magic_power(CNOT) <= 1e-10
    t_gate = np.diag([1.0, np.exp(1j * math.pi / 4.0)])
    assert magic_power(np.kron(t_gate, np.eye(2))) > 0.1


def test_magic_power_rejects_non_unitary():
    with pytest.raises(InvalidUnitaryError):
        magic_power(np.ones((4, 4)))
    with pytest.raises(InvalidUnitaryError):
        magic_power(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_magic_power_rejects_non_finite_entries(bad):
    unitary = np.eye(4, dtype=complex)
    unitary[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidUnitaryError):
            magic_power(unitary)
        with pytest.raises(InvalidUnitaryError):
            magic_power(np.full((4, 4), bad))


@pytest.mark.parametrize("unitary", [
    np.full((4, 4), 1e200),
    1e155 * np.eye(4),
    np.full((4, 4), 1e200 + 1e200j),
])
def test_magic_power_rejects_huge_entries_without_overflow(unitary):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidUnitaryError):
            magic_power(unitary)


def test_magic_report_fields_and_json():
    report = magic_report(t_state())
    assert report.n == 1
    assert report.rom == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert report.sre2 == pytest.approx(math.log2(1.5), abs=1e-12)
    payload = report.to_json()
    assert payload["schema"] == 1
    assert set(payload) == {"schema", "n", "d", "rom", "sre2", "extended_sre2"}


def test_magic_report_mixed_two_qubit_state():
    rng = np.random.default_rng(5)
    psi = haar_random_pure(4, rng)
    report = magic_report(psi.density())
    assert report.n == 2
    assert report.rom is None and report.sre2 is None
    assert report.extended_sre2 >= 0.0


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1))
def test_monotone_gap_never_positive(seed):
    psi = haar_random_pure(4, seed)
    reduced = partial_trace(psi.density(), 0)
    assert sre2_extended(reduced) - sre2_pure(psi) <= 1e-9


def test_stabilizer_states_have_zero_sre2():
    for n in (1, 2):
        vals = sre2_pure_batch(stabilizer_states(n))
        assert np.max(np.abs(vals)) <= 1e-12
        assert all(math.copysign(1.0, v) > 0 for v in vals)


def test_rom_from_bloch_floors_at_one():
    assert rom_batch(np.array([0.1, 0.1, 0.1])) == 1.0
    bloch = np.array([[[0.1, 0.1, 0.1], [1.0, 0.0, 0.0]], [[0.5, -0.5, 0.5], [0.0, 0.0, 0.0]]])
    assert np.array_equal(rom_batch(bloch), [[1.0, 1.0], [1.5, 1.0]])


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_rom_qubit_is_the_batched_core_on_density_arrays(seed):
    rng = np.random.default_rng(seed)
    rhos = [haar_random_pure(2, rng).density().mat for _ in range(4)]
    weights = rng.dirichlet(np.ones(4))
    rhos.append(sum(w * r for w, r in zip(weights, rhos)))
    batch = rom_batch(bloch_batch(np.array(rhos)))
    assert [rom_qubit(DensityMatrix(r)) for r in rhos] == list(batch)
