import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbroadcast.cloners import (
    BHParams,
    BroadcasterSpec,
    WZParams,
    bh_input_state,
    bh_low_magic_interval,
    bh_magic,
    bh_magic_unclipped,
    bh_output,
    eta_schwarz_max,
    m_ratio,
    maximal_magic_spec,
    superposition_bloch,
    superposition_magic,
    theorem2_falsify,
    unrestricted_broadcast,
    wz_broadcast_check,
    wz_output,
    wz_output_magic,
    wz_state_check,
)
from magicbroadcast.errors import InvalidMachineError
from magicbroadcast.measures import rom_qubit
from magicbroadcast.states import (
    T_POLAR_ANGLE,
    bloch_from_density,
    h_state,
    superpose,
    t_perp_state,
    t_state,
)

T_REF = WZParams(T_POLAR_ANGLE, math.pi / 4.0)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


# ---------------------------------------------------------------------------
# Wootters-Zurek
# ---------------------------------------------------------------------------

def test_wz_reference_states_and_magic():
    assert np.allclose(T_REF.reference().amps, t_state().amps, atol=1e-12)
    assert T_REF.reference_magic() == pytest.approx(
        math.sqrt(3.0), abs=1e-12
    )
    h_ref = WZParams(math.pi / 4.0, 0.0)
    assert h_ref.reference_magic() == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_wz_output_is_reference_diagonal_mixture():
    rho = wz_output(T_REF, math.pi / 3.0)
    expected = (
        math.cos(math.pi / 6.0) ** 2 * t_state().density().mat
        + math.sin(math.pi / 6.0) ** 2 * t_perp_state().density().mat
    )
    assert np.allclose(rho.mat, expected, atol=1e-12)


def test_wz_copies_reference_perfectly():
    check = wz_broadcast_check(T_REF, 0.0, 0.0)
    assert check.perfect
    assert check.output_magic == pytest.approx(math.sqrt(3.0), abs=1e-12)


@given(angles)
def test_wz_output_magic_is_zeta_independent(zeta):
    theta = 1.1
    assert wz_broadcast_check(T_REF, theta, zeta).output_magic == (
        wz_broadcast_check(T_REF, theta, 0.0).output_magic
    )


def test_wz_h_input_on_t_machine_overproduces_magic():
    check = wz_state_check(T_REF, h_state())
    expected = math.sqrt((3.0 + math.sqrt(6.0)) / 2.0)
    assert check.output_magic == pytest.approx(expected, abs=1e-6)
    assert check.output_magic == pytest.approx(1.650680, abs=1e-6)
    assert check.output_magic > check.input_magic == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_wz_stabilizer_reference_never_produces_magic():
    machine = WZParams(0.0, 0.0)        # reference |0>
    for theta in np.linspace(0.0, 2.0 * math.pi, 37):
        assert wz_output_magic(machine, float(theta)) == 1.0


def test_wz_output_magic_formula():
    theta = 0.8
    expected = abs(math.cos(theta)) * math.sqrt(3.0)
    assert wz_output_magic(T_REF, theta) == pytest.approx(
        max(1.0, expected), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Buzek-Hillery
# ---------------------------------------------------------------------------

def test_bh_rejects_parameters_outside_schwarz_bound():
    with pytest.raises(InvalidMachineError):
        BHParams(0.25, 0.9)
    with pytest.raises(InvalidMachineError):
        BHParams(0.7, 0.1)


def test_bh_symmetric_point_scales_bloch_by_two_thirds():
    params = BHParams(1.0 / 6.0, 2.0 / 3.0)
    assert eta_schwarz_max(1.0 / 6.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    for theta in np.linspace(0.0, math.pi, 50):
        for zeta in np.linspace(0.0, 2.0 * math.pi, 50):
            b_in = bloch_from_density(
                bh_input_state(float(theta), float(zeta)).density()
            ).as_array()
            b_out = bloch_from_density(
                bh_output(params, float(theta), float(zeta))
            ).as_array()
            assert np.allclose(b_out, (2.0 / 3.0) * b_in, atol=1e-12)


def test_bh_ratio_at_quarter_xi():
    params = BHParams(0.25, eta_schwarz_max(0.25))
    assert m_ratio(params, math.pi / 2.0, 0.3) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )


def test_bh_magic_clips_at_one():
    params = BHParams(1.0 / 6.0, 2.0 / 3.0)
    theta = math.acos(1.0 / math.sqrt(3.0))
    assert bh_magic_unclipped(params, theta, math.pi / 4.0) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12
    )
    assert bh_magic(params, theta, math.pi / 4.0) == pytest.approx(
        2.0 / math.sqrt(3.0), abs=1e-12
    )
    # near the pole the scaled output falls inside the stabilizer octahedron
    assert bh_magic_unclipped(params, 0.1, 0.3) < 1.0
    assert bh_magic(params, 0.1, 0.3) == 1.0


def test_bh_low_magic_interval_near_small_theta():
    low, high = bh_low_magic_interval()
    assert low == pytest.approx(0.88, abs=0.01)
    assert high == pytest.approx(0.91, abs=0.01)


# ---------------------------------------------------------------------------
# unrestricted broadcaster
# ---------------------------------------------------------------------------

def test_maximal_magic_spec_reference_and_outputs():
    spec = maximal_magic_spec()
    assert spec.reference_magic() == pytest.approx(math.sqrt(3.0), abs=1e-12)
    sys_out, aux_out = unrestricted_broadcast(spec, 1.0, 0.0)
    assert rom_qubit(sys_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rom_qubit(aux_out) == pytest.approx(math.sqrt(3.0), abs=1e-12)


@settings(max_examples=60)
@given(angles, angles)
def test_superposition_closed_form_matches_direct_robustness(theta, zeta):
    psi = superpose(t_state(), t_perp_state(), theta, zeta)
    direct = rom_qubit(psi.density())
    assert superposition_magic(theta, zeta) == pytest.approx(
        direct, abs=1e-9
    )
    bloch = superposition_bloch(theta, zeta).as_array()
    assert np.allclose(
        bloch, bloch_from_density(psi.density()).as_array(), atol=1e-9
    )


def test_theorem2_sweep_finds_large_gap():
    grid = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    report = theorem2_falsify(math.pi / 4.0, grid)
    assert report.max_gap > 0.1
    assert report.closed_form_max_err <= 1e-9
    assert report.output_spread <= 1e-12


def test_broadcaster_spec_requires_matching_output_magic():
    spec = maximal_magic_spec()
    bad = t_state().density()       # magic sqrt(3), fine
    with pytest.raises(Exception):
        BroadcasterSpec(
            ref_in=spec.ref_in,
            sys_out=spec.sys_out,
            aux_out=(h_state().density(), bad),   # sqrt(2) != sqrt(3)
        )


@settings(max_examples=60)
@given(angles, angles, st.floats(0.01, 0.99))
def test_auxiliary_magic_never_exceeds_reference(theta, zeta, weight):
    spec = maximal_magic_spec()
    alpha = math.sqrt(weight) * np.exp(1j * zeta)
    beta = math.sqrt(1.0 - weight)
    _, aux = unrestricted_broadcast(spec, alpha, beta)
    assert rom_qubit(aux) <= spec.reference_magic() + 1e-9
