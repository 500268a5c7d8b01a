import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicbroadcast import states
from magicbroadcast.errors import (
    InvalidBasisError,
    InvalidDimensionError,
    InvalidInputError,
    NotAStateError,
)
from magicbroadcast.states import (
    BlochVector,
    DensityMatrix,
    PureState,
    apply_unitary,
    bloch_from_density,
    density_from_bloch,
    fidelity_pure_mixed,
    h_state,
    haar_random_pure,
    partial_trace,
    superpose,
    superpose_batch,
    t_perp_state,
    t_state,
    tensor,
)

angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False)


def test_pure_state_must_be_normalized():
    with pytest.raises(NotAStateError):
        PureState([1.0, 1.0])


def test_pure_state_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        PureState([1.0])


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(NotAStateError):
        DensityMatrix([[0.5, 0.5], [0.0, 0.5]])


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(NotAStateError):
        DensityMatrix([[1.2, 0.0], [0.0, -0.2]])


def test_bloch_vector_must_fit_the_ball():
    with pytest.raises(NotAStateError):
        BlochVector(1.0, 1.0, 0.0)


def test_named_state_bloch_vectors():
    s3 = 1.0 / math.sqrt(3.0)
    s2 = 1.0 / math.sqrt(2.0)
    b_t = bloch_from_density(t_state().density())
    assert np.allclose(b_t.as_array(), [s3, s3, s3], atol=1e-12)
    b_h = bloch_from_density(h_state().density())
    assert np.allclose(b_h.as_array(), [s2, 0.0, s2], atol=1e-12)


def test_t_perp_is_orthogonal_and_antipodal():
    overlap = np.vdot(t_state().amps, t_perp_state().amps)
    assert abs(overlap) < 1e-12
    b = bloch_from_density(t_perp_state().density()).as_array()
    assert np.allclose(b, -bloch_from_density(t_state().density()).as_array())


@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
def test_bloch_density_round_trip(x, y, z):
    if x * x + y * y + z * z > 1.0:
        return
    b = BlochVector(x, y, z)
    back = bloch_from_density(density_from_bloch(b))
    assert np.allclose(back.as_array(), b.as_array(), atol=1e-12)


@given(angles, angles)
def test_superpose_preserves_normalization(theta, zeta):
    psi = superpose(t_state(), t_perp_state(), theta, zeta)
    assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


def test_superpose_endpoints():
    psi0 = superpose(t_state(), t_perp_state(), 0.0, 0.3)
    assert np.allclose(psi0.amps, t_state().amps)
    psi1 = superpose(t_state(), t_perp_state(), math.pi, 0.0)
    assert abs(abs(np.vdot(psi1.amps, t_perp_state().amps)) - 1.0) < 1e-12


def test_haar_sampling_is_deterministic_per_seed():
    a = haar_random_pure(2, 7)
    b = haar_random_pure(2, 7)
    assert np.array_equal(a.amps, b.amps)
    c = haar_random_pure(2, 8)
    assert not np.allclose(a.amps, c.amps)


def test_haar_moments_match_uniform_bloch():
    rng = np.random.default_rng(0)
    zs = np.array([haar_random_pure(2, rng).amps for _ in range(4000)])
    mz = np.abs(zs[:, 0]) ** 2 - np.abs(zs[:, 1]) ** 2
    assert abs(mz.mean()) < 0.06                # uniform on [-1, 1]
    assert abs(mz.var() - 1.0 / 3.0) < 0.03


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(1)
    psi, phi = haar_random_pure(2, rng), haar_random_pure(2, rng)
    joint = tensor(psi, phi).density()
    assert np.allclose(
        partial_trace(joint, 0).mat, psi.density().mat, atol=1e-12
    )
    assert np.allclose(
        partial_trace(joint, 1).mat, phi.density().mat, atol=1e-12
    )


def test_partial_traces_share_spectrum_on_pure_states():
    psi = haar_random_pure(4, 5)
    rho = psi.density()
    ev_a = np.sort(np.linalg.eigvalsh(partial_trace(rho, 0).mat))
    ev_b = np.sort(np.linalg.eigvalsh(partial_trace(rho, 1).mat))
    assert np.allclose(ev_a, ev_b, atol=1e-12)


def test_apply_unitary_on_pure_and_mixed():
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    plus = apply_unitary(had, PureState([1.0, 0.0]))
    assert np.allclose(plus.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    rho = apply_unitary(had, DensityMatrix(np.eye(2) / 2.0))
    assert np.allclose(rho.mat, np.eye(2) / 2.0, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_fidelity_bounds_and_self_fidelity(seed):
    rng = np.random.default_rng(seed)
    psi = haar_random_pure(2, rng)
    phi = haar_random_pure(2, rng)
    f = fidelity_pure_mixed(psi, phi.density())
    assert 0.0 <= f <= 1.0
    assert fidelity_pure_mixed(psi, psi.density()) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# non-finite input: every validator comparison must fail on NaN
# ---------------------------------------------------------------------------

non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
coords = st.floats(-0.5, 0.5)


@given(coords, coords, coords, st.integers(0, 2), non_finite)
def test_bloch_vector_rejects_non_finite(x, y, z, index, bad):
    m = [x, y, z]
    m[index] = bad
    with pytest.raises(NotAStateError):
        BlochVector(*m)


@given(angles, angles, st.integers(0, 1), non_finite, st.booleans())
def test_pure_state_rejects_non_finite(theta, zeta, index, bad, imaginary):
    amps = superpose(t_state(), t_perp_state(), theta, zeta).amps.copy()
    amps[index] = complex(0.0, bad) if imaginary else bad
    with pytest.raises(NotAStateError):
        PureState(amps)


@given(coords, coords, coords, st.integers(0, 1), st.integers(0, 1), non_finite)
def test_density_matrix_rejects_non_finite(x, y, z, i, j, bad):
    mat = density_from_bloch(BlochVector(x, y, z)).mat.copy()
    mat[i, j] = bad
    with pytest.raises(NotAStateError):
        DensityMatrix(mat)


# ---------------------------------------------------------------------------
# superpose_batch: the array core behind superpose
# ---------------------------------------------------------------------------

def test_superpose_batch_broadcasts_angle_arrays():
    thetas = np.linspace(0.0, 2.0 * math.pi, 7)
    assert superpose_batch(t_state(), t_perp_state(), thetas, 0.3).shape == (7, 2)
    grid = superpose_batch(
        t_state(), t_perp_state(), thetas[:, None], np.linspace(0, 1, 5)
    )
    assert grid.shape == (7, 5, 2)
    assert superpose_batch(t_state(), t_perp_state(), 0.1, 0.2).shape == (2,)
    norms = np.linalg.norm(grid, axis=-1)
    assert np.all(np.abs(norms - 1.0) < 1e-12)


@given(st.lists(angles, min_size=1, max_size=6), st.data(), non_finite,
       st.booleans())
def test_superpose_batch_rejects_non_finite_angles(values, data, bad, in_zeta):
    index = data.draw(st.integers(0, len(values) - 1))
    angles_in = np.array(values)
    angles_in[index] = bad
    thetas, zetas = (0.4, angles_in) if in_zeta else (angles_in, 0.4)
    with pytest.raises(InvalidInputError):
        superpose_batch(t_state(), t_perp_state(), thetas, zetas)
    with pytest.raises(InvalidInputError):
        superpose(t_state(), t_perp_state(), *(
            (0.4, bad) if in_zeta else (bad, 0.4)))


def test_superpose_batch_checks_the_basis_once():
    with pytest.raises(InvalidBasisError):
        superpose_batch(t_state(), h_state(), [0.1, 0.2], 0.0)
    with pytest.raises(InvalidDimensionError):
        superpose_batch(t_state(), PureState([0, 0, 1]), [0.1, 0.2], 0.0)


@pytest.mark.parametrize("bad", [float("nan"), 0.5, 2.0])
def test_superpose_batch_rejects_rows_off_the_unit_sphere(monkeypatch, bad):
    # the norm check is written so that a NaN row fails it
    core = states._superposition

    def off_sphere(*args):
        amps = core(*args)
        amps[-1] *= bad
        return amps

    monkeypatch.setattr(states, "_superposition", off_sphere)
    with pytest.raises(NotAStateError):
        superpose_batch(t_state(), t_perp_state(), [0.1, 0.2, 0.3], 0.0)
