"""State containers (pure vectors, density matrices) and the elementary
operations on them: Bloch vectors as float (3,) arrays (`bloch_vector` checks
one), Haar sampling, superposition, reduction, and the named single-qubit
magic states.

All values are immutable after construction and every function is pure, so the
whole module is safe for unrestricted parallel use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    InvalidBasisError,
    InvalidDimensionError,
    InvalidInputError,
    NotAStateError,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Polar angle of the T-state Bloch vector (1,1,1)/sqrt(3): cos = 1/sqrt(3)
T_POLAR_ANGLE = math.acos(1.0 / math.sqrt(3.0))


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if amps.ndim != 1 or amps.size < 2:
            raise InvalidDimensionError("amplitude vector must have length >= 2")
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= tol.NORM:      # also rejects NaN
            raise NotAStateError(f"state is not normalized: |psi|^2 = {norm_sq!r}")

    @property
    def dim(self) -> int:
        return self.amps.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise InvalidDimensionError(f"not a square matrix: shape {mat.shape}")
        if not np.isfinite(mat).all():     # before inf - inf makes a NaN
            raise NotAStateError("matrix has non-finite entries")
        # comparisons are written so that NaN fails them
        if not np.max(np.abs(mat - mat.conj().T)) <= tol.HERMITICITY:
            raise NotAStateError("matrix is not Hermitian")
        if not abs(np.trace(mat).real - 1.0) <= tol.HERMITICITY:
            raise NotAStateError(f"trace is {np.trace(mat)!r}, expected 1")
        if not np.min(np.linalg.eigvalsh(mat)) >= -tol.EIGENVALUE:
            raise NotAStateError("matrix has negative eigenvalues")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _unit_rows(amps: np.ndarray) -> np.ndarray:
    """Divide each row by its norm in place: the two real dot products that
    `np.linalg.norm` takes of one vector, so a row scales bit for bit as there."""
    norm = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
    amps /= norm[..., None]
    return amps


def haar_amps(rng, n: int, dim: int) -> np.ndarray:
    """Amplitudes of n Haar-random pure states, one unit row each: (n, dim)."""
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return _unit_rows(z)


def haar_random_pure(dim: int, seed) -> PureState:
    """Draw a Haar-uniform pure state of the given dimension.

    `seed` may be an integer (deterministic) or a numpy Generator.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    return PureState(haar_amps(_as_rng(seed), 1, dim)[0])


def bloch_vector(m) -> np.ndarray:
    """Magnetizations (m1, m2, m3) of a single-qubit state as a float (3,) array.

    Refuses a shape other than (3,), and a non-finite point or one outside
    the Bloch ball.  The ball test runs on Python floats, where a huge
    component squares to inf instead of overflowing.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise InvalidDimensionError(f"Bloch vector must have shape (3,), got {m.shape}")
    x, y, z = m.tolist()
    if not x * x + y * y + z * z <= 1.0 + tol.BLOCH_BALL:     # also rejects NaN
        if not all(map(math.isfinite, (x, y, z))):
            raise NotAStateError(f"Bloch vector must be finite, got {(x, y, z)}")
        raise NotAStateError(f"Bloch vector outside the unit ball: {(x, y, z)}")
    return m


def bloch_from_density(rho: DensityMatrix) -> np.ndarray:
    """Magnetizations m_j = Tr(sigma_j rho) of a qubit state: a (3,) array."""
    if rho.dim != 2:
        raise InvalidDimensionError(f"expected a qubit state, got dim {rho.dim}")
    m = rho.mat
    return np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


def bloch_batch(rho: np.ndarray) -> np.ndarray:
    """Magnetizations of qubit density arrays: (..., 2, 2) -> (..., 3)."""
    off = rho[..., 0, 1]
    out = np.empty(off.shape + (3,))
    np.multiply(off.real, 2.0, out=out[..., 0])
    np.multiply(off.imag, -2.0, out=out[..., 1])
    np.subtract(rho[..., 0, 0].real, rho[..., 1, 1].real, out=out[..., 2])
    return out


def pure_bloch_batch(amps: np.ndarray) -> np.ndarray:
    """Magnetizations of pure qubit amplitudes: (..., 2) -> (..., 3)."""
    return bloch_batch(amps[..., :, None] * amps[..., None, :].conj())


def t_state() -> PureState:
    """Maximal-magic qubit state, Bloch vector (1,1,1)/sqrt(3)."""
    half = T_POLAR_ANGLE / 2.0
    return PureState([math.cos(half), math.sin(half) * np.exp(1j * math.pi / 4)])


def t_perp_state() -> PureState:
    """State orthogonal to the T-state (phase fixed by convention)."""
    half = T_POLAR_ANGLE / 2.0
    return PureState([math.sin(half), -math.cos(half) * np.exp(1j * math.pi / 4)])


def h_state() -> PureState:
    """Magic state with Bloch vector (1,0,1)/sqrt(2) and robustness sqrt(2)."""
    return PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)])


def check_finite_angles(*angles):
    """Raise `InvalidInputError` naming the first non-finite angle."""
    for values in angles:
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(values[~finite][0])
            raise InvalidInputError(f"angles must be finite, got {bad!r}")


def superpose_batch(
    psi: PureState, psi_perp: PureState, thetas, zetas
) -> np.ndarray:
    """Amplitudes of cos(theta/2) |psi> + e^{i zeta} sin(theta/2) |psi_perp>.

    `thetas` and `zetas` broadcast against each other; the result has their
    shape plus a trailing axis of length `psi.dim`, one unit row per angle
    pair.  The basis is checked once for the whole batch.
    """
    check_finite_angles(thetas, zetas)
    if psi.dim != psi_perp.dim:
        raise InvalidDimensionError("basis states have different dimensions")
    overlap = np.vdot(psi.amps, psi_perp.amps)
    if abs(overlap) > tol.ORTHOGONALITY:
        raise InvalidBasisError(f"basis states are not orthogonal: <a|b> = {overlap!r}")
    half = np.asarray(thetas, dtype=float)[..., None] / 2.0
    phase = np.exp(1j * np.asarray(zetas, dtype=float)[..., None])
    amps = _unit_rows(np.cos(half) * psi.amps + phase * np.sin(half) * psi_perp.amps)
    norm_sq = np.vecdot(amps, amps).real
    if not np.all(np.abs(norm_sq - 1.0) <= tol.NORM):      # also rejects NaN
        raise NotAStateError("superposition is not normalized")
    return amps


def superpose(
    psi: PureState, psi_perp: PureState, theta: float, zeta: float
) -> PureState:
    """cos(theta/2) |psi> + e^{i zeta} sin(theta/2) |psi_perp>.

    One row of `superpose_batch`.
    """
    return PureState(superpose_batch(psi, psi_perp, theta, zeta))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduce a bipartite d x d system to subsystem `keep` (0 or 1)."""
    d = math.isqrt(rho.dim)
    if d * d != rho.dim:
        raise InvalidDimensionError(f"dim {rho.dim} is not a perfect square")
    if keep not in (0, 1):
        raise InvalidDimensionError(f"keep must be 0 or 1, got {keep}")
    blocks = rho.mat.reshape(d, d, d, d)
    if keep == 0:
        reduced = np.einsum("ikjk->ij", blocks)
    else:
        reduced = np.einsum("kikj->ij", blocks)
    return DensityMatrix(reduced)
