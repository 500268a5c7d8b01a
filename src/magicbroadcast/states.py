"""State containers (pure vectors, density matrices, Bloch vectors) and the
elementary operations on them: Haar sampling, composition, reduction, and the
named single-qubit magic states.

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


@dataclass(frozen=True)
class BlochVector:
    """Magnetizations (m1, m2, m3) of a single-qubit state."""

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        if not self.norm_sq() <= 1.0 + tol.BLOCH_BALL:   # also rejects NaN
            raise NotAStateError(f"Bloch vector outside the unit ball: {self}")

    def norm_sq(self) -> float:
        return self.m1 ** 2 + self.m2 ** 2 + self.m3 ** 2

    def abs_sum(self) -> float:
        """Sum of |m_j|, the quantity defining the magic polytope level."""
        return abs(self.m1) + abs(self.m2) + abs(self.m3)

    def as_array(self) -> np.ndarray:
        return np.array([self.m1, self.m2, self.m3])


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_random_pure(dim: int, seed) -> PureState:
    """Draw a Haar-uniform pure state of the given dimension.

    `seed` may be an integer (deterministic) or a numpy Generator.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    rng = _as_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z))


def bloch_from_density(rho: DensityMatrix) -> BlochVector:
    """Magnetizations m_j = Tr(sigma_j rho) of a qubit state."""
    if rho.dim != 2:
        raise InvalidDimensionError(f"expected a qubit state, got dim {rho.dim}")
    m = rho.mat
    return BlochVector(
        2.0 * m[0, 1].real,
        -2.0 * m[0, 1].imag,
        (m[0, 0] - m[1, 1]).real,
    )


def bloch_batch(rho: np.ndarray) -> np.ndarray:
    """Magnetizations of qubit density arrays: (..., 2, 2) -> (..., 3)."""
    off = rho[..., 0, 1]
    out = np.empty(off.shape + (3,))
    np.multiply(off.real, 2.0, out=out[..., 0])
    np.multiply(off.imag, -2.0, out=out[..., 1])
    np.subtract(rho[..., 0, 0].real, rho[..., 1, 1].real, out=out[..., 2])
    return out


def density_from_bloch(b: BlochVector) -> DensityMatrix:
    """Inverse of `bloch_from_density`: rho = (I + sum m_j sigma_j) / 2."""
    mat = 0.5 * (
        IDENTITY_2 + b.m1 * SIGMA_X + b.m2 * SIGMA_Y + b.m3 * SIGMA_Z
    )
    return DensityMatrix(mat)


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


def _superposition(psi: PureState, psi_perp: PureState, thetas, zetas):
    """Unit rows cos(theta/2) psi + e^{i zeta} sin(theta/2) psi_perp, basis checked."""
    if psi.dim != psi_perp.dim:
        raise InvalidDimensionError("basis states have different dimensions")
    overlap = np.vdot(psi.amps, psi_perp.amps)
    if abs(overlap) > tol.ORTHOGONALITY:
        raise InvalidBasisError(f"basis states are not orthogonal: <a|b> = {overlap!r}")
    half = np.asarray(thetas, dtype=float)[..., None] / 2.0
    phase = np.exp(1j * np.asarray(zetas, dtype=float)[..., None])
    amps = np.cos(half) * psi.amps + phase * np.sin(half) * psi_perp.amps
    # the two real dot products of np.linalg.norm, row by row (bit-identical)
    norm = np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))
    amps /= norm[..., None]
    return amps


def superpose_batch(
    psi: PureState, psi_perp: PureState, thetas, zetas
) -> np.ndarray:
    """Amplitudes of cos(theta/2) |psi> + e^{i zeta} sin(theta/2) |psi_perp>.

    `thetas` and `zetas` broadcast against each other; the result has their
    shape plus a trailing axis of length `psi.dim`, one unit row per angle
    pair.  The basis is checked once for the whole batch.
    """
    for angles in (thetas, zetas):
        angles = np.asarray(angles, dtype=float)
        finite = np.isfinite(angles)
        if not finite.all():
            bad = float(angles[~finite][0])
            raise InvalidInputError(f"angles must be finite, got {bad!r}")
    amps = _superposition(psi, psi_perp, thetas, zetas)
    norm_sq = np.vecdot(amps, amps).real
    if not np.all(np.abs(norm_sq - 1.0) <= tol.NORM):      # also rejects NaN
        raise NotAStateError("superposition is not normalized")
    return amps


def superpose(
    psi: PureState, psi_perp: PureState, theta: float, zeta: float
) -> PureState:
    """cos(theta/2) |psi> + e^{i zeta} sin(theta/2) |psi_perp>.

    One row of `superpose_batch`; `PureState` makes its norm check.
    """
    if not (math.isfinite(theta) and math.isfinite(zeta)):
        raise InvalidInputError(f"angles must be finite, got {theta!r}, {zeta!r}")
    return PureState(_superposition(psi, psi_perp, theta, zeta))


def tensor(a, b):
    """Tensor product of two pure states or two density matrices."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amps, b.amps))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.mat, b.mat))
    raise InvalidDimensionError("tensor expects two states of the same kind")


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


def apply_unitary(unitary: np.ndarray, state):
    """Apply a unitary to a pure state or a density matrix."""
    unitary = np.asarray(unitary, dtype=complex)
    if isinstance(state, PureState):
        if unitary.shape != (state.dim, state.dim):
            raise InvalidDimensionError("unitary/state dimension mismatch")
        return PureState(unitary @ state.amps)
    if isinstance(state, DensityMatrix):
        if unitary.shape != (state.dim, state.dim):
            raise InvalidDimensionError("unitary/state dimension mismatch")
        return DensityMatrix(unitary @ state.mat @ unitary.conj().T)
    raise InvalidDimensionError("state must be a PureState or DensityMatrix")


def fidelity_pure_mixed(psi: PureState, rho: DensityMatrix) -> float:
    """<psi| rho |psi>, clipped to [0, 1] against round-off."""
    if psi.dim != rho.dim:
        raise InvalidDimensionError("state dimensions differ")
    value = float(np.vdot(psi.amps, rho.mat @ psi.amps).real)
    return min(1.0, max(0.0, value))
