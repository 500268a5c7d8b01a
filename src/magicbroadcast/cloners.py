"""Cloning and broadcasting machines.

Covers the unrestricted broadcaster model (reference-state pairs with their
fixed reduced outputs), the maximal-magic counterexample sweep, and the two
classic state cloners: Wootters-Zurek (state dependent) and Buzek-Hillery
(state independent). Machine Hilbert spaces are never materialized; only the
reduced output formulas are implemented.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InvalidInputError, InvalidMachineError, InvalidSpecError
from .measures import rom_batch, rom_qubit
from .states import (
    DensityMatrix,
    PureState,
    check_finite_angles,
    pure_bloch_batch,
    superpose_batch,
    t_perp_state,
    t_state,
)

_SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Wootters-Zurek machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WZParams:
    """Reference-state angles: |psi> = cos(g/2)|0> + e^{i g'} sin(g/2)|1>."""

    gamma: float
    gamma_prime: float

    def __post_init__(self):
        for name in ("gamma", "gamma_prime"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")

    def reference(self) -> PureState:
        return PureState(
            [
                math.cos(self.gamma / 2.0),
                np.exp(1j * self.gamma_prime) * math.sin(self.gamma / 2.0),
            ]
        )

    def reference_perp(self) -> PureState:
        return PureState(
            [
                math.sin(self.gamma / 2.0),
                -np.exp(1j * self.gamma_prime) * math.cos(self.gamma / 2.0),
            ]
        )

    def reference_magic(self) -> float:
        g, gp = self.gamma, self.gamma_prime
        return abs(math.cos(g)) + abs(math.sin(g)) * (
            abs(math.sin(gp)) + abs(math.cos(gp))
        )


@dataclass(frozen=True)
class WZCheck:
    input_magic: float
    output_magic: float
    theta: float


def wz_output(p: WZParams, theta: float) -> DensityMatrix:
    """Both clones: cos^2(theta/2) rho_psi + sin^2(theta/2) rho_perp.

    The output mixture does not depend on the input phase zeta.
    """
    c2 = math.cos(theta / 2.0) ** 2
    rho_ref = p.reference().density().mat
    rho_perp = p.reference_perp().density().mat
    return DensityMatrix(c2 * rho_ref + (1.0 - c2) * rho_perp)


def wz_output_magic_unclipped(p: WZParams, theta):
    """|cos theta| times the reference magic, without the R >= 1 clip.

    `theta` may be an array of machine angles; the result has its shape.
    """
    check_finite_angles(theta)
    return np.abs(np.cos(theta)) * p.reference_magic()


def wz_output_magic(p: WZParams, theta):
    """Robustness of either clone, clipped at the stabilizer floor."""
    return np.maximum(1.0, wz_output_magic_unclipped(p, theta))


def wz_state_check(p: WZParams, state: PureState) -> WZCheck:
    """State-driven check using the overlap-as-cosine machine convention.

    The machine angle is taken as theta = arccos |<psi_ref|state>|, so the
    reported output magic is |<psi_ref|state>| times the reference magic.
    A state that is not a qubit state is refused by `rom_qubit`, before the
    overlap reads its amplitudes.
    """
    input_magic = rom_qubit(state.density())
    overlap = min(1.0, abs(complex(np.vdot(p.reference().amps, state.amps))))
    theta = math.acos(overlap)
    output_magic = overlap * p.reference_magic()
    return WZCheck(
        input_magic=input_magic,
        output_magic=output_magic,
        theta=theta,
    )


# ---------------------------------------------------------------------------
# Buzek-Hillery machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BHParams:
    """Machine overlaps: xi in [0, 1/2], eta within the Schwarz bound."""

    xi: float
    eta: float

    def __post_init__(self):
        # arrays of xi and eta describe a family of machines, each one checked
        for xi, eta in np.broadcast(self.xi, self.eta):
            bound = eta_schwarz_max(xi)     # raises on xi outside [0, 1/2]
            if not 0.0 <= eta <= bound + 1e-12:
                raise InvalidMachineError(
                    f"eta = {eta} outside [0, {bound}] for xi = {xi}"
                )


def eta_schwarz_max(xi: float) -> float:
    """Largest machine overlap allowed at a given xi: 2 sqrt(xi) sqrt(1-2xi)."""
    if not 0.0 <= xi <= 0.5:            # also rejects NaN
        raise InvalidMachineError(f"xi must lie in [0, 1/2], got {xi}")
    return 2.0 * math.sqrt(xi) * math.sqrt(1.0 - 2.0 * xi)


def bh_input_amps(theta, zeta) -> np.ndarray:
    """Amplitudes of the machine input cos(theta/2)|0> + e^{-i zeta} sin(theta/2)|1>.

    `theta` and `zeta` broadcast against each other; the result has their
    shape plus a trailing axis of 2.  The phase sign matches the output
    matrix convention of `bh_output`, so the state-independent machine
    scales Bloch vectors componentwise.
    """
    theta, zeta = np.broadcast_arrays(theta, zeta)
    amps = np.empty(theta.shape + (2,), dtype=complex)
    amps[..., 0] = np.cos(theta / 2.0)
    amps[..., 1] = np.exp(-1j * zeta) * np.sin(theta / 2.0)
    return amps


def bh_output(p: BHParams, theta: float, zeta: float) -> DensityMatrix:
    """Reduced output clone for the machine input at (theta, zeta)."""
    c2 = math.cos(theta / 2.0) ** 2
    cos_t = math.cos(theta)
    off = 0.5 * p.eta * math.sin(theta) * np.exp(1j * zeta)
    mat = np.array(
        [
            [c2 - p.xi * cos_t, off],
            [np.conj(off), (1.0 - c2) + p.xi * cos_t],
        ]
    )
    return DensityMatrix(mat)


def bh_magic_unclipped(p: BHParams, theta, zeta):
    """(1 - 2 xi)|cos theta| + eta |sin theta| (|cos zeta| + |sin zeta|).

    The angles (and the machine's xi, eta) may be arrays that broadcast
    against each other; the result has the broadcast shape.
    """
    check_finite_angles(theta, zeta)
    return (1.0 - 2.0 * p.xi) * np.abs(np.cos(theta)) + p.eta * np.abs(
        np.sin(theta)
    ) * (np.abs(np.cos(zeta)) + np.abs(np.sin(zeta)))


def bh_magic(p: BHParams, theta, zeta):
    """Robustness of the output clone, clipped at the stabilizer floor."""
    return np.maximum(1.0, bh_magic_unclipped(p, theta, zeta))


def m_ratio(p: BHParams, theta, zeta):
    """Output-to-input magic ratio, both sides unclipped (broadcasts)."""
    numer = bh_magic_unclipped(p, theta, zeta)
    denom = np.abs(np.cos(theta)) + np.abs(np.sin(theta)) * (
        np.abs(np.cos(zeta)) + np.abs(np.sin(zeta))
    )
    return numer / denom


def bh_low_magic_interval(
    theta: float = 0.1,
    xi_max: float = 0.02,
    zeta_points: int = 720,
    xi_points: int = 101,
) -> tuple:
    """Achieved (min, max) of the magic ratio in the low-magic regime.

    Sweeps zeta over (0, 2 pi) and xi over (0, xi_max], with eta at its
    Schwarz maximum for each xi, in one `m_ratio` call over the grid.
    """
    zetas = np.linspace(0.0, 2.0 * math.pi, zeta_points, endpoint=False)
    xis = np.linspace(0.0, xi_max, xi_points)
    etas = np.array([eta_schwarz_max(xi) for xi in xis])
    ratios = m_ratio(BHParams(xis[:, None], etas[:, None]), theta, zetas)
    return float(ratios.min()), float(ratios.max())


# ---------------------------------------------------------------------------
# Unrestricted broadcaster model
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BroadcasterSpec:
    """A machine that perfectly broadcasts a fixed orthogonal reference pair.

    `outputs[k, j]` is the Bloch vector of reduced output k (0 system,
    1 auxiliary) for reference input j.  All four outputs must carry the
    reference magic exactly.
    """

    ref_in: tuple          # (PureState, PureState), orthogonal qubit states
    outputs: np.ndarray    # (2, 2, 3) Bloch vectors: (sys, aux) x (psi, perp)

    def __post_init__(self):
        psi, perp = self.ref_in
        qubits = psi.dim == perp.dim == 2
        if not qubits or abs(np.vdot(psi.amps, perp.amps)) > tol.ORTHOGONALITY:
            raise InvalidSpecError("reference states are not orthogonal qubit states")
        outputs = np.array(self.outputs, dtype=float)
        outputs.setflags(write=False)
        object.__setattr__(self, "outputs", outputs)
        if outputs.shape != (2, 2, 3):
            raise InvalidSpecError(f"outputs must have shape (2, 2, 3), got {outputs.shape}")
        if not np.all(np.vecdot(outputs, outputs) <= 1.0 + tol.BLOCH_BALL):  # rejects NaN
            raise InvalidSpecError("an output lies outside the Bloch ball")
        magic = rom_batch(np.vstack([pure_bloch_batch(psi.amps), outputs.reshape(4, 3)]))
        if not np.all(np.abs(magic[1:] - magic[0]) <= tol.BROADCAST_EQUALITY):
            raise InvalidSpecError("output magic does not match the reference magic")

    def reference_magic(self) -> float:
        return rom_qubit(self.ref_in[0].density())


def unrestricted_broadcast_batch(alpha, beta, sys_bloch, aux_bloch) -> tuple:
    """Bloch vectors of both reduced outputs for inputs alpha |psi> + beta |psi_perp>.

    `alpha` and `beta` have shape (...); `sys_bloch` and `aux_bloch` hold each
    machine's two reference outputs, shape (..., 2, 3).  Orthogonal machine
    states wash out all coherences, leaving the convex mixtures
    w_a m_a + w_b m_b with weights w_a = |alpha|^2 and w_b = |beta|^2.
    """
    wa = np.abs(np.asarray(alpha)) ** 2
    wb = np.abs(np.asarray(beta)) ** 2
    total = wa + wb
    if not np.all(np.abs(total - 1.0) <= tol.WEIGHTS):     # also rejects NaN
        worst = total.flat[np.argmax(np.abs(total - 1.0))]
        raise InvalidInputError(f"|alpha|^2 + |beta|^2 = {worst}, expected 1")
    wa, wb = wa[..., None], wb[..., None]
    return (
        wa * sys_bloch[..., 0, :] + wb * sys_bloch[..., 1, :],
        wa * aux_bloch[..., 0, :] + wb * aux_bloch[..., 1, :],
    )


def maximal_magic_spec() -> BroadcasterSpec:
    """Broadcaster designed for the T-state pair with product outputs."""
    psi, perp = t_state(), t_perp_state()
    refs = pure_bloch_batch(np.array([psi.amps, perp.amps]))
    return BroadcasterSpec(ref_in=(psi, perp), outputs=np.stack([refs, refs]))


def superposition_bloch(theta, zeta) -> np.ndarray:
    """Closed-form Bloch vectors of cos(t/2)|T> + e^{i z} sin(t/2)|Tperp>.

    `theta` and `zeta` broadcast against each other; the result has their
    shape plus a trailing axis of 3.
    """
    check_finite_angles(theta, zeta)
    ct, st = np.cos(theta), np.sin(theta)
    cz, sz = np.cos(zeta), np.sin(zeta)
    m1 = ct / _SQRT3 - st * cz / math.sqrt(6.0) + st * sz / math.sqrt(2.0)
    m2 = ct / _SQRT3 - st * cz / math.sqrt(6.0) - st * sz / math.sqrt(2.0)
    m3 = (ct + math.sqrt(2.0) * st * cz) / _SQRT3
    return np.stack([m1, m2, m3], axis=-1)


def superposition_magic(theta, zeta):
    """Closed-form robustness of the T-basis superposition state (broadcasts)."""
    return rom_batch(superposition_bloch(theta, zeta))


@dataclass(frozen=True)
class Theorem2Report:
    """Gap sweep between input magic (zeta dependent) and output magic."""

    theta: float
    max_gap: float
    worst_zeta: float
    output_magic: float
    output_spread: float
    closed_form_max_err: float


def theorem2_falsify(theta: float, zeta_grid) -> Theorem2Report:
    """Show the maximal-magic broadcaster fails on generic superpositions.

    The input magic varies with zeta while the broadcast output magic does
    not; the report carries the largest gap across the grid (the first
    zeta attaining it).  The closed-form input magic is checked against the
    robustness of the `superpose_batch` amplitudes, all in one array pass.
    """
    zetas = np.asarray(zeta_grid, dtype=float)
    if zetas.ndim != 1 or zetas.size == 0:
        raise InvalidInputError(
            f"zeta grid must be a non-empty 1-D array, got shape {zetas.shape}"
        )
    spec = maximal_magic_spec()
    amps = superpose_batch(*spec.ref_in, theta, zetas)
    direct = rom_batch(pure_bloch_batch(amps))
    closed = superposition_magic(theta, zetas)
    _, aux = unrestricted_broadcast_batch(
        math.cos(theta / 2.0), np.exp(1j * zetas) * math.sin(theta / 2.0),
        *spec.outputs,
    )
    outputs = rom_batch(aux)
    gaps = np.abs(closed - outputs)
    worst = int(np.argmax(gaps))
    return Theorem2Report(
        theta=float(theta),
        max_gap=float(gaps[worst]),
        worst_zeta=float(zetas[worst]),
        output_magic=float(outputs.mean()),
        output_spread=float(outputs.max() - outputs.min()),
        closed_form_max_err=float(np.abs(closed - direct).max()),
    )
