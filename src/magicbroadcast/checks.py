"""Property-verification suites.

Each suite draws randomized instances, measures the worst violation of the
property under test, and reports pass/fail against its declared tolerance.
The same functions back the `verify` CLI subcommand and the acceptance tests.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .cloners import theorem2_falsify, unrestricted_broadcast_batch
from .errors import InvalidInputError, MagicBroadcastError
from .measures import rom_batch, rom_lp_batch, rom_qubit
from .measures import sre2_extended_batch, sre2_pure, sre2_pure_batch
from .polytope import (
    broadcast_geometry_certificate,
    scan_polytope_crossings,
)
from .stabilizers import clifford_group_1q
from .states import BlochVector, apply_unitary, haar_random_pure, tensor

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    samples: int
    max_violation: float
    tolerance: float
    seed: int
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "check_name": self.check_name,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }


def _report(name, samples, violation, tolerance, seed, t0) -> VerificationReport:
    return VerificationReport(
        check_name=name,
        samples=samples,
        max_violation=float(violation),
        tolerance=tolerance,
        seed=seed,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


# ---------------------------------------------------------------------------
# random-instance helpers
# ---------------------------------------------------------------------------

def random_qubit_bloch(rng, n: int, mixed_fraction: float = 0.5) -> np.ndarray:
    """Bloch vectors of random qubit states: Haar-pure plus uniform-ball mixed."""
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    bloch = np.empty((n, 3))
    off = z[:, 0] * z[:, 1].conj()
    bloch[:, 0] = 2.0 * off.real
    bloch[:, 1] = -2.0 * off.imag
    bloch[:, 2] = np.abs(z[:, 0]) ** 2 - np.abs(z[:, 1]) ** 2
    n_mixed = int(n * mixed_fraction)
    if n_mixed:
        radii = rng.random(n_mixed) ** (1.0 / 3.0)
        bloch[:n_mixed] *= radii[:, None]
    return bloch


# Highest level accepted: the level of a T-direction state can round above
# sqrt(3) (that of `t_perp_state` by 1 ulp).
_MAX_LEVEL = _SQRT3 + tol.ROUNDTRIP
# Orthonormal axes of the plane sum m = 0, for polar coordinates on a face.
_FACE_AXES = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]) / np.sqrt([[2.0], [6.0]])
_MAX_ROUNDS = 64


def sample_bloch_on_levels(levels, rng) -> np.ndarray:
    """Bloch vectors with sum_j |m_j| = levels[i], one row per level: (n, 3).

    The law: a uniform direction, scaled onto the level, kept only if it lies
    inside the Bloch ball; it is drawn here without rejecting directions.
    On the positive-orthant face sum m = L that law has density
    proportional to |m|^-3, so in polar coordinates (s, phi) about the face
    centre (L/3)(1, 1, 1) the inverse radius 1/|m| is uniform on
    [1/min(1, L), sqrt(3)/L] and phi is uniform.  The disc this covers leaves
    the triangle only for L < sqrt(2), where rows outside it are redrawn;
    each round keeps at least 59 % of them, and `_MAX_ROUNDS` bounds the
    rounds.  Uniform random signs pick the orthant.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1:
        raise InvalidInputError(f"levels must be 1-D, got shape {levels.shape}")
    if not np.all((levels >= 0.0) & (levels <= _MAX_LEVEL)):    # also rejects NaN
        raise InvalidInputError(f"levels must lie in [0, sqrt(3)], got {levels}")
    # work on the face sum x = 1, m = L x: 1/|x| is uniform on [max(1, L), sqrt 3]
    low = np.clip(levels, 1.0, _SQRT3)
    x = np.empty((levels.size, 3))
    pending = np.arange(levels.size)
    for _ in range(_MAX_ROUNDS):
        u = rng.random((pending.size, 2))
        gap = (_SQRT3 - low[pending]) * (1.0 - u[:, 0])     # sqrt(3) - 1/|x|
        inv_r = _SQRT3 - gap
        # in-plane radius sqrt(|x|^2 - 1/3), written without cancellation
        s = np.sqrt(gap * (_SQRT3 + inv_r)) / (_SQRT3 * inv_r)
        phi = 2.0 * math.pi * u[:, 1]
        polar = s[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        rows = 1.0 / 3.0 + polar @ _FACE_AXES
        x[pending] = rows
        pending = pending[(rows < 0.0).any(axis=1)]
        if pending.size == 0:
            break
    else:
        raise MagicBroadcastError(
            f"level sampler: {pending.size} rows off the face "
            f"after {_MAX_ROUNDS} rounds"
        )
    signs = 1 - 2 * rng.integers(0, 2, size=x.shape)
    return levels[:, None] * x * signs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def check_lemma1(n_samples: int = 100_000, seed: int = 0) -> VerificationReport:
    """Closed-form qubit robustness against the exact LP oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    bloch = random_qubit_bloch(rng, n_samples)
    closed = rom_batch(bloch)
    oracle = rom_lp_batch(bloch)
    violation = np.max(np.abs(closed - oracle))
    return _report("lemma1", n_samples, violation, tol.LEMMA_EQUIV, seed, t0)


def check_clifford_invariance(
    n_samples: int = 1000, seed: int = 0
) -> VerificationReport:
    """M2, robustness, and the witness under random Clifford rotations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    group = clifford_group_1q()
    worst = 0.0
    for _ in range(n_samples):
        psi = haar_random_pure(2, rng)
        cliff = group[rng.integers(len(group))]
        rotated = apply_unitary(cliff, psi)
        worst = max(
            worst,
            abs(sre2_pure(rotated, 1) - sre2_pure(psi, 1)),
            abs(rom_qubit(rotated.density()) - rom_qubit(psi.density())),
        )
    return _report(
        "clifford", n_samples, worst, tol.CLIFFORD_INVARIANCE, seed, t0
    )


def check_additivity(n_samples: int = 1000, seed: int = 0) -> VerificationReport:
    """M2 additivity on random two-qubit product states."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        psi, phi = haar_random_pure(2, rng), haar_random_pure(2, rng)
        joint = sre2_pure(tensor(psi, phi), 2)
        worst = max(
            worst, abs(joint - sre2_pure(psi, 1) - sre2_pure(phi, 1))
        )
    return _report("additivity", n_samples, worst, tol.ADDITIVITY, seed, t0)


def check_convexity(n_samples: int = 1000, seed: int = 0) -> VerificationReport:
    """Convexity of the qubit robustness on random mixtures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    bloch = random_qubit_bloch(rng, 2 * n_samples)
    b1, b2 = bloch[0::2], bloch[1::2]
    lam = rng.random(n_samples)
    mixed = rom_batch(lam[:, None] * b1 + (1.0 - lam[:, None]) * b2)
    bound = lam * rom_batch(b1) + (1.0 - lam) * rom_batch(b2)
    worst = np.max(mixed - bound, initial=0.0)
    return _report("convexity", n_samples, worst, tol.CLIFFORD_INVARIANCE, seed, t0)


def check_monotonicity(
    n_samples: int = 10_000, seed: int = 0
) -> VerificationReport:
    """Extended-M2 non-increase under partial trace, two-qubit pure inputs."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 4)) + 1j * rng.standard_normal(
        (n_samples, 4)
    )
    z /= np.linalg.norm(z, axis=1, keepdims=True)

    joint = sre2_pure_batch(z, 2)
    blocks = z.reshape(n_samples, 2, 2)
    reduced = np.einsum("nij,nkj->nik", blocks, blocks.conj())
    ext = sre2_extended_batch(reduced, 1)

    violation = np.max(np.maximum(0.0, ext - joint))
    return _report("monotone", n_samples, violation, tol.MONOTONICITY, seed, t0)


def check_theorem2(
    n_samples: int = 720, seed: int = 0, theta: float = math.pi / 4
) -> VerificationReport:
    """Maximal-magic broadcaster gap sweep at fixed theta.

    Violation aggregates: closed-form mismatch with the direct robustness,
    any zeta dependence of the output, and a shortfall of the gap below 0.1.
    """
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 2.0 * math.pi, n_samples, endpoint=False)
    report = theorem2_falsify(theta, grid)
    violation = max(
        report.closed_form_max_err,
        report.output_spread,
        max(0.0, 0.1 - report.max_gap),
    )
    return _report("theorem2", n_samples, violation, tol.BROADCAST_EQUALITY, seed, t0)


def check_theorem3(n_samples: int = 10_000, seed: int = 0) -> VerificationReport:
    """Auxiliary output magic never exceeds the reference magic (Theorem 3).

    Each sample is a machine built on a Haar reference pair at level
    L = R(psi): four reference outputs drawn on the level L, and an input
    alpha |psi> + beta |psi_perp> with Haar weights.  The violation is the
    larger of R(aux) - L and the largest |R(output) - L| of the references.

    Proof: the auxiliary output is w_a m_a + w_b m_b with w_a + w_b = 1 and
    ||m_a||_1 = ||m_b||_1 = L, so by the triangle inequality
    ||w_a m_a + w_b m_b||_1 <= L.  The suite therefore cannot find a
    counterexample to the theorem; it catches shipped code that breaks the
    premises: a mixture whose weights do not sum to one, or a sampler that
    draws off the level.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    levels = rom_batch(random_qubit_bloch(rng, n_samples, mixed_fraction=0.0))
    outputs = sample_bloch_on_levels(np.repeat(levels, 4), rng).reshape(-1, 4, 3)
    w = rng.standard_normal((n_samples, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    _, aux = unrestricted_broadcast_batch(
        w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3],
        outputs[:, :2], outputs[:, 2:],
    )
    off_level = np.abs(rom_batch(outputs) - levels[:, None]).max(axis=1)
    violation = np.maximum(rom_batch(aux) - levels, off_level)
    worst = np.max(violation, initial=0.0)
    return _report("theorem3", n_samples, worst, tol.BROADCAST_EQUALITY, seed, t0)


def check_geometry(
    n_samples: int = 1000, seed: int = 0, scan_points: int = 10_000
) -> VerificationReport:
    """Exact line-polytope solver and certificate against the dense scan."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    resolution = 2.0 / (scan_points - 1)
    levels = rng.uniform(1.05, _SQRT3, n_samples)
    targets = rng.uniform(1.0, levels)
    endpoints = sample_bloch_on_levels(np.repeat(levels, 4), rng).reshape(-1, 4, 3)
    worst = 0.0
    for ends, r in zip(endpoints, targets):
        points = [BlochVector(*m) for m in ends]
        cert = broadcast_geometry_certificate(*points, r)

        sys_scan = scan_polytope_crossings(points[0], points[1], r, scan_points)
        aux_scan = scan_polytope_crossings(points[2], points[3], r, scan_points)
        for scanned, exact in ((sys_scan, cert.sys_t), (aux_scan, cert.aux_t)):
            for t_scan in scanned:
                nearest = min(
                    (abs(t_scan - t) for t in exact), default=math.inf
                )
                worst = max(worst, min(nearest, 1.0))

        scan_common = any(
            abs(ts - ta) <= resolution for ts in sys_scan for ta in aux_scan
        )
        if cert.broadcastable and not scan_common:
            worst = max(worst, 1.0)
        if scan_common and not cert.broadcastable:
            # the scan may pair distinct near-surface roots; re-check exactly
            ok = any(
                abs(ts - ta) <= resolution
                for ts in cert.sys_t
                for ta in cert.aux_t
            )
            if not ok:
                worst = max(worst, 1.0)
    return _report("geometry", n_samples, worst, resolution, seed, t0)


_SUITES = {
    "lemma1": check_lemma1,
    "clifford": check_clifford_invariance,
    "additivity": check_additivity,
    "convexity": check_convexity,
    "theorem2": check_theorem2,
    "theorem3": check_theorem3,
    "geometry": check_geometry,
    "monotone": check_monotonicity,
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name: str, n_samples=None, seed: int = 0) -> VerificationReport:
    if name not in _SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; choose from {suite_names()}"
        )
    fn = _SUITES[name]
    if n_samples is None:
        return fn(seed=seed)
    if n_samples < 1:               # a suite over no samples would pass vacuously
        raise InvalidInputError(f"n_samples must be >= 1, got {n_samples}")
    return fn(n_samples=n_samples, seed=seed)
