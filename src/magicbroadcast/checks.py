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
from .cloners import (
    BroadcasterSpec,
    theorem2_falsify,
    unrestricted_broadcast,
)
from .errors import InvalidInputError
from .measures import rom_batch, rom_lp_batch, rom_qubit, sre2_pure
from .polytope import (
    broadcast_geometry_certificate,
    scan_polytope_crossings,
)
from .stabilizers import clifford_group_1q, pauli_matrices
from .states import (
    BlochVector,
    PureState,
    apply_unitary,
    density_from_bloch,
    haar_random_pure,
    tensor,
)

_LOG2 = math.log(2.0)


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


def sample_bloch_on_level(level: float, rng) -> BlochVector:
    """Uniform-direction Bloch vector with sum |m_j| equal to `level`."""
    while True:
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        m = w * (level / np.abs(w).sum())
        if m @ m <= 1.0:
            return BlochVector(*m)


def _orthogonal_qubit(psi: PureState) -> PureState:
    a, b = psi.amps
    return PureState([-b.conjugate(), a.conjugate()])


def random_broadcaster_spec(rng) -> BroadcasterSpec:
    psi = haar_random_pure(2, rng)
    perp = _orthogonal_qubit(psi)
    level = rom_qubit(psi.density())
    outputs = [
        density_from_bloch(sample_bloch_on_level(level, rng)) for _ in range(4)
    ]
    return BroadcasterSpec(
        ref_in=(psi, perp),
        sys_out=(outputs[0], outputs[1]),
        aux_out=(outputs[2], outputs[3]),
    )


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

    exp2 = np.einsum("pij,ni,nj->np", pauli_matrices(2), z.conj(), z).real
    joint = -np.log((exp2 ** 4).sum(axis=1) / 4.0) / _LOG2

    blocks = z.reshape(n_samples, 2, 2)
    reduced = np.einsum("nij,nkj->nik", blocks, blocks.conj())
    traces = np.einsum("pij,nji->np", pauli_matrices(1), reduced).real
    ext = -np.log((traces ** 4).sum(axis=1) / (traces ** 2).sum(axis=1)) / _LOG2

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
    """Auxiliary output magic never exceeds the reference magic."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        spec = random_broadcaster_spec(rng)
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        alpha = complex(w[0], w[1])
        beta = complex(w[2], w[3])
        _, aux = unrestricted_broadcast(spec, alpha, beta)
        worst = max(worst, rom_qubit(aux) - spec.reference_magic())
    return _report("theorem3", n_samples, worst, tol.BROADCAST_EQUALITY, seed, t0)


def check_geometry(
    n_samples: int = 1000, seed: int = 0, scan_points: int = 10_000
) -> VerificationReport:
    """Exact line-polytope solver and certificate against the dense scan."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    resolution = 2.0 / (scan_points - 1)
    worst = 0.0
    for _ in range(n_samples):
        level = rng.uniform(1.05, math.sqrt(3.0))
        points = [sample_bloch_on_level(level, rng) for _ in range(4)]
        r = rng.uniform(1.0, level)
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
    return fn(n_samples=n_samples, seed=seed)
