"""Property-verification suites.

Each suite is an array function `(rng, n) -> violations` that draws n
randomized instances and returns how far each one breaks the property under
test.  `run_suite` is the single entry point: it seeds the generator, times
the suite and turns the worst violation (NaN counts as the worst) into a
pass/fail report against the suite's tolerance.  It backs the `verify` CLI
subcommand and the acceptance tests.

`lemma1` checks the closed-form qubit robustness against an LP optimality
certificate built here (a primal decomposition and a dual witness per
state); the basis-enumeration oracle `measures.rom_lp_batch` cross-checks
that certificate in the tests.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .cloners import theorem2_falsify, unrestricted_broadcast_batch
from .errors import InvalidInputError, MagicBroadcastError
from .measures import rom_batch, sre2_extended_batch, sre2_pure_batch
from .polytope import broadcast_geometry_certificate, scan_crossings_batch
from .stabilizers import clifford_group_1q, stabilizer_states
from .states import haar_amps, pure_bloch_batch

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
            # JSON has no NaN or infinity; a non-finite worst violation is null
            "max_violation": (self.max_violation
                              if math.isfinite(self.max_violation) else None),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
        }


# ---------------------------------------------------------------------------
# random-instance helpers
# ---------------------------------------------------------------------------

def random_qubit_bloch(rng, n: int, mixed_fraction: float = 0.5) -> np.ndarray:
    """Bloch vectors of random qubit states: Haar-pure plus uniform-ball mixed."""
    bloch = pure_bloch_batch(haar_amps(rng, n, 2))
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
# Lemma 1 by optimality certificate
#
# The qubit robustness is the LP  min sum_i |x_i|  over weights x on the six
# stabilizer points s_i with sum_i x_i = 1 and sum_i x_i s_i = m.  Its dual
# is  max y0 + v.m  subject to |y0 + v.s_i| <= 1 for every i.  A feasible x
# and a feasible (y0, v) with equal objectives prove each other optimal, by
# weak duality, however they were found.  The checker builds both from m
# alone and reports how far they fall short of that proof; it reads the
# stabilizer points from `stabilizer_states(1)` and shares no code with
# `rom_batch` or the basis-enumeration oracle `rom_lp_batch`.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _stabilizer_points() -> tuple:
    """The six one-qubit stabilizer Bloch points (6, 3), and the rows that
    hold +e_j and -e_j, each (3,)."""
    a, b = stabilizer_states(1).T
    ab = 2.0 * a.conj() * b
    points = np.stack([ab.real, ab.imag, (a * a.conj() - b * b.conj()).real], axis=1)
    table = (points, points.argmax(axis=0), points.argmin(axis=0))
    for array in table:
        array.setflags(write=False)
    return table


def _lemma1_primal(size: np.ndarray, level: np.ndarray) -> tuple:
    """Weights (p, q), each (n, 3), on sign(m_j) e_j and on -sign(m_j) e_j.

    `size` is |m| and `level` sum_j |m_j| as a column.  p - q = |m_j| puts
    the magnetization in place and the shares p + q add up to 1, so
    sum_j |p_j| + |q_j| = max{1, level}.
    """
    share = size / np.maximum(level, 1.0) + np.maximum(1.0 - level, 0.0) / 3.0
    return (share + size) / 2.0, (share - size) / 2.0


def _lemma1_certificate(bloch: np.ndarray) -> tuple:
    """Certified LP optimum of each Bloch vector (n, 3) and its worst defect.

    Returns (value, defect), each (n,): the primal objective, and the largest
    of the primal residual |A x - (1, m)|, the dual infeasibility
    max|A^T y| - 1 and the duality gap.  The dual witness is y = (0, sign m)
    at level sum_j |m_j| >= 1 and (1, 0) below it; the sign of -0.0 is -1.
    """
    points, plus, minus = _stabilizer_points()
    size = np.abs(bloch)
    level = size.sum(axis=1, keepdims=True)
    negative = np.signbit(bloch)
    p, q = _lemma1_primal(size, level)
    x = np.zeros((len(bloch), len(points)))
    rows = np.arange(len(bloch))[:, None]
    x[rows, np.where(negative, minus, plus)] = p
    x[rows, np.where(negative, plus, minus)] = q
    primal = np.abs(x).sum(axis=1)
    residual = np.maximum(np.abs(x.sum(axis=1) - 1.0),
                          np.abs(x @ points - bloch).max(axis=1))
    high = level >= 1.0
    y0 = np.where(high, 0.0, 1.0)
    v = np.where(high, np.where(negative, -1.0, 1.0), 0.0)
    dual = y0[:, 0] + (v * bloch).sum(axis=1)
    dual_excess = np.abs(y0 + v @ points.T).max(axis=1) - 1.0
    return primal, np.maximum(np.maximum(residual, dual_excess), np.abs(primal - dual))


# ---------------------------------------------------------------------------
# suites: (rng, n) -> violations, one entry per sample (or per measure)
# ---------------------------------------------------------------------------

def _lemma1(rng, n: int) -> np.ndarray:
    """Closed-form qubit robustness against its certified LP optimum.

    The violation is the largest of |closed form - certified value| and the
    certificate's own defect (infeasibilities and duality gap).
    """
    bloch = random_qubit_bloch(rng, n)
    value, defect = _lemma1_certificate(bloch)
    return np.maximum(np.abs(rom_batch(bloch) - value), defect)


def _clifford(rng, n: int) -> np.ndarray:
    """M2 and robustness of Haar qubit states under random Clifford rotations."""
    amps = haar_amps(rng, n, 2)
    group = np.array(clifford_group_1q())
    cliffords = group[rng.integers(len(group), size=n)]
    pair = np.stack([amps, np.einsum("nij,nj->ni", cliffords, amps)])
    m2 = sre2_pure_batch(pair, 1)
    rom = rom_batch(pure_bloch_batch(pair))
    return np.maximum(np.abs(m2[1] - m2[0]), np.abs(rom[1] - rom[0]))


def _additivity(rng, n: int) -> np.ndarray:
    """M2 additivity on two-qubit products of Haar qubit states."""
    psi, phi = haar_amps(rng, n, 2), haar_amps(rng, n, 2)
    joint = sre2_pure_batch((psi[:, :, None] * phi[:, None, :]).reshape(n, 4), 2)
    return np.abs(joint - sre2_pure_batch(psi, 1) - sre2_pure_batch(phi, 1))


def _convexity(rng, n: int) -> np.ndarray:
    """Convexity of the qubit robustness on random mixtures."""
    bloch = random_qubit_bloch(rng, 2 * n)
    b1, b2 = bloch[0::2], bloch[1::2]
    lam = rng.random(n)
    mixed = rom_batch(lam[:, None] * b1 + (1.0 - lam[:, None]) * b2)
    return mixed - (lam * rom_batch(b1) + (1.0 - lam) * rom_batch(b2))


def _monotone(rng, n: int) -> np.ndarray:
    """Extended-M2 non-increase under partial trace, two-qubit pure inputs."""
    z = haar_amps(rng, n, 4)
    blocks = z.reshape(n, 2, 2)
    reduced = np.einsum("nij,nkj->nik", blocks, blocks.conj())
    return sre2_extended_batch(reduced, 1) - sre2_pure_batch(z, 2)


_THEOREM2_THETA = math.pi / 4.0


def _theorem2(rng, n: int) -> np.ndarray:
    """Maximal-magic broadcaster gap sweep over a fixed grid of n zetas plus
    zeta = pi, where the gap peaks (0.338 at theta = pi/4), so that a grid
    too coarse to come near the peak cannot fail correct code.

    Three violations: the closed-form mismatch with the direct robustness,
    any zeta dependence of the output, and a shortfall of the gap below 0.1.
    """
    grid = np.append(np.linspace(0.0, 2.0 * math.pi, n, endpoint=False), math.pi)
    report = theorem2_falsify(_THEOREM2_THETA, grid)
    return np.array([report.closed_form_max_err, report.output_spread,
                     0.1 - report.max_gap])


def _theorem3(rng, n: int) -> np.ndarray:
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
    levels = rom_batch(random_qubit_bloch(rng, n, mixed_fraction=0.0))
    outputs = sample_bloch_on_levels(np.repeat(levels, 4), rng).reshape(-1, 4, 3)
    w = rng.standard_normal((n, 4))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    _, aux = unrestricted_broadcast_batch(
        w[:, 0] + 1j * w[:, 1], w[:, 2] + 1j * w[:, 3],
        outputs[:, :2], outputs[:, 2:],
    )
    off_level = np.abs(rom_batch(outputs) - levels[:, None]).max(axis=1)
    return np.maximum(rom_batch(aux) - levels, off_level)


_SCAN_POINTS = 10_000
_RESOLUTION = 2.0 / (_SCAN_POINTS - 1)


def _meet(ts, tas) -> bool:
    """Whether some pair of crossings lies within one grid step."""
    return any(abs(t - ta) <= _RESOLUTION for t in ts for ta in tas)


def _nearest_miss(scanned, exact) -> float:
    """Largest distance of a scanned crossing from its nearest exact root, at most 1."""
    return max((min([1.0] + [abs(t - e) for e in exact]) for t in scanned), default=0.0)


def _geometry_mismatch(ends: np.ndarray, r: float, sys_scan: list,
                       aux_scan: list) -> float:
    """The certificate at level r against the dense scans of its segments."""
    cert = broadcast_geometry_certificate(*ends, r)
    scan_common = _meet(sys_scan, aux_scan)
    if cert.broadcastable and not scan_common:
        return 1.0
    # the scan may pair distinct near-surface roots; re-check exactly
    if scan_common and not cert.broadcastable and not _meet(cert.sys_t, cert.aux_t):
        return 1.0
    return max(_nearest_miss(sys_scan, cert.sys_t), _nearest_miss(aux_scan, cert.aux_t))


def _geometry(rng, n: int) -> np.ndarray:
    """Exact line-polytope solver and certificate against the dense scan."""
    levels = rng.uniform(1.05, _SQRT3, n)
    targets = rng.uniform(1.0, levels)
    endpoints = sample_bloch_on_levels(np.repeat(levels, 4), rng).reshape(-1, 4, 3)
    # one scan of all 2n segments, each sample's sys then aux segment; called
    # by its name in this module, which a caller may rebind to watch it
    scans = scan_crossings_batch(endpoints[:, 0::2].reshape(-1, 3),
                                 endpoints[:, 1::2].reshape(-1, 3),
                                 np.repeat(targets, 2), _SCAN_POINTS)
    return np.array([_geometry_mismatch(*sample) for sample in
                     zip(endpoints, targets, scans[0::2], scans[1::2])])


# name -> (suite, default samples, tolerance); the defaults are the release
# contract's sample counts
_SUITES = {
    "lemma1": (_lemma1, 100_000, tol.LEMMA_EQUIV),
    "clifford": (_clifford, 1000, tol.CLIFFORD_INVARIANCE),
    "additivity": (_additivity, 1000, tol.ADDITIVITY),
    "convexity": (_convexity, 1000, tol.CLIFFORD_INVARIANCE),
    "theorem2": (_theorem2, 720, tol.BROADCAST_EQUALITY),
    "theorem3": (_theorem3, 10_000, tol.BROADCAST_EQUALITY),
    "geometry": (_geometry, 1000, _RESOLUTION),
    "monotone": (_monotone, 10_000, tol.MONOTONICITY),
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name: str, n_samples=None, seed: int = 0) -> VerificationReport:
    """Run one suite from `default_rng(seed)` and report its worst violation.

    A NaN violation is the worst and fails the suite.
    """
    if name not in _SUITES:
        raise InvalidInputError(f"unknown suite {name!r}; choose from {suite_names()}")
    suite, default_samples, tolerance = _SUITES[name]
    if n_samples is None:
        n_samples = default_samples
    elif n_samples < 1:             # a suite over no samples would pass vacuously
        raise InvalidInputError(f"n_samples must be >= 1, got {n_samples}")
    t0 = time.perf_counter()
    violations = suite(np.random.default_rng(seed), n_samples)
    return VerificationReport(
        check_name=name,
        samples=n_samples,
        max_violation=float(np.max(violations, initial=0.0)),
        tolerance=tolerance,
        seed=seed,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )
