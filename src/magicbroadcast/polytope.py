"""Bloch-ball magic polytope geometry.

The level-r polytope is the surface sum_j |m_j| = r. Level 1 is the
stabilizer octahedron; level sqrt(3) touches the Bloch sphere at the eight
maximal-magic points. Line-polytope intersections are computed exactly per
sign-orthant since the level function is piecewise linear along a segment.

An endpoint is a Bloch vector given as a float (3,) array or any 3-sequence
of numbers; every function checks each endpoint with `states.bloch_vector`,
so a wrong shape, a non-finite component or a point outside the Bloch ball
raises a package error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InconsistentReferenceError, InvalidInputError, InvalidLevelError
from .states import bloch_vector

_ROOT_DEDUP = 1e-12


@dataclass(frozen=True)
class GeometryCertificate:
    """Outcome of the equal-ratio broadcastability check at one level."""

    broadcastable: bool
    common_t: tuple
    level: float
    sys_t: tuple
    aux_t: tuple

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "broadcastable": self.broadcastable,
            "level": self.level,
            "common_t": list(self.common_t),
            "sys_t": list(self.sys_t),
            "aux_t": list(self.aux_t),
        }


def _check_level(r: float):
    if not 1.0 <= r < math.inf:     # also rejects NaN
        raise InvalidLevelError(f"level must be finite and >= 1, got {r}")


def line_polytope_intersections(b0, b1, r: float) -> list:
    """All t in [0, 1] with sum_j |(1-t) b0_j + t b1_j| = r, for endpoints
    b0 and b1 given as Bloch arrays or 3-sequences.

    Exact piecewise-linear arithmetic: the segment is split at the zero
    crossings of each coordinate and a linear equation is solved per piece.
    If a whole piece lies on the surface its endpoints are returned.
    """
    _check_level(r)
    start = bloch_vector(b0)
    delta = bloch_vector(b1) - start

    cuts = {0.0, 1.0}
    for j in range(3):
        if abs(delta[j]) > 0.0:
            t_zero = -start[j] / delta[j]
            if 0.0 < t_zero < 1.0:
                cuts.add(float(t_zero))
    grid = sorted(cuts)

    roots = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        signs = np.sign(start + mid * delta)
        signs[signs == 0.0] = 1.0
        const = float(signs @ start) - r
        slope = float(signs @ delta)
        if abs(slope) < 1e-15:
            if abs(const) <= tol.INTERSECTION:
                roots.extend((lo, hi))
            continue
        t_star = -const / slope
        if lo - 1e-12 <= t_star <= hi + 1e-12:
            roots.append(min(1.0, max(0.0, t_star)))

    roots.sort()
    deduped = []
    for t in roots:
        if not deduped or t - deduped[-1] > _ROOT_DEDUP:
            deduped.append(t)
    return deduped


def broadcast_geometry_certificate(
    sys0, sys1, aux0, aux1, r: float
) -> GeometryCertificate:
    """Equal-ratio certificate for broadcastability at polytope level r.

    The four endpoints, Bloch arrays or 3-sequences, must sit on a common
    reference level >= r. The input magic is broadcastable at level r iff the
    system and auxiliary segments cross the level-r surface at a shared
    mixing parameter t.
    """
    ends = [bloch_vector(v) for v in (sys0, sys1, aux0, aux1)]
    levels = [sum(map(abs, m.tolist())) for m in ends]
    ref = levels[0]
    if not max(levels) - min(levels) <= tol.LEVEL_MATCH:
        raise InconsistentReferenceError(
            f"endpoint levels differ: {levels!r}"
        )
    _check_level(r)
    if not r <= ref + tol.LEVEL_MATCH:
        raise InvalidLevelError(
            f"target level {r} exceeds the reference level {ref}"
        )

    sys_t = line_polytope_intersections(ends[0], ends[1], r)
    aux_t = line_polytope_intersections(ends[2], ends[3], r)
    common = []
    for ts in sys_t:
        for ta in aux_t:
            if abs(ts - ta) <= tol.COMMON_T:
                common.append(0.5 * (ts + ta))
    return GeometryCertificate(
        broadcastable=bool(common),
        common_t=tuple(common),
        level=r,
        sys_t=tuple(sys_t),
        aux_t=tuple(aux_t),
    )


def scan_polytope_crossings(b0, b1, r: float, points: int = 10_000) -> list:
    """Dense-scan oracle: approximate crossing parameters on a uniform grid.

    Independent of the exact solver: it shares no arithmetic with
    `line_polytope_intersections`, which it validates. Returns, sorted, one t
    per sign change (or near-zero touch) of the level function. The level
    function is accumulated one coordinate at a time, |m_0| + |m_1| + |m_2|
    in that fixed order, then r is subtracted: bit-identical to the
    per-cell loop it replaced. `b0` and `b1` are Bloch arrays or 3-sequences,
    `points` is an integer >= 2 and r a finite level >= 1.
    """
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise InvalidInputError(f"points must be an integer >= 2, got {points!r}")
    _check_level(r)
    start = bloch_vector(b0)
    delta = bloch_vector(b1) - start
    t = np.linspace(0.0, 1.0, points)
    values = np.abs(start[0] + t * delta[0])
    values += np.abs(start[1] + t * delta[1])
    values += np.abs(start[2] + t * delta[2])
    values -= r
    step = t[1] - t[0]
    lo, hi = values[:-1], values[1:]
    k = np.flatnonzero((lo == 0.0) | (lo * hi < 0.0))
    # linear interpolation inside each crossing cell; frac = 0 on flat cells
    denom = hi[k] - lo[k]
    frac = np.divide(-lo[k], denom, out=np.zeros_like(denom), where=denom != 0.0)
    # tangential touches: local minima within grid resolution of the surface
    mid = values[1:-1]
    touch = (
        (np.abs(mid) < r * step) & (lo[:-1] > mid) & (mid <= hi[1:]) & (mid > 0.0)
    )
    crossings = [t[k] + frac * step, t[1:-1][touch]]
    if values[-1] == 0.0:
        crossings.append(np.ones(1))
    return np.sort(np.concatenate(crossings)).tolist()
