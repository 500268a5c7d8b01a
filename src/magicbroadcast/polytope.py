"""Bloch-ball magic polytope geometry.

The level-r polytope is the surface sum_j |m_j| = r. Level 1 is the
stabilizer octahedron; level sqrt(3) touches the Bloch sphere at the eight
maximal-magic points. Line-polytope intersections are computed exactly per
sign-orthant since the level function is piecewise linear along a segment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InconsistentReferenceError, InvalidLevelError
from .states import BlochVector

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
    if not r >= 1.0:                # also rejects NaN
        raise InvalidLevelError(f"level must be >= 1, got {r}")


def polytope_membership(b: BlochVector, r: float) -> str:
    """Classify a Bloch vector as 'inside', 'on-surface', or 'outside'."""
    _check_level(r)
    gap = b.abs_sum() - r
    if abs(gap) <= tol.SURFACE:
        return "on-surface"
    return "inside" if gap < 0 else "outside"


def line_polytope_intersections(
    b0: BlochVector, b1: BlochVector, r: float
) -> list:
    """All t in [0, 1] with sum_j |(1-t) b0_j + t b1_j| = r.

    Exact piecewise-linear arithmetic: the segment is split at the zero
    crossings of each coordinate and a linear equation is solved per piece.
    If a whole piece lies on the surface its endpoints are returned.
    """
    _check_level(r)
    start = b0.as_array()
    delta = b1.as_array() - start

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
    sys0: BlochVector,
    sys1: BlochVector,
    aux0: BlochVector,
    aux1: BlochVector,
    r: float,
) -> GeometryCertificate:
    """Equal-ratio certificate for broadcastability at polytope level r.

    The four endpoints must sit on a common reference level >= r. The input
    magic is broadcastable at level r iff the system and auxiliary segments
    cross the level-r surface at a shared mixing parameter t.
    """
    levels = [v.abs_sum() for v in (sys0, sys1, aux0, aux1)]
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

    sys_t = line_polytope_intersections(sys0, sys1, r)
    aux_t = line_polytope_intersections(aux0, aux1, r)
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


def scan_polytope_crossings(
    b0: BlochVector, b1: BlochVector, r: float, points: int = 10_000
) -> list:
    """Dense-scan oracle: approximate crossing parameters on a uniform grid.

    Independent of the exact solver: it shares no code with
    `line_polytope_intersections`, which it validates. Returns, sorted, one t
    per sign change (or near-zero touch) of the level function. Whole-array
    numpy, bit-identical to the per-cell loop it replaced.
    """
    start = b0.as_array()
    delta = b1.as_array() - start
    t = np.linspace(0.0, 1.0, points)
    values = np.abs(start[None, :] + t[:, None] * delta[None, :]).sum(axis=1) - r
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
