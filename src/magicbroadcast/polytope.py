"""Bloch-ball magic polytope geometry.

The level-r polytope is the surface sum_j |m_j| = r. Level 1 is the
stabilizer octahedron; level sqrt(3) touches the Bloch sphere at the eight
maximal-magic points. Line-polytope intersections are computed exactly per
sign-orthant since the level function is piecewise linear along a segment.
The dense-scan oracle that checks them evaluates the level function on a
uniform grid, many segments at once, and skips the grid blocks that a
Lipschitz bound proves hold no crossing.

An endpoint is a Bloch vector given as a float (3,) array or any 3-sequence
of numbers; every function checks each endpoint with `states.bloch_vector`,
so a wrong shape, a non-finite component or a point outside the Bloch ball
raises a package error.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import InconsistentReferenceError, InvalidInputError, InvalidLevelError
from .states import JsonRecord, bloch_vector

_ROOT_DEDUP = 1e-12


@dataclass(frozen=True)
class GeometryCertificate(JsonRecord):
    """Outcome of the equal-ratio broadcastability check at one level."""

    broadcastable: bool
    level: float
    common_t: tuple
    sys_t: tuple
    aux_t: tuple


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
        level=r,
        common_t=tuple(common),
        sys_t=tuple(sys_t),
        aux_t=tuple(aux_t),
    )


# Grid cells per pruning block of the dense scan.
_SCAN_BLOCK = 64
# Grid points evaluated past each side of a live block, so that every cell
# it owns has its right end and every point it owns both neighbours.
_SCAN_HALO = 1
# Slack on the pruning bound for the rounding of the evaluated level function.
_PRUNE_MARGIN = 1e-12


@functools.lru_cache(maxsize=8)
def _scan_grid(points: int) -> tuple:
    """The scan's grid t = linspace(0, 1, points), its values at the block
    edges (every `_SCAN_BLOCK`-th point, then the last one) and the block
    widths; all read-only."""
    t = np.linspace(0.0, 1.0, points)
    blocks = -(-(points - 1) // _SCAN_BLOCK)
    edge_t = t[np.minimum(np.arange(blocks + 1) * _SCAN_BLOCK, points - 1)]
    layout = (t, edge_t, np.diff(edge_t))
    for array in layout:
        array.setflags(write=False)
    return layout


def _level_values(start, delta, levels, t) -> np.ndarray:
    """The level function sum_j |start_j + t delta_j| - level of each row at
    the parameters t, accumulated as |m_0| + |m_1| + |m_2| in that fixed
    order, then the level subtracted.  `t` is one shared (k,) grid or one
    (rows, k) grid per row; the scan evaluates every grid value it reads here.
    """
    values = np.abs(start[:, 0, None] + t * delta[:, 0, None])
    values += np.abs(start[:, 1, None] + t * delta[:, 1, None])
    values += np.abs(start[:, 2, None] + t * delta[:, 2, None])
    values -= levels[:, None]
    return values


def _block_reach(delta, widths) -> np.ndarray:
    """How far the level function can stray inside each block from the mean
    of its two edge values, (rows, blocks): L*w/2 with the Lipschitz constant
    L = sum_j |delta_j| and block width w, plus the rounding margin."""
    return np.abs(delta).sum(axis=1, keepdims=True) * (widths / 2.0) + _PRUNE_MARGIN


def scan_crossings_batch(b0, b1, r, points: int = 10_000) -> list:
    """Dense-scan oracle over many segments: one sorted list of approximate
    crossing parameters per row of the (n, 3) start points `b0`, end points
    `b1` and (n,) levels `r`.

    Independent of the exact solver: it shares no arithmetic with
    `line_polytope_intersections`, which it validates.  On the uniform grid
    t_i = linspace(0, 1, points), with step h and level function
    f(t) = sum_j |b0_j + t (b1_j - b0_j)| - r, a row reports
    - the linearly interpolated root of each cell (t_i, t_i+1) with
      f(t_i) == 0 or f(t_i) f(t_i+1) < 0 (t_i itself on a flat cell);
    - each interior t_i with 0 < f(t_i) < r h that is a local minimum,
      f(t_i-1) > f(t_i) <= f(t_i+1): a tangential touch;
    - 1.0 when f(1) == 0.

    Pruning.  The grid splits into blocks of `_SCAN_BLOCK` cells, and f is
    evaluated first at the block edges only.  f is Lipschitz with
    L = sum_j |b1_j - b0_j|, so on a block [a, b] of width w = b - a,
    f(t) >= f(a) - L (t - a) and f(t) >= f(b) - L (b - t); their mean gives
    f(t) >= (f(a) + f(b))/2 - L w/2, and the same argument gives
    f(t) <= (f(a) + f(b))/2 + L w/2 (Shubert 1972).  The test below can
    only be close at its thresholds 0 and r h, where the values of f are
    O(1) and their rounding is about 1e-15, which `_PRUNE_MARGIN` covers.
    A block whose lower bound exceeds r h, or whose upper bound is below 0,
    has all its grid values above r h or all below 0: none is zero, no two
    change sign and none passes the touch rule, so it holds nothing to
    report and is skipped.  Each remaining block k is evaluated with
    `_SCAN_HALO` extra points on each side and applies the three rules to
    the cells and points it owns, those with index in [k B, k B + B).
    Every grid value read is computed with the unpruned scan's arithmetic
    (`_level_values`), so each row equals the unpruned scan bit for bit.

    `points` is an integer >= 2 and each level a finite level >= 1; each
    endpoint is checked by `states.bloch_vector`.
    """
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise InvalidInputError(f"points must be an integer >= 2, got {points!r}")
    if np.ndim(r) != 1:
        raise InvalidInputError(f"r must be a 1-D sequence of levels, got {r!r}")
    for level in r:
        _check_level(level)
    levels = np.array(r, dtype=float)
    start = np.array([bloch_vector(b) for b in b0]).reshape(-1, 3)
    end = np.array([bloch_vector(b) for b in b1]).reshape(-1, 3)
    if not len(start) == len(end) == len(levels):
        raise InvalidInputError(
            f"b0, b1 and r must have equal lengths, got "
            f"{len(start)}, {len(end)} and {len(levels)}"
        )
    delta = end - start

    t, edge_t, widths = _scan_grid(points)
    step = t[1] - t[0]
    touch_below = levels * step
    edge_values = _level_values(start, delta, levels, edge_t)
    centre = (edge_values[:, :-1] + edge_values[:, 1:]) / 2.0
    reach = _block_reach(delta, widths)
    live = (centre - reach <= touch_below[:, None]) & (centre + reach >= 0.0)
    rows, blocks = np.nonzero(live)

    index = blocks[:, None] * _SCAN_BLOCK + np.arange(-_SCAN_HALO, _SCAN_BLOCK + _SCAN_HALO)
    owned = index // _SCAN_BLOCK == blocks[:, None]
    values = _level_values(start[rows], delta[rows], levels[rows],
                           t[np.clip(index, 0, points - 1)])
    # cells (i, i + 1)
    lo, hi, at = values[:, :-1], values[:, 1:], index[:, :-1]
    cell = owned[:, :-1] & (at < points - 1) & ((lo == 0.0) | (lo * hi < 0.0))
    lo, hi, at = lo[cell], hi[cell], at[cell]
    denom = hi - lo
    frac = np.divide(-lo, denom, out=np.zeros_like(denom), where=denom != 0.0)
    crossed = t[at] + frac * step
    # points i with both neighbours
    mid, at = values[:, 1:-1], index[:, 1:-1]
    touch = (
        owned[:, 1:-1] & (at >= 1) & (at < points - 1)
        & (np.abs(mid) < touch_below[rows, None])
        & (values[:, :-2] > mid) & (mid <= values[:, 2:]) & (mid > 0.0)
    )
    ended = np.flatnonzero(edge_values[:, -1] == 0.0)

    hits = np.concatenate([np.nonzero(cell)[0], np.nonzero(touch)[0]])
    row_of = np.concatenate([rows[hits], ended])
    found = np.concatenate([crossed, t[at[touch]], np.ones(len(ended))])
    found = found[np.lexsort((found, row_of))].tolist()
    bounds = np.cumsum(np.bincount(row_of, minlength=len(levels))).tolist()
    return [found[a:b] for a, b in zip([0] + bounds[:-1], bounds)]


def scan_polytope_crossings(b0, b1, r: float, points: int = 10_000) -> list:
    """Dense-scan oracle for one segment from `b0` to `b1`, Bloch arrays or
    3-sequences, at level r: the one row of `scan_crossings_batch`."""
    return scan_crossings_batch([b0], [b1], [r], points)[0]
