import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicbroadcast import polytope
from magicbroadcast.checks import sample_bloch_on_levels
from magicbroadcast.errors import (
    InconsistentReferenceError,
    InvalidDimensionError,
    InvalidInputError,
    InvalidLevelError,
    NotAStateError,
)
from magicbroadcast.polytope import (
    broadcast_geometry_certificate,
    line_polytope_intersections,
    scan_crossings_batch,
    scan_polytope_crossings,
)

S3 = 1.0 / math.sqrt(3.0)
SQRT3 = math.sqrt(3.0)


def test_radial_line_crossing():
    # |m|-sum grows linearly from 0 to sqrt(3) along this radius
    ts = line_polytope_intersections(
        np.array([0.0, 0.0, 0.0]), np.array([S3, S3, S3]), 1.2
    )
    assert ts == pytest.approx([1.2 / math.sqrt(3.0)], abs=1e-12)


def test_diameter_produces_two_crossings():
    ts = line_polytope_intersections(
        np.array([S3, S3, S3]), np.array([-S3, -S3, -S3]), 1.2
    )
    u = 1.2 / math.sqrt(3.0)
    assert len(ts) == 2
    assert ts == pytest.approx([(1 - u) / 2, (1 + u) / 2], abs=1e-12)


def test_segment_flat_on_surface_reports_endpoints():
    # both endpoints and the whole segment lie on the level-1 surface
    ts = line_polytope_intersections(
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1.0
    )
    assert ts[0] == pytest.approx(0.0, abs=1e-12)
    assert ts[-1] == pytest.approx(1.0, abs=1e-12)


def _random_level_point(rng, level):
    while True:
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        m = w * (level / np.abs(w).sum())
        if m @ m <= 1.0:
            return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_crossings_match_dense_scan(seed):
    rng = np.random.default_rng(seed)
    b0 = rng.uniform(-0.55, 0.55, 3)
    b1 = rng.uniform(-0.55, 0.55, 3)
    r = rng.uniform(1.0, 1.5)
    exact = line_polytope_intersections(b0, b1, r)
    scan = scan_polytope_crossings(b0, b1, r, 20_000)
    resolution = 2.0 / 19_999
    for t in scan:
        assert min((abs(t - e) for e in exact), default=np.inf) <= resolution


def _loop_scan(b0, b1, r, points=10_000):
    """Reference: the dense scan written as the per-cell loop, kept verbatim."""
    start = b0
    delta = b1 - start
    t = np.linspace(0.0, 1.0, points)
    values = np.abs(start[None, :] + t[:, None] * delta[None, :]).sum(axis=1) - r
    crossings = []
    step = t[1] - t[0]
    for k in range(points - 1):
        if values[k] == 0.0 or values[k] * values[k + 1] < 0.0:
            # linear interpolation inside the cell
            denom = values[k + 1] - values[k]
            frac = 0.0 if denom == 0.0 else -values[k] / denom
            crossings.append(float(t[k] + frac * step))
    if values[-1] == 0.0:
        crossings.append(1.0)
    # tangential touches: local minima within grid resolution of the surface
    for k in range(1, points - 1):
        if (
            abs(values[k]) < r * step
            and values[k - 1] > values[k] <= values[k + 1]
            and values[k] > 0.0
        ):
            crossings.append(float(t[k]))
    return sorted(crossings)


def _scan_cases(rng, n):
    """Seeded segments, cycling through random and boundary constructions."""
    for i in range(n):
        kind = i % 6
        if kind == 0:       # as check_geometry draws them
            level = rng.uniform(1.05, SQRT3)
            b0, b1 = (_random_level_point(rng, level) for _ in range(2))
            r = rng.uniform(1.0, level)
        elif kind == 1:     # anywhere in the ball
            b0, b1 = (rng.uniform(-0.55, 0.55, 3) for _ in range(2))
            r = rng.uniform(1.0, 1.5)
        elif kind == 2:     # an endpoint exactly on the level
            b0, b1 = (_random_level_point(rng, rng.uniform(1.0, SQRT3))
                      for _ in range(2))
            end = b0 + 1.0 * (b1 - b0)
            r = float(np.abs(b0 if i % 12 < 6 else end).sum())
        elif kind == 3:     # a whole piece on the level-1 surface
            b0, b1 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
            r = 1.0
        elif kind == 4:     # between two maximal-magic points at r = sqrt(3)
            signs = rng.choice([-1.0, 1.0], (2, 3))
            b0, b1 = S3 * signs[0], S3 * signs[1]
            r = SQRT3
        else:               # a tangent touch near t = 1/2: min level 1.1
            b0, b1 = np.array([0.55, 0.55, 0.4]), np.array([0.55, 0.55, -0.4])
            r = 1.1 + rng.uniform(-2e-4, 2e-4)
        points = 10_000 if i < 120 else int(rng.choice([2, 3, 7, 64, 257, 1000]))
        yield b0, b1, r, points


def _by_points(cases):
    """(b0, b1, r, points) cases grouped as {points: [(b0, b1, r), ...]}."""
    groups = {}
    for b0, b1, r, points in cases:
        groups.setdefault(points, []).append((b0, b1, r))
    return groups


def _batch(cases, points):
    """One `scan_crossings_batch` call over (b0, b1, r) cases: a row per case."""
    return scan_crossings_batch(*zip(*cases), points)


def test_scan_is_bit_identical_to_the_cell_loop():
    touched = ended = 0
    for points, cases in _by_points(_scan_cases(np.random.default_rng(2024), 2_400)).items():
        for scanned, case in zip(_batch(cases, points), cases):
            assert scanned == _loop_scan(*case, points)
            assert scanned == _axis_sum_scan(*case, points)
            assert all(type(t) is float for t in scanned)
            touched += len(scanned) == 1 and 0.4 < scanned[0] < 0.6
            ended += scanned[-1:] == [1.0]
    assert touched and ended    # the tangent rule and the end point both fired


def _axis_sum_scan(b0, b1, r, points=10_000):
    """Reference: the whole-array scan that sums the level function over a
    (points, 3) array, kept verbatim."""
    start = b0
    delta = b1 - start
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


def _level_segments(rng, n):
    """n segments as the geometry suite draws them: (b0, b1, r), r <= level."""
    levels = rng.uniform(1.05, SQRT3, n)
    targets = rng.uniform(1.0, levels)
    ends = sample_bloch_on_levels(np.repeat(levels, 2), rng).reshape(n, 2, 3)
    return [(a, b, float(r)) for (a, b), r in zip(ends, targets)]


def _suite_style_cases():
    """2 000 segments drawn as the geometry suite draws them, then zero-length
    segments on and off the level and segments ending on the level."""
    cases = _level_segments(np.random.default_rng(29), 2_000)
    cases += [(b0, b0, r) for b0, _, r in cases[:20]]
    cases += [(b0, b0, float(np.abs(b0).sum())) for b0, _, _ in cases[:20]]
    # an endpoint exactly on the level, so values[-1] == 0
    cases += [(b0, b1, float(np.abs(b1).sum())) for b0, b1, _ in cases[:40]]
    return cases


def test_scan_is_bit_identical_to_the_axis_sum_scan():
    cases = _suite_style_cases()
    rows = _batch(cases, 10_000)
    # the cell loop takes ~5 ms a row: every special case, every 10th drawn one
    for k, (scanned, case) in enumerate(zip(rows, cases)):
        assert scanned == _axis_sum_scan(*case)
        if k % 10 == 0 or k >= 2_000:
            assert scanned == _loop_scan(*case)
    assert any(scanned[-1:] == [1.0] for scanned in rows)
    # the one-row wrapper is the batch's row
    assert [scan_polytope_crossings(*case) for case in cases[:50]] == rows[:50]


_B = polytope._SCAN_BLOCK


@pytest.mark.parametrize("points", [2, 3, 7, _B, _B + 1, _B + 2, 1_000, 10_000, 20_000])
def test_batch_is_bit_identical_to_both_references_at_every_grid_size(points):
    cases = [case[:3] for case in _scan_cases(np.random.default_rng(points), 24)]
    cases += _level_segments(np.random.default_rng(points), 12)
    for scanned, case in zip(_batch(cases, points), cases):
        assert scanned == _loop_scan(*case, points)
        assert scanned == _axis_sum_scan(*case, points)


def _block_edge_cases(points):
    """Touches, crossing pairs and exact zeros planted on the grid points at
    and next to the first and last three inner block edges, where a block
    reads its neighbours' values.  Yields ((b0, b1, r), i, kind)."""
    t = np.linspace(0.0, 1.0, points)
    step = t[1] - t[0]
    edges = list(range(_B, points - 1, _B))
    for edge in sorted(set(edges[:3] + edges[-3:])):
        for i in [i for i in (edge - 1, edge, edge + 1) if i < points - 1]:
            # the level function is 1.1 + 0.6 |t - t_i| - r, up to rounding
            b0 = np.array([0.55, 0.55, 0.6 * t[i]])
            b1 = np.array([0.55, 0.55, 0.6 * t[i] - 0.6])
            low = float(np.abs(b0 + t[i] * (b1 - b0)).sum())
            yield (b0, b1, low - 0.5 * step), i, "touch"
            yield (b0, b1, low + 0.3 * step), i, "pair"
            yield (b0, b1, low), i, "zero"


@pytest.mark.parametrize("points", [_B + 2, 1_000, 10_000])
def test_batch_is_bit_identical_to_both_references_at_block_edges(points):
    planted = list(_block_edge_cases(points))
    t = np.linspace(0.0, 1.0, points)
    rows = _batch([case for case, _, _ in planted], points)
    for scanned, (case, i, kind) in zip(rows, planted):
        assert scanned == _loop_scan(*case, points)
        assert scanned == _axis_sum_scan(*case, points)
        if kind == "pair":
            assert len(scanned) == 2 and scanned[0] < t[i] < scanned[1]
        else:
            assert scanned == [t[i]]


def _rows_off_the_reference(cases, points):
    """How many rows of one batch scan differ from the axis-sum reference."""
    return sum(scanned != _axis_sum_scan(*case, points)
               for scanned, case in zip(_batch(cases, points), cases))


def test_a_prune_without_its_lipschitz_reach_breaks_bit_identity(monkeypatch):
    cases = _level_segments(np.random.default_rng(33), 500)
    assert _rows_off_the_reference(cases, 10_000) == 0

    def no_reach(delta, widths):
        return np.zeros((len(delta), len(widths)))

    monkeypatch.setattr(polytope, "_block_reach", no_reach)
    assert _rows_off_the_reference(cases, 10_000) > 0


def test_a_prune_without_the_neighbour_points_breaks_bit_identity(monkeypatch):
    # about 3 % of drawn segments put a reported point next to a block
    # edge; the planted block-edge cases all do
    cases = [case for case, _, _ in _block_edge_cases(10_000)]
    assert _rows_off_the_reference(cases, 10_000) == 0
    monkeypatch.setattr(polytope, "_SCAN_HALO", 0)
    assert _rows_off_the_reference(cases, 10_000) > 0


_SIGN_FLIPS = [np.array(s) for s in itertools.product([1.0, -1.0], repeat=3)]
_SIGNED_PERMUTATIONS = [
    (list(p), s) for p in itertools.permutations(range(3)) for s in _SIGN_FLIPS
]


def _moved(b, perm, signs):
    return signs * b[perm]


def test_scan_is_bit_identical_under_the_eight_sign_flips():
    for b0, b1, r in _level_segments(np.random.default_rng(30), 300):
        scanned = scan_polytope_crossings(b0, b1, r)
        for signs in _SIGN_FLIPS:
            flipped = (_moved(b, [0, 1, 2], signs) for b in (b0, b1))
            assert scan_polytope_crossings(*flipped, r) == scanned


def test_exact_crossings_are_invariant_under_the_48_signed_permutations():
    for b0, b1, r in _level_segments(np.random.default_rng(31), 100):
        ts = line_polytope_intersections(b0, b1, r)
        for perm, signs in _SIGNED_PERMUTATIONS:
            moved = line_polytope_intersections(
                _moved(b0, perm, signs), _moved(b1, perm, signs), r)
            assert len(moved) == len(ts)
            assert np.allclose(moved, ts, rtol=0.0, atol=1e-12)


def test_reversing_a_segment_maps_t_to_one_minus_t():
    for b0, b1, r in _level_segments(np.random.default_rng(32), 500):
        ts = line_polytope_intersections(b0, b1, r)
        back = line_polytope_intersections(b1, b0, r)
        assert len(back) == len(ts)
        assert np.allclose(back, [1.0 - t for t in reversed(ts)], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("points", [0, 1, -5, 2.0, 10_000.0, "10", None, True])
def test_scan_refuses_a_point_count_that_is_not_an_integer_of_at_least_two(points):
    a, b = np.array([S3, S3, S3]), np.array([-S3, -S3, -S3])
    with pytest.raises(InvalidInputError, match="points"):
        scan_polytope_crossings(a, b, 1.2, points)


@pytest.mark.parametrize("points", [2, np.int64(3), 10_000])
def test_scan_takes_any_integer_point_count_of_at_least_two(points):
    a, b = np.array([S3, S3, S3]), np.array([-S3, -S3, -S3])
    assert scan_polytope_crossings(a, b, 1.2, points) == _axis_sum_scan(a, b, 1.2, points)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 0.3, 0.0,
                               np.nextafter(1.0, 0.0)])
def test_scan_and_exact_solver_refuse_a_non_finite_or_sub_unit_level(r):
    a, b = np.array([S3, S3, S3]), np.array([-S3, -S3, -S3])
    for call in (scan_polytope_crossings, line_polytope_intersections):
        with pytest.raises(InvalidLevelError):
            call(a, b, r)
    with pytest.raises(InvalidLevelError):
        broadcast_geometry_certificate(a, b, a, b, r)


_BAD_ENDPOINTS = {
    "nan": ([math.nan, 0.0, 0.0], NotAStateError, "finite"),
    "inf": ([0.0, math.inf, 0.0], NotAStateError, "finite"),
    "-inf": ([0.0, 0.0, -math.inf], NotAStateError, "finite"),
    "huge": ([1e200, 0.0, 0.0], NotAStateError, "unit ball"),
    "outside": ([0.8, 0.8, 0.0], NotAStateError, "unit ball"),
    "shape-2": ([0.5, 0.5], InvalidDimensionError, "shape"),
    "shape-4": ([0.1, 0.1, 0.1, 0.1], InvalidDimensionError, "shape"),
    "shape-1x3": ([[0.5, 0.5, 0.5]], InvalidDimensionError, "shape"),
}
_POLYTOPE_CALLS = {
    "exact": lambda ends: line_polytope_intersections(ends[0], ends[1], 1.2),
    "scan": lambda ends: scan_polytope_crossings(ends[0], ends[1], 1.2),
    "certificate": lambda ends: broadcast_geometry_certificate(*ends, 1.2),
    # the bad endpoint in the second row
    "batch": lambda ends: scan_crossings_batch(ends[2::-2], ends[3::-2], [1.2, 1.2]),
}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("bad", _BAD_ENDPOINTS)
@pytest.mark.parametrize("call", _POLYTOPE_CALLS)
def test_every_polytope_function_refuses_a_bad_endpoint_by_name(call, bad, position):
    endpoint, error, words = _BAD_ENDPOINTS[bad]
    ends = [[S3, S3, S3], [-S3, -S3, -S3]] * 2
    ends[position] = endpoint
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=words):
            _POLYTOPE_CALLS[call](ends)


@pytest.mark.parametrize("b0,b1,r", [
    ([[S3, S3, S3]] * 2, [[-S3, -S3, -S3]], [1.2, 1.2]),
    ([[S3, S3, S3]], [[-S3, -S3, -S3]], [1.2, 1.2]),
    ([[S3, S3, S3]], [[-S3, -S3, -S3]], 1.2),
    ([[S3, S3, S3]], [[-S3, -S3, -S3]], [[1.2]]),
])
def test_batch_refuses_rows_that_do_not_line_up(b0, b1, r):
    with pytest.raises(InvalidInputError):
        scan_crossings_batch(b0, b1, r)


def test_batch_of_no_segments_is_empty():
    assert scan_crossings_batch(np.empty((0, 3)), np.empty((0, 3)), np.empty(0)) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: the scan's touch rule counts rounding noise on a "
    "flat piece within r*h above the level as touches",
)
def test_scan_reports_no_touch_on_a_flat_piece_above_the_level():
    # both endpoints lie in one orthant at level 1.3633450245493437, so the
    # level function is constant at +5.8e-5 along the segment: no crossing
    a0 = np.array([0.8017372734389248, -0.3480304252788534, 0.21357732583156538])
    a1 = np.array([0.08807472327570938, -0.5574887476498271, 0.7177815536238071])
    r = 1.3632865557384721
    assert line_polytope_intersections(a0, a1, r) == []
    assert scan_polytope_crossings(a0, a1, r, 10_000) == []


ball_coord = st.one_of(
    st.sampled_from([0.0, 0.5, -0.5, S3, -S3, 1.0, -1.0]),
    st.floats(-0.58, 0.58),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ball_coord, min_size=6, max_size=6),
    st.one_of(st.sampled_from([1.0, SQRT3]), st.floats(1.0, SQRT3)),
)
def test_at_most_two_roots_unless_a_piece_lies_on_the_surface(coords, r):
    m0, m1 = np.array(coords[:3]), np.array(coords[3:])
    assume(m0 @ m0 <= 1.0 and m1 @ m1 <= 1.0)
    ts = line_polytope_intersections(m0, m1, r)

    def level_gap(t):
        return np.abs((1.0 - t) * m0 + t * m1).sum() - r

    # the level function is convex along the segment, so a third root needs
    # a whole piece on the surface between two of the roots
    assert len(ts) <= 2 or any(
        abs(level_gap(0.5 * (a + b))) <= 1e-9 for a, b in zip(ts, ts[1:])
    )


def test_symmetric_reference_is_broadcastable():
    t_bloch = np.array([S3, S3, S3])
    cert = broadcast_geometry_certificate(
        t_bloch, np.array([-S3, -S3, -S3]),
        t_bloch, np.array([-S3, -S3, -S3]), 1.2,
    )
    assert cert.broadcastable
    assert cert.common_t
    assert cert.level == pytest.approx(1.2, abs=1e-12)


def test_interior_auxiliary_line_is_not_broadcastable():
    level = 1.4
    rng = np.random.default_rng(6)
    sys0 = _random_level_point(rng, level)
    sys1 = _random_level_point(rng, level)
    aux0 = _random_level_point(rng, level)
    aux1 = _random_level_point(rng, level)
    # choose r above every |m|-sum on the aux segment's interior minimum side
    cert = broadcast_geometry_certificate(sys0, sys1, aux0, aux1, level)
    # at r equal to the endpoint level, t=0 and t=1 are always crossings
    assert 0.0 in [round(t, 9) for t in cert.sys_t]


def test_certificate_requires_equal_endpoint_levels():
    with pytest.raises(InconsistentReferenceError):
        broadcast_geometry_certificate(
            np.array([S3, S3, S3]), np.array([1.0, 0.0, 0.0]),
            np.array([S3, S3, S3]), np.array([0.0, 1.0, 0.0]), 1.2,
        )


def test_certificate_json_schema():
    t_bloch = np.array([S3, S3, S3])
    cert = broadcast_geometry_certificate(
        t_bloch, np.array([-S3, -S3, -S3]),
        t_bloch, np.array([-S3, -S3, -S3]), 1.2,
    )
    payload = cert.to_json()
    assert payload["schema"] == 1
    assert payload["broadcastable"] is True
    assert isinstance(payload["common_t"], list)


@given(st.one_of(st.just(math.nan), st.floats(max_value=1.0, exclude_max=True)))
def test_every_level_check_rejects_nan_and_sub_unit_levels(r):
    a, b = np.array([S3, S3, S3]), np.array([-S3, -S3, -S3])
    with pytest.raises(InvalidLevelError):
        line_polytope_intersections(a, b, r)
    with pytest.raises(InvalidLevelError):
        broadcast_geometry_certificate(a, b, a, b, r)
