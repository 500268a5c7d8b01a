import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicbroadcast.errors import InconsistentReferenceError, InvalidLevelError
from magicbroadcast.polytope import (
    broadcast_geometry_certificate,
    line_polytope_intersections,
    polytope_membership,
    scan_polytope_crossings,
)
from magicbroadcast.states import BlochVector

S3 = 1.0 / math.sqrt(3.0)
SQRT3 = math.sqrt(3.0)


def test_membership_classification():
    assert polytope_membership(BlochVector(0.1, 0.1, 0.1), 1.0) == "inside"
    assert polytope_membership(BlochVector(0.5, 0.5, 0.0), 1.0) == "on-surface"
    assert polytope_membership(BlochVector(S3, S3, S3), 1.0) == "outside"


def test_membership_rejects_sub_unit_level():
    with pytest.raises(InvalidLevelError):
        polytope_membership(BlochVector(0.0, 0.0, 0.0), 0.5)


def test_radial_line_crossing():
    # |m|-sum grows linearly from 0 to sqrt(3) along this radius
    ts = line_polytope_intersections(
        BlochVector(0.0, 0.0, 0.0), BlochVector(S3, S3, S3), 1.2
    )
    assert ts == pytest.approx([1.2 / math.sqrt(3.0)], abs=1e-12)


def test_diameter_produces_two_crossings():
    ts = line_polytope_intersections(
        BlochVector(S3, S3, S3), BlochVector(-S3, -S3, -S3), 1.2
    )
    u = 1.2 / math.sqrt(3.0)
    assert len(ts) == 2
    assert ts == pytest.approx([(1 - u) / 2, (1 + u) / 2], abs=1e-12)


def test_segment_flat_on_surface_reports_endpoints():
    # both endpoints and the whole segment lie on the level-1 surface
    ts = line_polytope_intersections(
        BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 1.0, 0.0), 1.0
    )
    assert ts[0] == pytest.approx(0.0, abs=1e-12)
    assert ts[-1] == pytest.approx(1.0, abs=1e-12)


def _random_level_point(rng, level):
    while True:
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        m = w * (level / np.abs(w).sum())
        if m @ m <= 1.0:
            return BlochVector(*m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_crossings_match_dense_scan(seed):
    rng = np.random.default_rng(seed)
    b0 = BlochVector(*(rng.uniform(-0.55, 0.55, 3)))
    b1 = BlochVector(*(rng.uniform(-0.55, 0.55, 3)))
    r = rng.uniform(1.0, 1.5)
    exact = line_polytope_intersections(b0, b1, r)
    scan = scan_polytope_crossings(b0, b1, r, 20_000)
    resolution = 2.0 / 19_999
    for t in scan:
        assert min((abs(t - e) for e in exact), default=np.inf) <= resolution


def _loop_scan(b0, b1, r, points=10_000):
    """Reference: the dense scan written as the per-cell loop, kept verbatim."""
    start = b0.as_array()
    delta = b1.as_array() - start
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
            b0, b1 = (BlochVector(*rng.uniform(-0.55, 0.55, 3)) for _ in range(2))
            r = rng.uniform(1.0, 1.5)
        elif kind == 2:     # an endpoint exactly on the level
            b0, b1 = (_random_level_point(rng, rng.uniform(1.0, SQRT3))
                      for _ in range(2))
            start = b0.as_array()
            end = start + 1.0 * (b1.as_array() - start)
            r = float(np.abs(start if i % 12 < 6 else end).sum())
        elif kind == 3:     # a whole piece on the level-1 surface
            b0, b1 = BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 1.0, 0.0)
            r = 1.0
        elif kind == 4:     # between two maximal-magic points at r = sqrt(3)
            signs = rng.choice([-1.0, 1.0], (2, 3))
            b0, b1 = BlochVector(*(S3 * signs[0])), BlochVector(*(S3 * signs[1]))
            r = SQRT3
        else:               # a tangent touch near t = 1/2: min level 1
            b0, b1 = BlochVector(0.5, 0.5, 0.4), BlochVector(0.5, 0.5, -0.4)
            r = 1.0 + rng.uniform(-2e-4, 2e-4)
        points = 10_000 if i < 120 else int(rng.choice([2, 3, 7, 64, 257, 1000]))
        yield b0, b1, r, points


def test_scan_is_bit_identical_to_the_cell_loop():
    cases = list(_scan_cases(np.random.default_rng(2024), 2_400))
    touched = ended = 0
    for b0, b1, r, points in cases:
        scanned = scan_polytope_crossings(b0, b1, r, points)
        assert scanned == _loop_scan(b0, b1, r, points)
        assert all(type(t) is float for t in scanned)
        touched += len(scanned) == 1 and 0.4 < scanned[0] < 0.6
        ended += scanned[-1:] == [1.0]
    assert touched and ended    # the tangent rule and the end point both fired


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
    ts = line_polytope_intersections(BlochVector(*m0), BlochVector(*m1), r)

    def level_gap(t):
        return np.abs((1.0 - t) * m0 + t * m1).sum() - r

    # the level function is convex along the segment, so a third root needs
    # a whole piece on the surface between two of the roots
    assert len(ts) <= 2 or any(
        abs(level_gap(0.5 * (a + b))) <= 1e-9 for a, b in zip(ts, ts[1:])
    )


def test_symmetric_reference_is_broadcastable():
    t_bloch = BlochVector(S3, S3, S3)
    cert = broadcast_geometry_certificate(
        t_bloch, BlochVector(-S3, -S3, -S3),
        t_bloch, BlochVector(-S3, -S3, -S3), 1.2,
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
            BlochVector(S3, S3, S3), BlochVector(1.0, 0.0, 0.0),
            BlochVector(S3, S3, S3), BlochVector(0.0, 1.0, 0.0), 1.2,
        )


def test_certificate_json_schema():
    t_bloch = BlochVector(S3, S3, S3)
    cert = broadcast_geometry_certificate(
        t_bloch, BlochVector(-S3, -S3, -S3),
        t_bloch, BlochVector(-S3, -S3, -S3), 1.2,
    )
    payload = cert.to_json()
    assert payload["schema"] == 1
    assert payload["broadcastable"] is True
    assert isinstance(payload["common_t"], list)


@given(st.one_of(st.just(math.nan), st.floats(max_value=1.0, exclude_max=True)))
def test_every_level_check_rejects_nan_and_sub_unit_levels(r):
    a, b = BlochVector(S3, S3, S3), BlochVector(-S3, -S3, -S3)
    with pytest.raises(InvalidLevelError):
        polytope_membership(a, r)
    with pytest.raises(InvalidLevelError):
        line_polytope_intersections(a, b, r)
    with pytest.raises(InvalidLevelError):
        broadcast_geometry_certificate(a, b, a, b, r)
