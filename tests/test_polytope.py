import math

import numpy as np
import pytest
from hypothesis import given, settings
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
