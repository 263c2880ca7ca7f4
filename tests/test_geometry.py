"""Tests for ray-box intersection and half-open containment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import box_contains, ray_box_intersect
from repro.render.geometry import dual_box_intersect_f32

BOX_LO = np.array([0.0, 0.0, 0.0])
BOX_HI = np.array([10.0, 10.0, 10.0])


def single(o, d, lo=BOX_LO, hi=BOX_HI):
    tn, tf, hit = ray_box_intersect(np.array([o]), np.array([d]), lo, hi)
    return tn[0], tf[0], hit[0]


def test_axis_ray_hits():
    tn, tf, hit = single([-5, 5, 5], [1, 0, 0])
    assert hit
    assert tn == pytest.approx(5.0)
    assert tf == pytest.approx(15.0)


def test_miss_parallel_outside():
    _, _, hit = single([-5, 20, 5], [1, 0, 0])
    assert not hit


def test_ray_starting_inside_enters_at_zero():
    tn, tf, hit = single([5, 5, 5], [0, 0, 1])
    assert hit
    assert tn == 0.0
    assert tf == pytest.approx(5.0)


def test_ray_pointing_away_misses():
    _, _, hit = single([-5, 5, 5], [-1, 0, 0])
    assert not hit


def test_diagonal_ray():
    tn, tf, hit = single([-1, -1, -1], [1, 1, 1])
    assert hit
    assert tn == pytest.approx(1.0)
    assert tf == pytest.approx(11.0)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        single([0, 0, 0], [1, 0, 0], lo=np.array([1.0, 0, 0]), hi=np.array([1.0, 1, 1]))


def test_shape_validation():
    with pytest.raises(ValueError):
        ray_box_intersect(np.zeros((2, 2)), np.zeros((2, 2)), BOX_LO, BOX_HI)
    with pytest.raises(ValueError):
        ray_box_intersect(np.zeros((2, 3)), np.zeros((3, 3)), BOX_LO, BOX_HI)


@given(
    ox=st.floats(-20, 30),
    oy=st.floats(-20, 30),
    oz=st.floats(-20, 30),
    dx=st.floats(-1, 1),
    dy=st.floats(-1, 1),
    dz=st.floats(-1, 1),
)
@settings(max_examples=200, deadline=None)
def test_intersection_points_lie_in_box(ox, oy, oz, dx, dy, dz):
    """If hit, the entry and exit points must lie on/in the box (hypothesis)."""
    d = np.array([dx, dy, dz])
    if np.linalg.norm(d) < 1e-6:
        return
    o = np.array([ox, oy, oz])
    tn, tf, hit = single(o, d)
    if not hit:
        return
    assert tn <= tf
    eps = 1e-6 * max(1.0, abs(tn), abs(tf)) + 1e-9
    for t in (tn, tf):
        p = o + t * d
        assert np.all(p >= BOX_LO - 1e-6 - eps * np.abs(d).max())
        assert np.all(p <= BOX_HI + 1e-6 + eps * np.abs(d).max())
    # The midpoint of the clipped segment must be interior.
    mid = o + 0.5 * (tn + tf) * d
    assert np.all(mid >= BOX_LO - 1e-6)
    assert np.all(mid <= BOX_HI + 1e-6)


@given(
    px=st.floats(-5, 15), py=st.floats(-5, 15), pz=st.floats(-5, 15)
)
@settings(max_examples=100, deadline=None)
def test_box_contains_half_open(px, py, pz):
    p = np.array([px, py, pz])
    inside = box_contains(p, BOX_LO, BOX_HI)
    manual = all(BOX_LO[i] <= p[i] < BOX_HI[i] for i in range(3))
    assert bool(inside) == manual


def test_box_contains_face_ownership():
    """A point on a shared face belongs only to the higher box."""
    lo_a, hi_a = np.zeros(3), np.array([5.0, 10.0, 10.0])
    lo_b, hi_b = np.array([5.0, 0.0, 0.0]), np.array([10.0, 10.0, 10.0])
    p = np.array([5.0, 3.0, 3.0])
    assert not box_contains(p, lo_a, hi_a)
    assert box_contains(p, lo_b, hi_b)


def test_box_contains_vectorised():
    pts = np.array([[1, 1, 1], [10, 5, 5], [9.999, 9.999, 9.999], [-0.1, 5, 5]])
    got = box_contains(pts, BOX_LO, BOX_HI)
    assert got.tolist() == [True, False, True, False]


def test_dual_box_parallel_ray_in_shared_face_has_one_owner():
    """A ray with zero x direction lying in the x = 5 face of two adjacent
    boxes is inside only the box whose half-open range holds the eye."""
    eye = np.array([5.0, -3.0, 4.0])
    dirs = np.array([[0.0, 1.0, 0.0], [0.6, 0.8, 0.0]], np.float32)
    lo_a, hi_a = np.zeros(3), np.array([5.0, 10.0, 10.0])
    lo_b, hi_b = np.array([5.0, 0.0, 0.0]), np.array([10.0, 10.0, 10.0])
    out = dual_box_intersect_f32(eye, dirs, lo_a, hi_a, lo_b, hi_b)
    tn_a, tf_a, hit_a, tn_b, tf_b, hit_b = out
    assert not hit_a[0] and hit_b[0]
    assert tn_b[0] == 3.0 and tf_b[0] == 13.0
    for arr in (tn_a, tf_a, tn_b, tf_b):
        assert arr.dtype == np.float32


@given(
    ox=st.floats(-20, 30),
    oy=st.floats(-20, 30),
    oz=st.floats(-20, 30),
)
@settings(max_examples=50, deadline=None)
def test_dual_box_equals_rowwise_slab_reduction(ox, oy, oz):
    """The per-axis column passes are bitwise the textbook (N, 3)
    row-wise min/max reduction (elementwise max/min is exact)."""
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(64, 3)).astype(np.float32)
    eye = np.array([ox, oy, oz], np.float32)
    lo_b, hi_b = np.array([2.0, 0.0, 3.0]), np.array([7.0, 4.0, 9.0])
    out = dual_box_intersect_f32(eye, dirs, BOX_LO, BOX_HI, lo_b, hi_b)
    inv = np.float32(1.0) / dirs
    for k, (lo, hi) in enumerate([(BOX_LO, BOX_HI), (lo_b, hi_b)]):
        t1 = (lo.astype(np.float32) - eye)[None, :] * inv
        t2 = (hi.astype(np.float32) - eye)[None, :] * inv
        tn = np.minimum(t1, t2).max(axis=1)
        tf = np.maximum(t1, t2).min(axis=1)
        hit = (tf >= tn) & (tf >= 0.0)
        tn = np.maximum(tn, np.float32(0.0))
        assert np.array_equal(out[3 * k], tn)
        assert np.array_equal(out[3 * k + 1], tf)
        assert np.array_equal(out[3 * k + 2], hit)
