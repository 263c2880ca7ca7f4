"""Tests for the ray-cast map kernel, including the bricked-vs-reference
exact-equality invariant that validates the whole distributed design."""

import numpy as np
import pytest

from repro.render import (
    Camera,
    RenderConfig,
    composite_fragments,
    concat_fragments,
    default_tf,
    drop_placeholders,
    grayscale_tf,
    max_abs_diff,
    orbit_camera,
    psnr,
    raycast_brick,
    render_reference,
    trilinear_sample,
)
from repro.volume import BrickGrid, Volume, make_dataset


def render_bricked(volume, grid, camera, tf, config):
    """Ray cast every brick independently and composite the fragments."""
    parts, stats = [], []
    for b in grid:
        frags, st = raycast_brick(
            data=grid.extract(volume, b),
            data_lo=b.data_lo,
            core_lo=b.lo,
            core_hi=b.hi,
            volume_shape=volume.shape,
            camera=camera,
            tf=tf,
            config=config,
        )
        parts.append(frags)
        stats.append(st)
    frags = concat_fragments(parts)
    flat = composite_fragments(drop_placeholders(frags), camera.pixel_count)
    return flat.reshape(camera.height, camera.width, 4), frags, stats


# -- trilinear sampling -----------------------------------------------------
def test_trilinear_exact_at_voxel_centers():
    data = np.arange(27, dtype=np.float32).reshape(3, 3, 3)
    pos = np.array([[1.5, 1.5, 1.5], [0.5, 0.5, 0.5], [2.5, 2.5, 2.5]])
    got = trilinear_sample(data, pos)
    assert got[0] == pytest.approx(data[1, 1, 1])
    assert got[1] == pytest.approx(data[0, 0, 0])
    assert got[2] == pytest.approx(data[2, 2, 2])


def test_trilinear_midpoint_average():
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[1] = 1.0  # value depends only on x
    got = trilinear_sample(data, np.array([[1.0, 1.0, 1.0]]))
    assert got[0] == pytest.approx(0.5)


def test_trilinear_clamps_at_edges():
    data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    got = trilinear_sample(data, np.array([[-5.0, -5.0, -5.0], [9.0, 9.0, 9.0]]))
    assert got[0] == pytest.approx(data[0, 0, 0])
    assert got[1] == pytest.approx(data[1, 1, 1])


def test_trilinear_linear_along_axis():
    data = np.zeros((4, 2, 2), dtype=np.float32)
    data[:, :, :] = np.arange(4, dtype=np.float32)[:, None, None]
    xs = np.linspace(0.5, 3.5, 13)
    pos = np.stack([xs, np.full_like(xs, 1.0), np.full_like(xs, 1.0)], axis=1)
    got = trilinear_sample(data, pos)
    assert np.allclose(got, xs - 0.5, atol=1e-6)


# -- render config ------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(dt=0.0)
    with pytest.raises(ValueError):
        RenderConfig(ert_alpha=0.0)
    with pytest.raises(ValueError):
        RenderConfig(alpha_eps=-1.0)


# -- kernel basics --------------------------------------------------------------
def test_empty_volume_emits_nothing():
    v = Volume(np.zeros((16, 16, 16), np.float32))
    cam = orbit_camera(v.shape, width=32, height=32)
    frags, stats = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, grayscale_tf()
    )
    assert len(frags) == 0
    assert stats.n_kept == 0
    assert stats.n_samples > 0  # rays marched but found nothing


def test_uniform_volume_covers_projection():
    v = Volume(np.full((16, 16, 16), 0.8, np.float32))
    cam = orbit_camera(v.shape, width=32, height=32)
    frags, stats = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, grayscale_tf()
    )
    assert len(frags) > 0
    assert stats.n_kept == len(frags)
    assert np.all(frags["a"] > 0)
    # Keys must be valid pixel indices.
    assert frags["pixel"].min() >= 0
    assert frags["pixel"].max() < cam.pixel_count


def test_placeholder_emission_mode():
    """Paper restriction: every GPU thread emits a key-value pair."""
    v = Volume(np.zeros((16, 16, 16), np.float32))
    v.data[4:12, 4:12, 4:12] = 0.9
    cam = orbit_camera(v.shape, width=32, height=32)
    cfg = RenderConfig(emit_placeholders=True)
    frags, stats = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, grayscale_tf(), cfg
    )
    assert len(frags) == stats.n_rays  # one emission per thread
    real = drop_placeholders(frags)
    assert len(real) == stats.n_kept
    assert 0 < len(real) < len(frags)


def test_depth_is_entry_distance():
    v = Volume(np.full((16, 16, 16), 0.9, np.float32))
    cam = Camera(eye=(8.0, -50.0, 8.0), center=(8.0, 8.0, 8.0), width=16, height=16)
    frags, _ = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, grayscale_tf()
    )
    # Entry into y=0 plane from y=-50 is ~50 units for central rays.
    center = frags[np.abs(frags["depth"] - 50.0) < 2.0]
    assert len(center) > 0


def test_early_termination_reduces_samples():
    v = Volume(np.full((32, 32, 32), 1.0, np.float32))
    cam = orbit_camera(v.shape, width=32, height=32)
    tf = grayscale_tf(max_alpha=0.99)
    _, ert = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, tf,
        RenderConfig(ert_alpha=0.9),
    )
    _, full = raycast_brick(
        v.data, (0, 0, 0), (0, 0, 0), v.shape, v.shape, cam, tf,
        RenderConfig(ert_alpha=1.0),
    )
    assert ert.n_samples < full.n_samples


# -- THE invariant: bricked == reference ------------------------------------
@pytest.mark.parametrize("brick_size", [8, 10, 16])
@pytest.mark.parametrize("dataset", ["skull", "supernova"])
def test_bricked_render_equals_reference(dataset, brick_size):
    """Union of per-brick fragments composites to the single-pass image."""
    v = make_dataset(dataset, (24, 24, 24))
    cam = orbit_camera(v.shape, azimuth_deg=35, elevation_deg=25, width=48, height=48)
    tf = default_tf()
    cfg = RenderConfig(dt=0.7, ert_alpha=1.0)  # ERT off for exactness
    ref = render_reference(v, cam, tf, cfg)
    grid = BrickGrid(v.shape, brick_size, ghost=1)
    img, _, _ = render_bricked(v, grid, cam, tf, cfg)
    assert max_abs_diff(img, ref.image) < 1e-4


def test_bricked_render_anisotropic_volume_and_bricks():
    v = make_dataset("plume", (16, 16, 40))
    cam = orbit_camera(v.shape, azimuth_deg=60, elevation_deg=10, width=40, height=40)
    tf = default_tf()
    cfg = RenderConfig(dt=0.5, ert_alpha=1.0)
    ref = render_reference(v, cam, tf, cfg)
    grid = BrickGrid(v.shape, (8, 16, 13), ghost=1)
    img, _, _ = render_bricked(v, grid, cam, tf, cfg)
    assert max_abs_diff(img, ref.image) < 1e-4


def test_bricked_render_with_ert_close_to_reference():
    """With ERT on, the bricked image differs only within (1−ert_alpha)."""
    v = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(v.shape, width=48, height=48)
    tf = default_tf()
    cfg = RenderConfig(dt=0.7, ert_alpha=0.98)
    ref = render_reference(v, cam, tf, cfg)
    grid = BrickGrid(v.shape, 12, ghost=1)
    img, _, _ = render_bricked(v, grid, cam, tf, cfg)
    assert psnr(img, ref.image) > 35.0


def test_view_angle_sweep_stays_consistent():
    """The invariant holds across camera angles (catches ownership bugs)."""
    v = make_dataset("skull", (20, 20, 20))
    tf = default_tf()
    cfg = RenderConfig(dt=0.9, ert_alpha=1.0)
    grid = BrickGrid(v.shape, 10, ghost=1)
    for az, el in [(0, 0), (90, 0), (45, 45), (180, -30), (270, 80)]:
        cam = orbit_camera(v.shape, azimuth_deg=az, elevation_deg=el, width=32, height=32)
        ref = render_reference(v, cam, tf, cfg)
        img, _, _ = render_bricked(v, grid, cam, tf, cfg)
        assert max_abs_diff(img, ref.image) < 1e-4, f"az={az} el={el}"


@pytest.mark.parametrize("size", [31, 33, 35])
def test_rays_in_a_shared_brick_face_are_marched_once(size):
    """An odd image puts its middle pixel row and column exactly in the
    eye's y and z planes, so those rays have zero direction components
    and travel inside the faces brick boundaries share at 16.  Each must
    be owned by one brick (half-open ``lo <= eye < hi``), so the 8-GPU
    frame takes exactly the single-brick frame's samples."""
    from repro import MapReduceVolumeRenderer

    vol = make_dataset("skull", (32, 32, 32))
    cam = Camera(eye=(-40, 16, 16), center=(16, 16, 16), width=size, height=size)
    out = {}
    for cluster in (1, 8):
        with MapReduceVolumeRenderer(
            volume=vol,
            cluster=cluster,
            render_config=RenderConfig(dt=0.5, ert_alpha=1.0),
            accel="off",
        ) as r:
            res = r.render(cam, mode="exec")
        out[cluster] = (res.image, res.stats.as_dict()["n_samples"])
    assert out[8][1] == out[1][1]
    assert max_abs_diff(out[8][0], out[1][0]) < 1e-6


def test_fragment_counts_scale_with_brick_count():
    """More bricks → more fragments for the same image (the paper's
    O(X) lower / O(BX) upper bound intuition)."""
    v = make_dataset("supernova", (24, 24, 24))
    cam = orbit_camera(v.shape, width=48, height=48)
    tf = default_tf()
    cfg = RenderConfig(dt=0.7, ert_alpha=1.0)
    counts = {}
    for bs in (24, 12, 6):
        grid = BrickGrid(v.shape, bs, ghost=1)
        _, frags, _ = render_bricked(v, grid, cam, tf, cfg)
        counts[bs] = len(frags)
    assert counts[24] <= counts[12] <= counts[6]
    assert counts[6] > counts[24]


def test_reference_stats_populated():
    v = make_dataset("skull", (16, 16, 16))
    cam = orbit_camera(v.shape, width=32, height=32)
    ref = render_reference(v, cam, default_tf())
    assert ref.stats.n_rays >= ref.stats.n_active_rays > 0
    assert ref.stats.n_samples > 0
    assert ref.image.shape == (32, 32, 4)
