"""Conformance & invariants suite for the macro-cell empty-space grid.

The macro grid (``RenderConfig(accel="grid")``) carves whole transparent
sample spans out of each ray *before* the blocked march.  Its contract
is brutal on purpose: the accelerated kernel must be **bitwise
identical** to ``accel="off"`` — fragment keys, depths, colours, and
every :class:`MapStats` counter — because the golden-image layer pins
all of them.  This suite drives that equivalence across randomized
volumes (sparse blobs, shells, dense noise, all-empty), transfer
functions (leading-zero ramps, no-leading-zero, all-opaque,
identically-zero alpha, interior zero runs, tiny tables), cameras, step
sizes, block sizes, macro-cell sizes, and ghost-padded bricks.  The carve
classifies each ray's block windows (cut to at most one cell long) by the
bounding box of cells their samples cross, so block size, step and cell
size together set how finely it carves.

It also checks the classifier's invariant directly: no cell may be
marked empty if any sample position attributed to it can produce
non-zero alpha under the kernel's own arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.parallel import SharedMemoryPoolExecutor
from repro.render import (
    RenderConfig,
    TransferFunction1D,
    default_tf,
    grayscale_tf,
    raycast_brick,
)
from repro.render.accel import NO_GRID, build_macro_grid, is_no_grid
from repro.render.raycast import _alpha_zero_threshold, _macro_grid_spans
from repro.volume import BrickGrid, Volume
from repro.volume.occupancy import macro_cell_dims, macro_cell_minmax

F32 = np.float32


# -- scenario generators ------------------------------------------------------
def _ramp_tf(alphas):
    a = np.asarray(alphas, np.float32)
    table = np.stack([a * 0 + 0.5, a * 0 + 0.25, a * 0 + 0.75, a], axis=1)
    return TransferFunction1D(table)


def random_tf(rng):
    """Random transfer function spanning every zero-alpha edge case."""
    kind = rng.choice(
        [
            "default",
            "grayscale",
            "leading_zero",
            "no_leading_zero",
            "all_opaque",
            "all_zero",
            "interior_zero",
            "tiny",
        ]
    )
    if kind == "default":
        return default_tf()
    if kind == "grayscale":
        return grayscale_tf()
    n = int(rng.integers(8, 64))
    if kind == "leading_zero":
        z = int(rng.integers(1, n - 1))
        a = np.r_[np.zeros(z), rng.uniform(0.05, 1.0, n - z)]
    elif kind == "no_leading_zero":
        a = rng.uniform(0.05, 1.0, n)
    elif kind == "all_opaque":
        a = rng.uniform(0.5, 1.0, n)
    elif kind == "all_zero":
        a = np.zeros(n)
    elif kind == "interior_zero":
        z0 = int(rng.integers(1, n // 2))
        z1 = int(rng.integers(z0 + 1, n - 1))
        a = rng.uniform(0.05, 1.0, n)
        a[:z0] = 0.0  # leading run
        a[z0 + 1 : z1] = 0.0  # interior run the kernel must NOT carve
    else:  # tiny
        a = np.r_[0.0, rng.uniform(0.1, 1.0, 3)]
    return _ramp_tf(a)


def random_volume(rng):
    """Random volume spanning sparse / shell / dense / empty layouts."""
    shape = tuple(int(rng.integers(8, 24)) for _ in range(3))
    kind = rng.choice(["blob", "shell", "dense", "empty", "two_blobs"])
    data = np.zeros(shape, np.float32)
    if kind == "dense":
        data = rng.uniform(0.0, 1.0, shape).astype(np.float32)
    elif kind == "blob":
        lo = [int(rng.integers(0, s // 2)) for s in shape]
        hi = [int(rng.integers(l + 2, s + 1)) for l, s in zip(lo, shape)]
        data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = rng.uniform(
            0.1, 1.0, tuple(h - l for l, h in zip(lo, hi))
        ).astype(np.float32)
    elif kind == "two_blobs":
        for _ in range(2):
            lo = [int(rng.integers(0, max(1, s - 4))) for s in shape]
            hi = [min(s, l + int(rng.integers(2, 6))) for l, s in zip(lo, shape)]
            data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = rng.uniform(
                0.1, 1.0, tuple(h - l for l, h in zip(lo, hi))
            ).astype(np.float32)
    elif kind == "shell":
        t = max(1, min(shape) // 6)
        data[:] = rng.uniform(0.2, 1.0, shape).astype(np.float32)
        data[t:-t, t:-t, t:-t] = 0.0
    return Volume(data)


def random_config(rng, accel, cell):
    return RenderConfig(
        dt=float(rng.choice([0.35, 0.5, 0.8, 1.0, 1.45])),
        ert_alpha=float(rng.choice([1.0, 0.95, 0.9])),
        block_size=int(rng.choice([1, 3, 8, 32])),
        emit_placeholders=bool(rng.integers(0, 2)),
        accel=accel,
        macro_cell_size=cell,
    )


def assert_bitwise_conformance(vol, brick, cam, tf, rng, cell):
    """accel="grid" must equal accel="off" (and "table") bit for bit."""
    data = (
        vol.region(brick.data_lo, brick.data_hi) if brick is not None else vol.data
    )
    data_lo = brick.data_lo if brick is not None else (0, 0, 0)
    core_lo = brick.lo if brick is not None else (0, 0, 0)
    core_hi = brick.hi if brick is not None else vol.shape
    state = rng.bit_generator.state
    results = {}
    for accel in ("off", "table", "grid"):
        rng.bit_generator.state = state  # same draw for every mode
        cfg = random_config(rng, accel, cell)
        results[accel] = raycast_brick(
            data, data_lo, core_lo, core_hi, vol.shape, cam, tf, cfg
        )
    frags_off, stats_off = results["off"]
    for accel in ("table", "grid"):
        frags, stats = results[accel]
        assert frags.dtype == frags_off.dtype
        assert np.array_equal(frags, frags_off), f"accel={accel} diverged"
        assert stats == stats_off, f"accel={accel} stats diverged"


# -- randomized conformance (tier-1 subset + slow matrix) ---------------------
@pytest.mark.parametrize("seed", range(8))
def test_grid_conformance_randomized(seed):
    rng = np.random.default_rng(1000 + seed)
    vol = random_volume(rng)
    tf = random_tf(rng)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=float(rng.uniform(0, 360)),
        elevation_deg=float(rng.uniform(-75, 75)),
        width=28,
        height=28,
    )
    cell = int(rng.choice([1, 2, 4, 8, 32]))
    assert_bitwise_conformance(vol, None, cam, tf, rng, cell)


@pytest.mark.parametrize("seed", range(6))
def test_grid_conformance_random_bricks(seed):
    """Ghost-padded bricks: clamped edge cells and interior no-clamp paths."""
    rng = np.random.default_rng(2000 + seed)
    vol = random_volume(rng)
    edge = int(rng.integers(5, max(6, min(vol.shape))))
    grid = BrickGrid(vol.shape, edge, ghost=1)
    brick = grid.brick(int(rng.integers(0, len(list(grid)))))
    tf = random_tf(rng)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=float(rng.uniform(0, 360)),
        elevation_deg=float(rng.uniform(-60, 60)),
        width=24,
        height=24,
    )
    cell = int(rng.choice([2, 4, 8]))
    assert_bitwise_conformance(vol, brick, cam, tf, rng, cell)


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_grid_conformance_hypothesis(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vol = random_volume(rng)
    brick = None
    if data.draw(st.booleans()):
        grid = BrickGrid(vol.shape, data.draw(st.sampled_from([5, 7, 10])), ghost=1)
        brick = grid.brick(
            data.draw(st.integers(0, len(list(grid)) - 1))
        )
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=data.draw(st.floats(0, 360)),
        elevation_deg=data.draw(st.floats(-80, 80)),
        width=24,
        height=24,
    )
    cell = data.draw(st.sampled_from([1, 2, 3, 4, 8, 16, 64]))
    assert_bitwise_conformance(vol, brick, cam, random_tf(rng), rng, cell)


def test_grid_conformance_axis_aligned_camera():
    """Zero direction components: constant-coordinate rays in the slab
    test and in the carve's per-axis cell boxes."""
    rng = np.random.default_rng(9)
    data = np.zeros((16, 16, 16), np.float32)
    data[2:7, 2:7, 2:7] = rng.uniform(0.3, 1.0, (5, 5, 5)).astype(np.float32)
    vol = Volume(data)
    for az, el in [(0.0, 0.0), (90.0, 0.0), (0.0, 89.9), (180.0, 0.0)]:
        cam = orbit_camera(vol.shape, azimuth_deg=az, elevation_deg=el,
                           width=20, height=20)
        for cell in (4, 8):
            assert_bitwise_conformance(vol, None, cam, default_tf(), rng, cell)


def test_grid_conformance_sparse_and_scattered_blobs():
    """A single blob (few occupied cells) and many scattered blobs (many
    occupied cells, rays crossing several occupied/empty alternations)
    must both conform."""
    rng = np.random.default_rng(21)
    blob = np.zeros((32, 32, 32), np.float32)
    blob[10:22, 10:22, 10:22] = rng.uniform(0.2, 1.0, (12, 12, 12)).astype(F32)
    multi = np.zeros((32, 32, 32), np.float32)
    for _ in range(10):
        lo = rng.integers(0, 27, 3)
        multi[lo[0]:lo[0]+5, lo[1]:lo[1]+5, lo[2]:lo[2]+5] = rng.uniform(
            0.2, 1.0, (5, 5, 5)
        ).astype(F32)
    tf = default_tf()
    for data, cell in [(blob, 8), (multi, 4)]:
        occ = build_macro_grid(data, tf, cell)
        assert not is_no_grid(occ)
        cam = orbit_camera((32, 32, 32), azimuth_deg=33, elevation_deg=18,
                           width=40, height=40)
        assert_bitwise_conformance(Volume(data), None, cam, tf, rng, cell)


# -- classifier invariants ----------------------------------------------------
def test_macro_cell_minmax_bounds_padded_support():
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 1, (13, 9, 17)).astype(np.float32)
    cs = 4
    mins, maxs = macro_cell_minmax(data, cs, pad=1)
    assert mins.shape == maxs.shape == macro_cell_dims(data.shape, cs)
    for ci in np.ndindex(mins.shape):
        sl = tuple(
            slice(max(0, c * cs - 1), min(n, (c + 1) * cs + 2))
            for c, n in zip(ci, data.shape)
        )
        assert mins[ci] == data[sl].min()
        assert maxs[ci] == data[sl].max()


@pytest.mark.parametrize("seed", range(6))
def test_no_empty_cell_can_produce_alpha(seed):
    """The classifier's proof obligation, checked sample-by-sample: any
    position whose (clamped) trilinear base falls inside a cell marked
    empty must interpolate a value the kernel's own float32 filter
    drops (u <= u_thr) — i.e. its alpha is exactly zero."""
    rng = np.random.default_rng(3000 + seed)
    data = random_volume(rng).data
    tf = random_tf(rng)
    cs = int(rng.choice([2, 3, 4, 8]))
    occ = build_macro_grid(data, tf, cs)
    if is_no_grid(occ):
        return  # nothing is ever skipped: vacuously safe
    u_thr = _alpha_zero_threshold(tf)
    empty = np.nonzero(~occ)
    if len(empty[0]) == 0:
        return
    nx, ny, nz = data.shape
    from repro.render.raycast import _trilinear_flat

    for ci, cj, ck in list(zip(*empty))[:20]:
        # random positions whose base index lies inside the cell
        m = 64
        cx = rng.uniform(ci * cs, min((ci + 1) * cs, nx - 1), m).astype(F32)
        cy = rng.uniform(cj * cs, min((cj + 1) * cs, ny - 1), m).astype(F32)
        cz = rng.uniform(ck * cs, min((ck + 1) * cs, nz - 1), m).astype(F32)
        vals = _trilinear_flat(
            np.ascontiguousarray(data).ravel(), data.shape, cx, cy, cz
        )
        u = tf.table_coord(vals)
        assert np.all(u <= F32(u_thr)), (ci, cj, ck)
        rgba = tf.lookup(vals)
        assert np.all(rgba[:, 3] == 0.0), (ci, cj, ck)


def test_interior_zero_alpha_cells_stay_occupied():
    """Cells whose range maps into an *interior* zero-alpha run must NOT
    be carved: the unaccelerated kernel marches those samples (their
    alpha is zero but they occupy scan slots), so carving them would
    shift float association.  Classification may only use the leading
    run."""
    a = np.zeros(32, np.float32)
    a[8:16] = 0.5  # visible band
    # 16.. stays zero: interior-adjacent trailing zero run
    tf = _ramp_tf(a)
    data = np.full((8, 8, 8), 0.9, np.float32)  # maps into trailing zeros
    occ = build_macro_grid(data, tf, 4)
    assert is_no_grid(occ) or occ.all()


def test_all_zero_alpha_tf_carves_everything():
    tf = _ramp_tf(np.zeros(16, np.float32))
    data = np.random.default_rng(0).uniform(0, 1, (12, 12, 12)).astype(F32)
    occ = build_macro_grid(data, tf, 4)
    assert not is_no_grid(occ) and not occ.any()


def test_no_leading_zero_and_opaque_tfs_yield_sentinel():
    rng = np.random.default_rng(1)
    data = rng.uniform(0, 1, (12, 12, 12)).astype(np.float32)
    for tf in (_ramp_tf(rng.uniform(0.05, 1.0, 16)),
               _ramp_tf(rng.uniform(0.5, 1.0, 8))):
        assert is_no_grid(build_macro_grid(data, tf, 4))
    # dense data under a leading-zero tf: every cell occupied → sentinel
    dense = np.full((12, 12, 12), 0.9, np.float32)
    assert is_no_grid(build_macro_grid(dense, default_tf(), 4))
    assert is_no_grid(NO_GRID)


def test_span_carve_is_conservative_per_sample():
    """Every sample the span carve drops would also be dropped by the
    kernel's exact per-sample filter — checked directly against the
    march's own position arithmetic, at every block width: one
    sample per window, windows shorter than a cell, and windows whose
    ``(K−1)·dt`` reaches past a whole cell.  Rays entering through the
    volume faces put their first samples below lattice coordinate 0,
    where the gather clamps to the grid edge."""
    rng = np.random.default_rng(17)
    n = 24
    data = np.zeros((n, n, n), np.float32)
    data[4:12, 6:14, 8:20] = rng.uniform(0.2, 1.0, (8, 8, 12)).astype(F32)
    tf = default_tf()
    cs = 4
    occ = build_macro_grid(data, tf, cs)
    assert not is_no_grid(occ)
    cam = orbit_camera((n, n, n), azimuth_deg=52, elevation_deg=-33,
                       width=32, height=32)
    from repro.render.geometry import dual_box_intersect_f32
    from repro.render.raycast import _sample_intervals, _trilinear_flat

    corners = np.array(
        [[x, y, z] for x in (0, n) for y in (0, n) for z in (0, n)], float
    )
    dirs, keys = cam.rect_rays_f32(cam.brick_rect(corners))
    eye = np.asarray(cam.eye)
    tn_b, tf_b, hit_b, tn_v, _, hit_v = dual_box_intersect_f32(
        eye, dirs, np.zeros(3), np.full(3, float(n)), np.zeros(3), (n, n, n)
    )
    active = np.nonzero(hit_b & hit_v & (tf_b > tn_b))[0]
    base_w = (eye - 0.5).astype(F32)
    u_thr = F32(_alpha_zero_threshold(tf))
    flat = np.ascontiguousarray(data).ravel()
    for dt, block_size in [
        (0.6, 1), (0.6, 8), (0.6, 32), (1.45, 8), (0.35, 32)
    ]:
        dt = F32(dt)
        kf, counts = _sample_intervals(
            tn_b[active], tf_b[active], tn_v[active], dt
        )
        t0 = tn_v[active] + (kf.astype(F32) + F32(0.5)) * dt
        row_ptr, j0, j1 = _macro_grid_spans(
            occ, cs, base_w, dirs[active], t0, counts, float(dt), block_size
        )
        assert np.all(j1 > j0) and np.all(j1 <= np.repeat(counts, np.diff(row_ptr)))
        checked = clamped = 0
        for i in range(len(active)):
            cnt = int(counts[i])
            if cnt == 0:
                continue
            kept = np.zeros(cnt, bool)
            for k in range(row_ptr[i], row_ptr[i + 1]):
                assert not kept[j0[k] : j1[k]].any()  # spans never overlap
                kept[j0[k] : j1[k]] = True
            carved = np.nonzero(~kept)[0]
            if len(carved) == 0:
                continue
            # the march's own position arithmetic: float32 operands,
            # promoted to float64 by the int32 ordinals
            t = t0[i] + carved.astype(np.int32) * dt
            cx = base_w[0] + t * dirs[active[i], 0]
            cy = base_w[1] + t * dirs[active[i], 1]
            cz = base_w[2] + t * dirs[active[i], 2]
            vals = _trilinear_flat(flat, data.shape, cx, cy, cz)
            assert np.all(tf.table_coord(vals) <= u_thr), (dt, block_size, i)
            checked += len(carved)
            c = np.stack([cx, cy, cz])
            clamped += int(np.count_nonzero(((c < 0) | (c > n - 1)).any(axis=0)))
        assert checked > 1000, (dt, block_size)  # the carve removed a lot
        assert clamped > 0, (dt, block_size)  # ... including edge samples


# -- end-to-end: renderer + executors ----------------------------------------
def _render_pair(executor_kwargs, accel):
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel=accel, **executor_kwargs,
    ) as r:
        res = r.render(cam, mode="exec")
        return res.image, res.stats.as_dict()


def test_renderer_grid_matches_off_end_to_end():
    img_off, stats_off = _render_pair({}, "off")
    img_tab, stats_tab = _render_pair({}, "table")
    img_grid, stats_grid = _render_pair({}, "grid")
    assert np.array_equal(img_off, img_grid)
    assert np.array_equal(img_off, img_tab)
    assert stats_off == stats_grid == stats_tab


def test_renderer_grid_matches_off_pool_smoke():
    img_off, stats_off = _render_pair({}, "off")
    img_pool, stats_pool = _render_pair(
        dict(executor="pool", workers=2), "grid"
    )
    assert np.array_equal(img_off, img_pool)
    assert stats_off == stats_pool


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("cell", [2, 8])
def test_renderer_grid_matches_off_pool_matrix(workers, cell):
    img_off, stats_off = _render_pair({}, "off")
    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel="grid", macro_cell_size=cell,
        executor="pool", workers=workers,
    ) as r:
        first = r.render(cam, mode="exec")
        # second frame hits the worker-seeded arena grids + warm caches
        second = r.render(cam, mode="exec")
    assert np.array_equal(img_off, first.image)
    assert np.array_equal(img_off, second.image)
    assert stats_off == first.stats.as_dict() == second.stats.as_dict()


def test_pool_arena_ships_grids_to_workers():
    """The parent publishes per-brick grids; an orbit's later frames
    reuse the same arena (fingerprint unchanged), so workers never
    rebuild them."""
    from repro.parallel.worker import GRID_ARENA_KEY

    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel="grid", executor="pool", workers=2,
    ) as r:
        r.render(cam, mode="exec")
        pool = r._exec_instance
        assert isinstance(pool, SharedMemoryPoolExecutor)
        arena_keys = pool._state["arena"].spec.keys()
        grid_keys = [
            k for k in arena_keys
            if isinstance(k, tuple) and k and k[0] == GRID_ARENA_KEY
        ]
        assert len(grid_keys) == 4  # one per brick (2 GPUs × 2 bricks)
        fp = pool._arena_fingerprint
        r.render(cam, mode="exec")
        assert pool._arena_fingerprint == fp  # no republish, no rebuild
        # changing the macro-cell size must republish (fingerprinted)
        r.render_config = RenderConfig(dt=0.75, macro_cell_size=4)
        r.render(cam, mode="exec")
        assert pool._arena_fingerprint != fp


def test_accel_off_publishes_no_grids():
    from repro.parallel.worker import GRID_ARENA_KEY

    vol = make_dataset("skull", (24,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=48, height=48)
    with MapReduceVolumeRenderer(
        volume=vol, cluster=2, render_config=RenderConfig(dt=0.75),
        accel="table", executor="pool", workers=2,
    ) as r:
        r.render(cam, mode="exec")
        arena_keys = r._exec_instance._state["arena"].spec.keys()
        assert not any(
            isinstance(k, tuple) and k and k[0] == GRID_ARENA_KEY
            for k in arena_keys
        )


def test_render_config_validation():
    with pytest.raises(ValueError):
        RenderConfig(accel="turbo")
    with pytest.raises(ValueError):
        RenderConfig(macro_cell_size=0)


def test_cli_accel_knobs(tmp_path):
    from repro.cli import main

    out = tmp_path / "img.ppm"
    rc = main([
        "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
        "--image", "32", "--accel", "grid", "--macro-cell-size", "4",
        "--out", str(out),
    ])
    assert rc == 0 and out.exists()
    base = out.read_bytes()
    out2 = tmp_path / "img2.ppm"
    rc = main([
        "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
        "--image", "32", "--accel", "off", "--out", str(out2),
    ])
    assert rc == 0
    assert out2.read_bytes() == base  # bitwise-identical pixels
