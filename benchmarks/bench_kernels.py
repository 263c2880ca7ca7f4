"""KERNELS — micro-benchmarks of the functional kernels.

These time the *Python implementations* (useful for tracking regressions
in this repo), not the simulated GPU — simulated stage times live in the
figure benches.
"""

import os

import numpy as np
import pytest

from repro.core import counting_sort_pairs
from repro.render import (
    RenderConfig,
    available_backends,
    composite_fragments,
    default_tf,
    make_fragments,
    orbit_camera,
    ray_box_intersect,
    raycast_brick,
    resolve_kernel,
    trilinear_sample,
)
from repro.render.accel import AccelCache, build_macro_grid, is_no_grid
from repro.render.geometry import dual_box_intersect_f32
from repro.render.raycast import _macro_grid_spans, _sample_intervals
from repro.volume import make_dataset

VOL = make_dataset("supernova", (32, 32, 32))
CAM = orbit_camera(VOL.shape, width=128, height=128, distance_factor=2.2)
TF = default_tf()
RNG = np.random.default_rng(7)


def _sparse_volume(size: int, fill: float) -> np.ndarray:
    """A mostly-empty volume with a centred dense blob of ``fill`` volume
    fraction — the regime whole-span empty-space skipping targets."""
    rng = np.random.default_rng(11)
    data = np.zeros((size,) * 3, np.float32)
    edge = max(2, round(size * fill ** (1.0 / 3.0)))
    lo = (size - edge) // 2
    data[lo : lo + edge, lo : lo + edge, lo : lo + edge] = rng.uniform(
        0.2, 1.0, (edge,) * 3
    ).astype(np.float32)
    return data


_SPARSE = {"sparse": _sparse_volume(32, 0.05), "half": _sparse_volume(32, 0.5)}
#: Warm per-case caches: the bench measures the steady orbit regime
#: (structures resident, like the paper's per-GPU static data), not the
#: one-off build.
_ACCEL_CACHE = AccelCache()


def test_bench_raycast_kernel(benchmark):
    cfg = RenderConfig(dt=1.0)
    frags, stats = benchmark(
        raycast_brick,
        VOL.data,
        (0, 0, 0),
        (0, 0, 0),
        VOL.shape,
        VOL.shape,
        CAM,
        TF,
        cfg,
    )
    assert stats.n_samples > 0


def _bench_kernel_backends() -> tuple:
    """Backends for the per-backend raycast rows.

    ``REPRO_BENCH_KERNELS`` (comma-separated, exported by
    ``run_kernels.sh --kernel``) restricts the list; by default both
    rows are attempted and the numba one skips when the package is
    absent, so a numpy-only box still produces a tagged numpy row.
    """
    env = os.environ.get("REPRO_BENCH_KERNELS")
    if env:
        return tuple(s.strip() for s in env.split(",") if s.strip())
    return ("numpy", "numba")


@pytest.mark.parametrize("backend", _bench_kernel_backends())
def test_bench_raycast_kernel_backend(benchmark, backend):
    """Per-backend raycast rows (same scene as test_bench_raycast_kernel,
    which stays unparametrized as the seed-gate row).  ``repro report
    --check`` gates each backend row against its own baseline row, and
    the environment provenance stamps which backend "auto" resolves to
    on the measuring box.  JIT warmup runs before timing: the bench
    measures the steady marcher, not compilation."""
    if backend not in available_backends():
        pytest.skip(f"kernel backend {backend!r} unavailable on this box")
    resolve_kernel(backend).warmup()
    cfg = RenderConfig(dt=1.0, kernel=backend)
    frags, stats = benchmark(
        raycast_brick,
        VOL.data,
        (0, 0, 0),
        (0, 0, 0),
        VOL.shape,
        VOL.shape,
        CAM,
        TF,
        cfg,
    )
    assert stats.n_samples > 0


@pytest.mark.parametrize("block_size", [1, 8, 64])
def test_bench_raycast_block_size(benchmark, block_size):
    """ERT-vs-throughput tradeoff of the blocked marcher's block length."""
    cfg = RenderConfig(dt=1.0, block_size=block_size)
    frags, stats = benchmark(
        raycast_brick,
        VOL.data,
        (0, 0, 0),
        (0, 0, 0),
        VOL.shape,
        VOL.shape,
        CAM,
        TF,
        cfg,
    )
    assert stats.n_samples > 0


@pytest.mark.parametrize("sparsity", sorted(_SPARSE))
@pytest.mark.parametrize(
    "accel,cell",
    [("off", 8), ("table", 8), ("grid", 4), ("grid", 8), ("grid", 16)],
)
def test_bench_raycast_macro_grid(benchmark, sparsity, accel, cell):
    """Whole-span empty-space skipping vs the corner-max table vs no
    acceleration, across volume sparsity and macro-cell size.  The
    acceptance gate: on the sparse volume, the grid rows must beat the
    table row by ≥1.5× mean."""
    data = _SPARSE[sparsity]
    cfg = RenderConfig(dt=1.0, accel=accel, macro_cell_size=cell)
    frags, stats = benchmark(
        raycast_brick,
        data,
        (0, 0, 0),
        (0, 0, 0),
        data.shape,
        data.shape,
        CAM,
        TF,
        cfg,
        accel_key=("bench-macro", sparsity),
        accel_cache=_ACCEL_CACHE,
    )
    assert stats.n_samples > 0


def test_bench_trilinear_sample(benchmark):
    pos = RNG.uniform(1, 31, (100_000, 3))
    out = benchmark(trilinear_sample, VOL.data, pos)
    assert out.shape == (100_000,)


def test_bench_ray_box_intersect(benchmark):
    o = RNG.uniform(-100, -50, (100_000, 3))
    d = RNG.normal(size=(100_000, 3))
    tn, tf_, hit = benchmark(
        ray_box_intersect, o, d, np.zeros(3), np.full(3, 32.0)
    )
    assert len(tn) == 100_000


#: Ray-setup scene: the whole 64³ skull as one brick, seen from the orbit
#: workloads' framing, so the slab test and the macro-grid carve run on
#: the ray counts and sample spans of a real map call.
_SETUP_VOL = make_dataset("skull", (64, 64, 64))
_SETUP_CAM = orbit_camera(
    _SETUP_VOL.shape, azimuth_deg=30.0, elevation_deg=20.0,
    width=128, height=128, distance_factor=2.2,
)
_SETUP_DIRS, _ = _SETUP_CAM.rect_rays_f32(_SETUP_CAM.full_rect())
_SETUP_CELL = 8


def test_bench_dual_box_intersect(benchmark):
    """The map kernel's fused float32 slab test: every ray of the view
    against one brick core and the volume box."""
    eye = np.asarray(_SETUP_CAM.eye)
    out = benchmark(
        dual_box_intersect_f32, eye, _SETUP_DIRS,
        np.array([16.0, 16.0, 0.0]), np.array([48.0, 48.0, 32.0]),
        np.zeros(3), _SETUP_VOL.shape,
    )
    assert out[2].any()


@pytest.mark.parametrize("dt", [0.25, 0.5, 0.75, 1.0])
def test_bench_span_carve(benchmark, dt):
    """The macro-grid span carve alone (block_size 8, 8³ cells).  Its
    cost scales with ray-blocks, so it grows as dt shrinks."""
    data = _SETUP_VOL.data
    occ = build_macro_grid(data, TF, _SETUP_CELL)
    assert not is_no_grid(occ)
    eye = np.asarray(_SETUP_CAM.eye)
    tn, tf_, hit, _, _, _ = dual_box_intersect_f32(
        eye, _SETUP_DIRS, np.zeros(3), data.shape, np.zeros(3), data.shape
    )
    act = np.nonzero(hit & (tf_ > tn))[0]
    dt32 = np.float32(dt)
    kf, counts = _sample_intervals(tn[act], tf_[act], tn[act], dt32)
    t0 = tn[act] + (kf.astype(np.float32) + np.float32(0.5)) * dt32
    base_w = (eye - 0.5).astype(np.float32)
    row_ptr, j0, j1 = benchmark(
        _macro_grid_spans, occ, _SETUP_CELL, base_w, _SETUP_DIRS[act],
        t0, counts, dt, 8,
    )
    assert 0 < int((j1 - j0).sum()) < int(counts.sum())


def test_bench_counting_sort(benchmark):
    n = 200_000
    keys = RNG.integers(0, 128 * 128, n).astype(np.int32)
    pairs = make_fragments(
        keys, RNG.uniform(0, 100, n).astype(np.float32), RNG.uniform(0, 1, (n, 4)).astype(np.float32)
    )
    sr = benchmark(counting_sort_pairs, pairs, "pixel", 0, 128 * 128 - 1)
    assert int(sr.counts.sum()) == n


def test_bench_composite_fragments(benchmark):
    n = 200_000
    keys = RNG.integers(0, 128 * 128, n).astype(np.int32)
    a = RNG.uniform(0, 1, n).astype(np.float32)
    rgba = np.concatenate(
        [RNG.uniform(0, 1, (n, 3)).astype(np.float32) * a[:, None], a[:, None]], axis=1
    )
    frags = make_fragments(keys, RNG.uniform(0, 100, n).astype(np.float32), rgba)
    img = benchmark(composite_fragments, frags, 128 * 128)
    assert img.shape == (128 * 128, 4)


def test_bench_transfer_lookup(benchmark):
    values = RNG.uniform(0, 1, 500_000)
    out = benchmark(TF.lookup, values)
    assert out.shape == (500_000, 4)


def test_bench_tracer_overhead_disabled(benchmark):
    """The disabled tracer's cost on the map hot loop: each span() is one
    module-global read + an is-None test returning a shared no-op.  This
    is the <1% overhead contract of --trace-out being absent."""
    from repro.observability.tracer import disable_tracing, span

    disable_tracing()

    def mapped_with_spans():
        frags = None
        for ci in range(4):
            with span(f"map:chunk={ci}", cat="map", chunk=ci):
                frags, _stats = raycast_brick(
                    VOL.data,
                    (0, 0, 0),
                    (0, 0, 0),
                    VOL.shape,
                    VOL.shape,
                    CAM,
                    TF,
                    RenderConfig(dt=1.0),
                    accel_cache=_ACCEL_CACHE,
                )
        return frags

    frags = benchmark(mapped_with_spans)
    assert frags is not None
