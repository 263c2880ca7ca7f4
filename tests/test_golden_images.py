"""Golden-image regression suite.

Small deterministic rendered fixtures (cameras × transfer functions ×
brick layouts, float32 arrays in ``tests/golden/*.npz``) pin the exact
output of the functional pipeline.  Every executor / shuffle-mode /
pipeline-depth combination — and every empty-space acceleration
setting (``accel`` off / corner-max table / macro-cell grid) — must
reproduce them **bitwise**: neither the concurrency machinery (worker
scheduling, worker-side reduce, the mesh vs tcp shuffle plane, frame
pipelining) nor the skip structures may leak into the image or the
deterministic counters.

The pipeline is pure NumPy (IEEE ops in a fixed float32/float64 mix —
positions and lerps in float64, colours and compositing in float32 — and
stable sorts), so the fixtures are reproducible across runs and
processes.  If an intentional kernel change shifts the output,
regenerate them with::

    PYTHONPATH=src python tests/test_golden_images.py --regen [SCENE ...]

(all scenes when none are named) and commit the new ``.npz`` files
together with the kernel change.
"""

import dataclasses
import glob
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera  # noqa: E402
from repro.core import InProcessExecutor  # noqa: E402
from repro.parallel import SharedMemoryPoolExecutor  # noqa: E402
from repro.render import RenderConfig, default_tf, grayscale_tf  # noqa: E402
from repro.render.stitch import stitch_pixels  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"

_TFS = {"default": default_tf, "grayscale": grayscale_tf}

# A few cameras × transfer functions × brick layouts: small enough to
# commit, varied enough to cover ERT on/off, placeholder emission,
# multi-brick layouts, and an uneven reducer count.
SCENES = {
    "skull_default_az40": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_default_az130": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=130.0, elevation=-15.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_gray_az40": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="grayscale", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
    "skull_noert_placeholders": dict(
        dataset="skull", size=24, gpus=2, bricks_per_gpu=2, image=64,
        azimuth=40.0, elevation=20.0, tf="default", dt=0.75,
        ert_alpha=1.0, placeholders=True,
    ),
    "plume_gpus3_bpg1": dict(
        dataset="plume", size=20, gpus=3, bricks_per_gpu=1, image=64,
        azimuth=75.0, elevation=10.0, tf="default", dt=0.75,
        ert_alpha=0.98, placeholders=False,
    ),
}

# March-kernel axes the scenes above leave at their defaults (block 8, no
# shading, accel grid, edge bricks that clamp).  Kept apart from SCENES so
# the pool matrices parametrized over SCENES do not grow; ``config``
# holds the extra RenderConfig fields.
KERNEL_SCENES = {
    "skull_default_block1": dict(
        SCENES["skull_default_az40"], config=dict(block_size=1),
    ),
    "skull_default_block32": dict(
        SCENES["skull_default_az40"], config=dict(block_size=32),
    ),
    "skull_default_shading": dict(
        SCENES["skull_default_az40"], config=dict(shading=True),
    ),
    "skull_noert_accel_off": dict(
        SCENES["skull_default_az40"], ert_alpha=1.0,
        config=dict(accel="off"),
    ),
    # 4×4×4 bricks of 8³: the middle 2×2×2 have a full ghost shell, so
    # their march skips the clamp (``need_clamp`` False).
    "skull_interior_bricks": dict(
        SCENES["skull_default_az40"], size=32, gpus=4, bricks_per_gpu=16,
        config={},
    ),
}

ALL_SCENES = {**SCENES, **KERNEL_SCENES}


def build_job(name, accel=None, macro_cell_size=8, kernel=None):
    """Renderer + camera + chunk placement for one golden scene.

    ``accel`` overrides the empty-space machinery; the fixtures were
    rendered once and every accel mode must reproduce them bitwise (the
    macro grid's conservative-skip proof obligation).  ``kernel`` pins a
    march-kernel backend (tests/test_kernels.py runs the matrix against
    the numba backend, comparing within its documented color band).
    """
    s = ALL_SCENES[name]
    vol = make_dataset(s["dataset"], (s["size"],) * 3)
    cam = orbit_camera(
        vol.shape,
        azimuth_deg=s["azimuth"],
        elevation_deg=s["elevation"],
        width=s["image"],
        height=s["image"],
    )
    overrides = dict(s.get("config", {}))
    if accel is not None:
        overrides.update(accel=accel, macro_cell_size=macro_cell_size)
    if kernel is not None:
        overrides["kernel"] = kernel
    r = MapReduceVolumeRenderer(
        volume=vol,
        cluster=s["gpus"],
        tf=_TFS[s["tf"]](),
        render_config=RenderConfig(
            dt=s["dt"],
            ert_alpha=s["ert_alpha"],
            emit_placeholders=s["placeholders"],
            **overrides,
        ),
    )
    chunks = r._chunks(r._grid(s["bricks_per_gpu"]), False)
    ctg = [c.id % r.n_gpus for c in chunks]
    return r, cam, chunks, ctg


def run_job(executor, r, cam, chunks, ctg):
    """Execute one prepared job → (image, InProcessResult)."""
    result = executor.execute(r._spec(cam), chunks, ctg)
    parts = [(k, v) for k, v in result.outputs if len(k)]
    image = stitch_pixels(parts, cam.width, cam.height)
    return image, result


def render_scene(name, executor):
    """Run one scene through ``executor`` → (image, InProcessResult)."""
    return run_job(executor, *build_job(name))


def golden_path(name) -> Path:
    return GOLDEN_DIR / f"{name}.npz"


def load_golden(name):
    path = golden_path(name)
    if not path.exists():  # pragma: no cover - missing fixture is an error
        pytest.fail(
            f"golden fixture {path} missing; regenerate with "
            f"`PYTHONPATH=src python {__file__} --regen`"
        )
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def assert_matches_golden(name, image, result):
    g = load_golden(name)
    assert image.dtype == np.float32
    assert np.array_equal(image, g["image"]), f"{name}: image diverged"
    assert np.array_equal(
        result.pairs_per_reducer, g["pairs_per_reducer"]
    ), f"{name}: per-reducer routing diverged"
    s = result.stats
    counters = np.array(
        [s.n_chunks, s.n_rays, s.n_samples, s.n_pairs_emitted, s.n_pairs_kept],
        dtype=np.int64,
    )
    assert np.array_equal(counters, g["counters"]), f"{name}: stats diverged"


# -- tier-1: serial oracle + the pool smoke set ------------------------------
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_inprocess_matches_golden(scene):
    image, result = render_scene(scene, InProcessExecutor())
    assert_matches_golden(scene, image, result)


@pytest.mark.parametrize("accel", ["off", "table", "grid"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_inprocess_accel_modes_match_golden(scene, accel):
    """Every empty-space setting reproduces the committed fixtures
    bitwise — images, per-reducer routing, and counters (n_samples
    counts owned samples in every mode by contract)."""
    image, result = run_job(InProcessExecutor(), *build_job(scene, accel=accel))
    assert_matches_golden(scene, image, result)


@pytest.mark.parametrize("scene", sorted(KERNEL_SCENES))
def test_inprocess_kernel_axes_match_golden(scene, monkeypatch):
    """Block sizes 1 and 32, shading, the no-ERT accel-off oracle and
    interior (unclamped) bricks reproduce their fixtures bitwise."""
    from repro.render.kernels import numpy_backend

    spec = numpy_backend.SPEC
    need_clamp = []

    def march(plan):
        need_clamp.append(plan.need_clamp)
        return spec.march(plan)

    monkeypatch.setattr(
        numpy_backend, "SPEC", dataclasses.replace(spec, march=march)
    )
    image, result = run_job(
        InProcessExecutor(), *build_job(scene, kernel="numpy")
    )
    assert_matches_golden(scene, image, result)
    if scene == "skull_interior_bricks":
        assert False in need_clamp, "no interior brick was marched"


def test_pool_kernel_axes_match_golden_smoke():
    """The kernel-axis scenes through one 2-worker pool."""
    with SharedMemoryPoolExecutor(workers=2) as pool:
        rendered = {
            name: run_job(pool, *build_job(name, kernel="numpy"))
            for name in sorted(KERNEL_SCENES)
        }
    for name, (image, result) in rendered.items():
        assert_matches_golden(name, image, result)


def test_pool_grid_accel_matches_golden():
    """The grid-accelerated path through the pool executor (arena-shipped
    grids, worker-seeded caches)."""
    job = build_job("skull_default_az40", accel="grid", macro_cell_size=4)
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = run_job(pool, *job)
        # second render hits the resident arena + seeded worker caches
        image2, result2 = run_job(pool, *job)
    assert_matches_golden("skull_default_az40", image, result)
    assert_matches_golden("skull_default_az40", image2, result2)


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_pool_worker_reduce_matches_golden(scene, shuffle_mode):
    """Worker-side reduce over both shuffle planes: the direct
    worker↔worker mesh and the socket streams must reproduce the
    fixtures bitwise — the plane only decides which medium the run
    bytes traverse, never what they decode to."""
    with SharedMemoryPoolExecutor(workers=2, shuffle_mode=shuffle_mode) as pool:
        image, result = render_scene(scene, pool)
        assert result.stats.ring["shuffle_mode"] == shuffle_mode
        # The control-plane guarantee: zero run bytes crossed the
        # parent on the way to the reducers.
        assert result.stats.ring["parent_run_bytes"] == 0
        if shuffle_mode == "tcp":
            assert result.stats.ring["wire_bytes_total"] > 0
    assert_matches_golden(scene, image, result)


def test_pool_mesh_pipelined_matches_golden():
    """Depth-2 pipelining over the mesh plane: per-frame watermarks keep
    interleaved in-flight frames bitwise-correct."""
    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="mesh", pipeline_depth=2
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
        image2, result2 = render_scene("skull_default_az130", pool)
    assert_matches_golden("skull_default_az40", image, result)
    assert_matches_golden("skull_default_az130", image2, result2)


def test_pool_serial_fallback_matches_golden():
    pool = SharedMemoryPoolExecutor(workers=1, serial=True)
    image, result = render_scene("skull_gray_az40", pool)
    assert_matches_golden("skull_gray_az40", image, result)


# -- crash + in-place recovery must also be bitwise ---------------------------
def _render_with_crash(scene, shuffle_mode, pipeline_depth,
                       fault_plan="crash@map:worker=0,frame=1"):
    """Render ``scene`` with an injected mid-frame fault: the supervisor
    recycles the transport epoch, re-attaches the surviving arena, and
    re-executes the frame — the recovered image must match the golden
    fixture bitwise and leave /dev/shm exactly as it found it."""
    before = set(glob.glob("/dev/shm/*"))
    with SharedMemoryPoolExecutor(
        workers=2,
        shuffle_mode=shuffle_mode,
        pipeline_depth=pipeline_depth,
        fault_plan=fault_plan,
        retry_backoff=0.0,
    ) as pool:
        image, result = render_scene(scene, pool)
        assert pool._supervisor.active, "injected fault never fired"
        recovery = result.stats.recovery
        assert recovery is not None and recovery["respawns"] >= 1
        # A recovered pool keeps rendering: the next frame reuses the
        # re-attached arena and respawned workers.
        image2, result2 = render_scene(scene, pool)
    assert_matches_golden(scene, image, result)
    assert_matches_golden(scene, image2, result2)
    leaked = set(glob.glob("/dev/shm/*")) - before
    assert not leaked, f"recovery leaked shm segments: {leaked}"


def test_pool_crash_recovery_matches_golden_smoke():
    """Tier-1 canary for the slow recovery matrix below."""
    _render_with_crash("skull_default_az40", "mesh", 1)


def test_pool_tcp_crash_recovery_matches_golden_smoke():
    """Socket-plane canary: a mid-frame crash drops the worker's
    connections (peers see SocketClosed, not just a missing process),
    and the recovered render must still be bitwise-golden."""
    _render_with_crash("skull_default_az40", "tcp", 1)


@pytest.mark.slow
@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_pool_crash_recovery_matrix_matches_golden(shuffle_mode, pipeline_depth):
    _render_with_crash("skull_default_az40", shuffle_mode, pipeline_depth)


@pytest.mark.slow
@pytest.mark.parametrize("fault_plan", [
    "exit(3)@shuffle-out:worker=1,frame=1",
    "crash@reduce:worker=0,frame=1",
])
def test_pool_crash_recovery_other_stages_match_golden(fault_plan):
    _render_with_crash("skull_default_az40", "mesh", 1, fault_plan=fault_plan)


# -- slow: the full executor × depth × workers matrix --------------------------
# These pools leave shuffle_mode on "auto", so the CI slow matrix runs them
# on each plane in turn through $REPRO_SHUFFLE_MODE.
@pytest.mark.slow
@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("accel", ["off", "grid"])
def test_pool_accel_matrix_matches_golden(scene, accel):
    """Grid-accelerated vs accel-off through the pool, all scenes."""
    job = build_job(scene, accel=accel, macro_cell_size=4)
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = run_job(pool, *job)
    assert_matches_golden(scene, image, result)


@pytest.mark.slow
@pytest.mark.parametrize("scene", sorted(SCENES))
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_pool_matrix_matches_golden(scene, workers, pipeline_depth):
    job = build_job(scene)
    with SharedMemoryPoolExecutor(
        workers=workers, pipeline_depth=pipeline_depth
    ) as pool:
        # Render the *same* job twice: the volume object (and so its
        # identity token) is shared, so the second pass actually hits the
        # resident-arena + warm accel-cache path, which must stay
        # bitwise stable.
        image, result = run_job(pool, *job)
        assert pool._arena_fingerprint is not None
        image2, result2 = run_job(pool, *job)
    assert_matches_golden(scene, image, result)
    assert_matches_golden(scene, image2, result2)


# -- fixture (re)generation --------------------------------------------------
def regenerate(names=None) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or sorted(ALL_SCENES):
        image, result = render_scene(name, InProcessExecutor())
        s = result.stats
        np.savez_compressed(
            golden_path(name),
            image=image,
            pairs_per_reducer=result.pairs_per_reducer,
            counters=np.array(
                [
                    s.n_chunks,
                    s.n_rays,
                    s.n_samples,
                    s.n_pairs_emitted,
                    s.n_pairs_kept,
                ],
                dtype=np.int64,
            ),
        )
        print(
            f"wrote {golden_path(name)} "
            f"({image.shape[1]}x{image.shape[0]}, "
            f"{result.stats.n_pairs_kept} fragments kept)"
        )


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="golden fixture maintenance")
    ap.add_argument(
        "--regen",
        action="store_true",
        help="re-render fixtures with the serial executor and overwrite "
        "tests/golden/*.npz",
    )
    ap.add_argument(
        "scenes", nargs="*", help="scenes to regenerate (default: all)"
    )
    args = ap.parse_args()
    unknown = set(args.scenes) - set(ALL_SCENES)
    if unknown:
        ap.error(f"unknown scenes: {sorted(unknown)}")
    if args.regen:
        regenerate(args.scenes)
    else:
        ap.error("nothing to do (pass --regen)")
