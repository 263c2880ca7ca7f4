"""Tests for the shared-memory multiprocess brick executor.

The load-bearing property: :class:`SharedMemoryPoolExecutor` must be
**bitwise-indistinguishable** from :class:`InProcessExecutor` — outputs,
per-reducer routing, and every ``JobStats``/``MapStats``-derived counter
— across worker counts, brick layouts, and ERT settings, because worker
scheduling must never leak into the rendered image.  Multi-worker
variants beyond the tier-1 smoke set are marked ``slow``.
"""

import glob
import os
import threading
import time

import numpy as np
import pytest

from repro import MapReduceVolumeRenderer, make_dataset, orbit_camera
from repro.core import (
    Chunk,
    InProcessExecutor,
    KVSpec,
    MapOutput,
    Mapper,
    MapReduceSpec,
    PLACEHOLDER,
    Reducer,
    RoundRobinPartitioner,
    run_length_groups,
)
from repro.parallel import (
    ArenaSpec,
    ArenaView,
    RingTimeout,
    SharedMemoryPoolExecutor,
    ShmArena,
    ShmRing,
    shm_segment_exists,
)
from repro.render import RenderConfig, default_tf


# -- helpers -----------------------------------------------------------------
def make_scene(size=24, gpus=2, image=64, ert_alpha=0.98, placeholders=False):
    vol = make_dataset("skull", (size,) * 3)
    cam = orbit_camera(vol.shape, azimuth_deg=40.0, width=image, height=image)
    r = MapReduceVolumeRenderer(
        volume=vol,
        cluster=gpus,
        render_config=RenderConfig(
            dt=0.75, ert_alpha=ert_alpha, emit_placeholders=placeholders
        ),
    )
    return r, cam


def scene_job(r, cam, bricks_per_gpu=2):
    chunks = r._chunks(r._grid(bricks_per_gpu), False)
    ctg = [c.id % r.n_gpus for c in chunks]
    return chunks, ctg


def assert_results_identical(a, b):
    assert len(a.outputs) == len(b.outputs)
    for (k1, v1), (k2, v2) in zip(a.outputs, b.outputs):
        assert np.array_equal(k1, k2)
        assert np.array_equal(v1, v2)  # bitwise, not approx
    assert np.array_equal(a.pairs_per_reducer, b.pairs_per_reducer)
    assert a.stats.as_dict() == b.stats.as_dict()
    assert len(a.works) == len(b.works)
    for w1, w2 in zip(a.works, b.works):
        assert w1.chunk_id == w2.chunk_id
        assert w1.gpu == w2.gpu
        assert w1.upload_bytes == w2.upload_bytes
        assert w1.n_rays == w2.n_rays
        assert w1.n_samples == w2.n_samples
        assert w1.pairs_emitted == w2.pairs_emitted
        assert w1.read_from_disk == w2.read_from_disk
        assert np.array_equal(w1.pairs_to_reducer, w2.pairs_to_reducer)


def run_equivalence(workers, *, gpus=2, bricks_per_gpu=2, ert_alpha=0.98,
                    placeholders=False, **pool_kwargs):
    r, cam = make_scene(gpus=gpus, ert_alpha=ert_alpha, placeholders=placeholders)
    chunks, ctg = scene_job(r, cam, bricks_per_gpu)
    ref = InProcessExecutor().execute(r._spec(cam), chunks, ctg)
    with SharedMemoryPoolExecutor(workers=workers, **pool_kwargs) as pool:
        got = pool.execute(r._spec(cam), chunks, ctg)
    assert_results_identical(ref, got)


# -- pool vs in-process equivalence (tier-1 smoke set) -----------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_pool_matches_inprocess(workers):
    run_equivalence(workers)


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
@pytest.mark.parametrize("workers", [1, 2])
def test_pool_worker_reduce_matches_inprocess(workers, shuffle_mode):
    # The paper's symmetric layout: Sort+Reduce on the owning worker —
    # over both shuffle planes (the worker<->worker edge mesh and the
    # socket streams).
    run_equivalence(workers, shuffle_mode=shuffle_mode)


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_pool_worker_reduce_with_pipeline_depth_matches(shuffle_mode):
    run_equivalence(2, shuffle_mode=shuffle_mode, pipeline_depth=2)


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_pool_worker_reduce_more_reducers_than_workers(shuffle_mode):
    # gpus=3 -> 3 reducer partitions over 2 workers: worker 0 owns {0, 2}.
    run_equivalence(2, gpus=3, bricks_per_gpu=3, shuffle_mode=shuffle_mode)


def test_pool_mesh_more_workers_than_reducers():
    # 4 workers over 2 partitions: workers 2 and 3 own nothing, get no
    # reduce message, and receive no mesh records — but still map.
    run_equivalence(4, gpus=2, bricks_per_gpu=2, shuffle_mode="mesh")


def test_pool_mesh_fallback_when_record_outgrows_edge():
    # Edges too small for any real run force every record through the
    # parent-queue relay; results must be unchanged and counted.
    run_equivalence(2, shuffle_mode="mesh", mesh_edge_capacity=64)


def test_pool_rejects_bad_knobs():
    with pytest.raises(ValueError, match="pipeline depth"):
        SharedMemoryPoolExecutor(workers=1, pipeline_depth=0)
    with pytest.raises(ValueError, match="shuffle_mode"):
        SharedMemoryPoolExecutor(workers=1, shuffle_mode="broadcast")
    with pytest.raises(ValueError, match="ring write timeout"):
        SharedMemoryPoolExecutor(workers=1, ring_write_timeout=0.0)


def test_serial_fallback_matches_inprocess():
    run_equivalence(1, serial=True)


def test_pool_matches_with_placeholders_and_no_ert():
    run_equivalence(2, ert_alpha=1.0, placeholders=True)


def test_pool_multi_frame_resident_arena():
    """Frames of an orbit republish nothing and stay bitwise identical."""
    r, _ = make_scene()
    with SharedMemoryPoolExecutor(workers=2) as pool:
        for az in (0.0, 120.0, 240.0):
            cam = orbit_camera(r.volume_shape, azimuth_deg=az, width=64, height=64)
            chunks, ctg = scene_job(r, cam)
            ref = InProcessExecutor().execute(r._spec(cam), chunks, ctg)
            got = pool.execute(r._spec(cam), chunks, ctg)
            assert_results_identical(ref, got)
        assert pool._arena_fingerprint is not None


def test_pool_counts_queue_fallbacks():
    r, cam = make_scene()
    chunks, ctg = scene_job(r, cam)
    spec = r._spec(cam)
    with SharedMemoryPoolExecutor(workers=2, mesh_edge_capacity=64) as pool:
        got = pool.execute(spec, chunks, ctg)
    assert got.stats.ring is not None
    # One fallback per (chunk, partition) record that outgrew its edge.
    assert 1 <= got.stats.ring["queue_fallbacks"] <= len(chunks) * spec.n_reducers
    assert got.stats.ring["ring_capacity"] == 64


def test_pipelined_orbit_smoke_bitwise_and_walls():
    """Tier-1 smoke: a depth-2 worker-reduce orbit is bitwise-identical
    to the serial orbit and records one wall time per frame."""
    from repro.pipeline import render_rotation

    r_ref, _ = make_scene()
    ref = render_rotation(
        r_ref, n_frames=3, mode="exec", width=64, height=64, keep_images=True
    )
    with MapReduceVolumeRenderer(
        volume=r_ref.volume,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=2,
        pipeline_depth=2,
    ) as r:
        assert r.frame_pipeline_depth == 2
        rot = render_rotation(
            r, n_frames=3, mode="exec", width=64, height=64, keep_images=True
        )
    assert len(rot.wall_seconds) == 3 and all(w > 0 for w in rot.wall_seconds)
    for img, img_ref in zip(rot.images, ref.images):
        assert np.array_equal(img, img_ref)


def test_pipelined_out_of_core_orbit_matches_serial():
    """Out-of-core frames through the submit/collect pipeline: chunk
    loads feed the arena at submit time (the prefetch path) and images
    stay bitwise-identical to the serial out-of-core render."""
    from repro.render import RenderConfig
    from repro.volume.datasets import DATASET_FIELDS

    cfg = RenderConfig(dt=0.75)
    shape = (24,) * 3
    cams = [
        orbit_camera(shape, azimuth_deg=a, width=64, height=64)
        for a in (0.0, 120.0, 240.0)
    ]
    ref = MapReduceVolumeRenderer(
        volume_shape=shape,
        field=DATASET_FIELDS["skull"],
        cluster=2,
        render_config=cfg,
    )
    refs = [ref.render(c, mode="exec", out_of_core=True).image for c in cams]
    with MapReduceVolumeRenderer(
        volume_shape=shape,
        field=DATASET_FIELDS["skull"],
        cluster=2,
        render_config=cfg,
        executor="pool",
        workers=2,
        pipeline_depth=2,
    ) as r:
        handles = [r.submit_frame(c, out_of_core=True) for c in cams]
        imgs = [r.collect_frame(h).image for h in handles]
    for img_ref, img in zip(refs, imgs):
        assert np.array_equal(img_ref, img)


def test_submit_collect_out_of_order_and_depth_cap():
    """Collecting a newer handle first completes the older ones; the
    depth cap force-collects the oldest at submit time."""
    r, _ = make_scene()
    cams = [
        orbit_camera(r.volume_shape, azimuth_deg=a, width=64, height=64)
        for a in (0.0, 120.0, 240.0)
    ]
    chunks, ctg = scene_job(r, cams[0])
    refs = [InProcessExecutor().execute(r._spec(c), chunks, ctg) for c in cams]
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        handles = [pool.submit(r._spec(c), chunks, ctg) for c in cams]
        # Depth 2: submitting the 3rd frame must have force-collected the 1st.
        assert handles[0].done and not handles[2].done
        got_last = pool.collect(handles[2])  # completes #1 on the way
        assert handles[1].done
        assert_results_identical(refs[2], got_last)
        assert_results_identical(refs[0], pool.collect(handles[0]))
        assert_results_identical(refs[1], pool.collect(handles[1]))


def test_renderer_pool_image_identical():
    r_ref, cam = make_scene()
    img_ref = r_ref.render(cam, mode="exec").image
    vol = r_ref.volume
    with MapReduceVolumeRenderer(
        volume=vol,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=2,
    ) as r_pool:
        img_pool = r_pool.render(cam, mode="exec").image
        img_pool2 = r_pool.render(cam, mode="exec").image  # warm arena + caches
    assert np.array_equal(img_ref, img_pool)
    assert np.array_equal(img_ref, img_pool2)
    # close() released the workers; a render after it respawns them.
    assert not r_pool._exec_instance.running
    assert np.array_equal(img_ref, r_pool.render(cam, mode="exec").image)
    r_pool.close()


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(host_spec="0,1"), "multi-host"),
        (dict(fault_plan="bogus@@"), "fault rule"),
        (dict(host_spec="x"), "host_spec"),
        (dict(reduce_mode="parent"), "reduce_mode"),
    ],
    ids=["multi-host-mesh", "bad-fault-plan", "bad-host-spec", "parent-reduce"],
)
def test_renderer_rejects_pool_misconfiguration_at_construction(kwargs, match):
    """Configuration errors surface when the renderer is built, not when
    its first frame renders."""
    with pytest.raises(ValueError, match=match):
        MapReduceVolumeRenderer(
            volume_shape=(8, 8, 8), cluster=2, executor="pool", workers=2,
            **kwargs,
        )


# -- full matrix (slow) ------------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("gpus,bricks_per_gpu", [(1, 2), (2, 2), (4, 1), (3, 3)])
@pytest.mark.parametrize("ert_alpha", [1.0, 0.98, 0.5])
def test_pool_matches_inprocess_matrix(workers, gpus, bricks_per_gpu, ert_alpha):
    run_equivalence(
        workers, gpus=gpus, bricks_per_gpu=bricks_per_gpu, ert_alpha=ert_alpha
    )


@pytest.mark.slow
@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("pipeline_depth", [1, 2, 3])
@pytest.mark.parametrize("gpus,bricks_per_gpu", [(2, 2), (3, 3)])
def test_pool_worker_reduce_matrix(
    workers, pipeline_depth, gpus, bricks_per_gpu, shuffle_mode
):
    run_equivalence(
        workers,
        gpus=gpus,
        bricks_per_gpu=bricks_per_gpu,
        shuffle_mode=shuffle_mode,
        pipeline_depth=pipeline_depth,
    )


@pytest.mark.slow
@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pipelined_orbit_matches_serial_matrix(workers, shuffle_mode):
    from repro.pipeline import render_rotation

    r_ref, _ = make_scene()
    ref = render_rotation(
        r_ref, n_frames=4, mode="exec", width=64, height=64, keep_images=True
    )
    with MapReduceVolumeRenderer(
        volume=r_ref.volume,
        cluster=2,
        render_config=r_ref.render_config,
        executor="pool",
        workers=workers,
        shuffle_mode=shuffle_mode,
        pipeline_depth=2,
    ) as r:
        rot = render_rotation(
            r, n_frames=4, mode="exec", width=64, height=64, keep_images=True
        )
    assert len(rot.images) == len(ref.images) == 4
    for img, img_ref in zip(rot.images, ref.images):
        assert np.array_equal(img, img_ref)


# -- generic (non-render) jobs through the pool ------------------------------
KV = np.dtype([("key", np.int32), ("val", np.float32)])


class ModSquareMapper(Mapper):
    """Synthetic mapper (module-level: must be picklable for the pool)."""

    def __init__(self, max_key):
        self.max_key = max_key

    def map(self, chunk):
        data = chunk.payload()
        pairs = np.empty(len(data), dtype=KV)
        keys = (data.astype(np.int64) % (self.max_key + 1)).astype(np.int32)
        keys[data % 2 == 1] = PLACEHOLDER
        pairs["key"] = keys
        pairs["val"] = data.astype(np.float32) ** 2
        return MapOutput(pairs, work={"n_rays": len(data), "n_samples": 3 * len(data)})


class SumReducer(Reducer):
    def reduce_all(self, pairs):
        keys, starts, _ = run_length_groups(pairs["key"])
        sums = np.add.reduceat(pairs["val"], starts) if len(keys) else np.zeros(0)
        return keys, sums


def test_pool_runs_generic_mapreduce_job():
    rng = np.random.default_rng(7)
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d)
        for i, d in enumerate(
            rng.integers(0, 100, 64).astype(np.int64) for _ in range(5)
        )
    ]
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(3),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, chunks, [0, 1, 0, 1, 0])
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, chunks, [0, 1, 0, 1, 0])
    assert_results_identical(ref, got)


class BoomMapper(Mapper):
    def map(self, chunk):
        raise RuntimeError("boom in worker")


def test_pool_propagates_worker_errors_and_resets():
    chunks = [Chunk(id=0, nbytes=8, data=np.zeros(1, np.int64))]
    spec = MapReduceSpec(
        mapper=BoomMapper(),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(1),
        kv=KVSpec(KV),
        max_key=9,
    )
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(RuntimeError, match="boom in worker"):
            pool.execute(spec, chunks)
        # A failed map task may leave partial fragment runs in its
        # worker's ring, so the pool tears itself down rather than risk
        # serving misaligned bytes; a retry starts from a fresh pool.
        assert not pool.running
        good = MapReduceSpec(
            mapper=ModSquareMapper(9),
            reducer=SumReducer(),
            partitioner=RoundRobinPartitioner(1),
            kv=KVSpec(KV),
            max_key=9,
        )
        data = np.arange(10, dtype=np.int64) * 2
        ref = InProcessExecutor().execute(
            good, [Chunk(id=0, nbytes=data.nbytes, data=data)]
        )
        got = pool.execute(good, [Chunk(id=0, nbytes=data.nbytes, data=data)])
        assert_results_identical(ref, got)


class ExitMapper(Mapper):
    """Hard-kills the worker process on one specific chunk (no cleanup,
    no exception — the way a real segfault/OOM kill looks)."""

    def __init__(self, kill_chunk):
        self.kill_chunk = kill_chunk
        self.inner = ModSquareMapper(9)

    def map(self, chunk):
        if chunk.id == self.kill_chunk:
            os._exit(3)
        return self.inner.map(chunk)


def _generic_job(mapper, n_chunks=4, n_reducers=2, seed=13, n_elems=32):
    rng = np.random.default_rng(seed)
    datas = [
        rng.integers(0, 100, n_elems).astype(np.int64)
        for _ in range(n_chunks)
    ]
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d) for i, d in enumerate(datas)
    ]
    spec = MapReduceSpec(
        mapper=mapper,
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(n_reducers),
        kv=KVSpec(KV),
        max_key=9,
    )
    return spec, chunks


def _all_segment_names(pool) -> list:
    """Every shared-memory segment the pool currently holds: the arena
    and — on the mesh plane — all N×N edge rings."""
    names = [pool._state["arena"].name]
    names.extend(r.name for r in pool._state.get("mesh_edges", {}).values())
    return names


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_pool_worker_crash_mid_frame_teardown_and_retry(shuffle_mode):
    """Kill a worker mid-frame: the pool must tear down cleanly (no
    leaked shared-memory segments — including worker-created mesh
    edges), and a retry on the same executor must run on a fresh pool
    with no stale edge bytes.

    ``supervise=False`` pins the *legacy* fail-fast semantics (the
    default now recovers in place; see test_supervision.py).  The crash
    comes from user mapper code, which supervision would faithfully
    re-execute all the way down the degradation ladder into the serial
    executor.
    """
    good_spec, chunks = _generic_job(ModSquareMapper(9))
    crash_spec, _ = _generic_job(ExitMapper(kill_chunk=2))
    ref = InProcessExecutor().execute(good_spec, chunks, [0, 1, 0, 1])
    pool = SharedMemoryPoolExecutor(
        workers=2, shuffle_mode=shuffle_mode, supervise=False
    )
    try:
        # Warm frame: creates edges + arena whose names we can audit.
        got = pool.execute(good_spec, chunks, [0, 1, 0, 1])
        assert_results_identical(ref, got)
        names = _all_segment_names(pool)
        if shuffle_mode == "mesh":
            assert len(pool._state["mesh_edges"]) == 2  # 2 workers -> 2 edges

        # On the socket plane the survivor may report the dead peer's
        # dropped connection before the parent's liveness probe notices
        # the corpse — either surfaces the failure.
        with pytest.raises(
            RuntimeError, match="died during execute|dropped connection"
        ):
            pool.execute(crash_spec, chunks, [0, 1, 0, 1])
        assert not pool.running
        for name in names:
            assert not shm_segment_exists(name), f"leaked segment {name}"

        # Retry: a fresh pool (new processes, new segments) — chunk 0's
        # fragments from the crashed frame must not bleed into this one.
        got = pool.execute(good_spec, chunks, [0, 1, 0, 1])
        assert_results_identical(ref, got)
    finally:
        pool.close()


@pytest.mark.slow
@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_pool_crash_soak_pipelined(shuffle_mode):
    """Soak: interleave pipelined frames with a mid-flight worker crash
    repeatedly; every recovery must produce bitwise-correct results and
    release every shared-memory segment — on both shuffle planes."""
    good_spec, chunks = _generic_job(ModSquareMapper(9), n_chunks=6)
    crash_spec, _ = _generic_job(ExitMapper(kill_chunk=4), n_chunks=6)
    ref = InProcessExecutor().execute(good_spec, chunks)
    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode=shuffle_mode,
        pipeline_depth=2, supervise=False,  # pin legacy fail-fast teardown
    ) as pool:
        for _ in range(3):
            h1 = pool.submit(good_spec, chunks)
            h2 = pool.submit(good_spec, chunks)
            assert_results_identical(ref, pool.collect(h1))
            names = _all_segment_names(pool)
            with pytest.raises(RuntimeError):
                pool.collect(pool.submit(crash_spec, chunks))
            assert not pool.running
            # h2 was in flight when the pool died.  Depending on whether
            # its (already queued) results drained before the crash was
            # detected, it either completed bitwise-correct or aborted —
            # but it must never return wrong data or hang.
            if h2.done:
                assert_results_identical(ref, pool.collect(h2))
            else:
                with pytest.raises(RuntimeError, match="aborted"):
                    pool.collect(h2)
            for name in names:
                assert not shm_segment_exists(name), f"leaked segment {name}"
            assert_results_identical(ref, pool.execute(good_spec, chunks))


class BoomReducer(SumReducer):
    def reduce_all(self, pairs):
        raise RuntimeError("boom in reduce")


def test_worker_reduce_errors_name_the_reduce_stage():
    spec, chunks = _generic_job(ModSquareMapper(9))
    spec.reducer = BoomReducer()
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(RuntimeError, match="reduce of partitions"):
            pool.execute(spec, chunks)
        assert not pool.running  # failed frames always tear the pool down


class UnpicklableSumReducer(SumReducer):
    """A reducer carrying a resource that cannot cross process lines."""

    def __init__(self):
        self.lock = threading.Lock()  # pickling this raises TypeError


def test_pool_rejects_unpicklable_reducer():
    """Workers reduce, so the reducer is pickled into every frame: one
    that cannot cross process lines is a user error, raised from submit
    with no recovery attempted and no segment left behind."""
    spec, chunks = _generic_job(ModSquareMapper(9))
    spec.reducer = UnpicklableSumReducer()
    before = set(glob.glob("/dev/shm/*"))
    with SharedMemoryPoolExecutor(workers=2) as pool:
        with pytest.raises(TypeError, match="pickle"):
            pool.submit(spec, chunks)
        assert pool._supervisor.summary_lines() == []
        assert not pool.running
    assert set(glob.glob("/dev/shm/*")) - before == set()


def test_stale_aborted_handle_does_not_kill_restarted_pool():
    """Collecting a handle that died with an earlier pool incarnation
    must raise — without tearing down the healthy pool running now."""
    good_spec, chunks = _generic_job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(good_spec, chunks)
    with SharedMemoryPoolExecutor(workers=2, pipeline_depth=2) as pool:
        stale = pool.submit(good_spec, chunks)
        pool.close()  # aborts the in-flight frame
        assert not stale.done
        # Restart: a new frame in flight on a fresh pool...
        live = pool.submit(good_spec, chunks)
        assert pool.running
        # ...the stale handle errors but leaves the new pool untouched.
        with pytest.raises(RuntimeError, match="aborted"):
            pool.collect(stale)
        assert pool.running
        assert_results_identical(ref, pool.collect(live))


def test_pool_handles_empty_chunk_list():
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(2),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, [])
    with SharedMemoryPoolExecutor(workers=2) as pool:
        got = pool.execute(spec, [])
    assert_results_identical(ref, got)
    assert got.works == []


def test_pool_rejects_duplicate_chunk_ids():
    d = np.zeros(2, np.int64)
    chunks = [Chunk(id=0, nbytes=d.nbytes, data=d)] * 2
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(1),
        kv=KVSpec(KV),
        max_key=9,
    )
    with SharedMemoryPoolExecutor(workers=1) as pool:
        with pytest.raises(ValueError, match="unique"):
            pool.execute(spec, chunks)


# -- ring buffer -------------------------------------------------------------
def test_ring_roundtrip_and_wraparound():
    with ShmRing.create(capacity=64) as ring:
        # Fill/drain repeatedly with sizes that force the cursor to wrap
        # at misaligned offsets.
        sent = received = b""
        payload = bytes(range(48))
        for i in range(20):
            piece = payload[: 17 + (i * 7) % 30]
            ring.write_bytes(piece, timeout=1.0)
            sent += piece
            got = ring.read_bytes(len(piece), timeout=1.0)
            received += bytes(got)
        assert received == sent
        assert ring.used == 0


def test_ring_blocks_producer_until_consumed():
    with ShmRing.create(capacity=16) as ring:
        ring.write_bytes(b"x" * 16, timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(RingTimeout):
            ring.write_bytes(b"y", timeout=0.05)
        assert time.monotonic() - t0 >= 0.05
        # Draining unblocks the producer.
        drain = threading.Thread(
            target=lambda: (time.sleep(0.02), ring.read_bytes(16, timeout=1.0))
        )
        drain.start()
        ring.write_bytes(b"y" * 8, timeout=2.0)
        drain.join(timeout=2.0)
        assert bytes(ring.read_bytes(8, timeout=1.0)) == b"y" * 8


def test_ring_validation():
    with ShmRing.create(capacity=8) as ring:
        with pytest.raises(ValueError):
            ring.write_bytes(b"123456789")  # > capacity
        with pytest.raises(ValueError):
            ring.read_bytes(9)
    with pytest.raises(ValueError):
        ShmRing.create(capacity=0)


def test_ring_backpressure_counters():
    """Stall time/events and the high-water mark move exactly when the
    producer actually blocks on a full ring."""
    with ShmRing.create(capacity=16) as ring:
        assert ring.counters() == {
            "stall_seconds": 0.0,
            "stall_events": 0,
            "high_water_bytes": 0,
            "written_bytes": 0,
        }
        ring.write_bytes(b"x" * 10, timeout=1.0)
        assert ring.high_water == 10
        assert ring.stall_events == 0  # fit without waiting
        ring.read_bytes(10, timeout=1.0)
        ring.write_bytes(b"y" * 16, timeout=1.0)
        assert ring.high_water == 16  # monotonic max of occupancy

        # Now force a real stall: the ring is full, a consumer drains it
        # only after a delay, so the producer must block measurably.
        drain = threading.Thread(
            target=lambda: (time.sleep(0.05), ring.read_bytes(16, timeout=2.0))
        )
        drain.start()
        ring.write_bytes(b"z" * 8, timeout=2.0)
        drain.join(timeout=2.0)
        assert ring.stall_events == 1
        assert ring.stall_seconds >= 0.03
        # A reader never bumps producer counters.
        ring.read_bytes(8, timeout=1.0)
        assert ring.stall_events == 1


def test_pool_exports_ring_backpressure_into_jobstats(monkeypatch):
    """Tiny mesh edges + an artificially slow edge drain must register
    producer stalls, and the exported counters must actually move —
    without changing the results."""
    rng = np.random.default_rng(11)
    datas = [rng.integers(0, 100, 64).astype(np.int64) for _ in range(6)]
    chunks = [
        Chunk(id=i, nbytes=d.nbytes, data=d) for i, d in enumerate(datas)
    ]
    spec = MapReduceSpec(
        mapper=ModSquareMapper(9),
        reducer=SumReducer(),
        partitioner=RoundRobinPartitioner(3),
        kv=KVSpec(KV),
        max_key=9,
    )
    ref = InProcessExecutor().execute(spec, chunks)

    # Slow every edge read.  The workers fork after the patch, so they
    # inherit it: each drains its inbound edge at a crawl while its
    # peer maps ahead and must block on the full edge.
    real_read = ShmRing.read_bytes

    def slow_read(self, n, timeout=30.0):
        time.sleep(0.03)
        return real_read(self, n, timeout)

    monkeypatch.setattr(ShmRing, "read_bytes", slow_read)
    # Capacity fits any one (chunk, partition) record but not two.
    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="mesh", mesh_edge_capacity=200
    ) as pool:
        got = pool.execute(spec, chunks)
    assert_results_identical(ref, got)
    ring_stats = got.stats.ring
    assert ring_stats is not None
    assert ring_stats["stall_events"] >= 1
    assert ring_stats["stall_seconds"] > 0.0
    assert 0 < ring_stats["high_water_bytes"] <= 200
    assert ring_stats["queue_fallbacks"] == 0
    assert [(e["src"], e["dst"]) for e in ring_stats["per_edge"]] == [
        (0, 1), (1, 0)
    ]
    assert (
        sum(e["stall_events"] for e in ring_stats["per_edge"])
        == ring_stats["stall_events"]
    )


def test_ring_attach_and_cross_close():
    ring = ShmRing.create(capacity=128, record_size=24)
    other = ShmRing.attach(ring.name)
    assert other.capacity == 128
    assert other.record_size == 24
    other.write_bytes(b"hello")
    assert bytes(ring.read_bytes(5)) == b"hello"
    name = ring.name
    other.close()  # attachment never unlinks
    assert shm_segment_exists(name)
    ring.close()
    ring.close()  # idempotent
    assert not shm_segment_exists(name)


# -- shared-memory arena -----------------------------------------------------
def test_arena_publish_attach_and_cleanup():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    b = np.arange(6, dtype=np.int64)
    arena = ShmArena({"a": a, 7: b})
    assert isinstance(arena.spec, ArenaSpec)
    view = ArenaView(arena.spec)
    assert np.array_equal(view.array("a"), a)
    assert np.array_equal(view.array(7), b)
    assert not view.array("a").flags.writeable  # published data is immutable
    assert "a" in view and "missing" not in view
    name = arena.name
    view.close()
    arena.close()
    arena.close()  # idempotent
    assert not shm_segment_exists(name)


def test_arena_rejects_empty():
    with pytest.raises(ValueError):
        ShmArena({})


@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_pool_releases_all_segments_on_close(shuffle_mode):
    r, cam = make_scene()
    chunks, ctg = scene_job(r, cam)
    pool = SharedMemoryPoolExecutor(workers=2, shuffle_mode=shuffle_mode)
    pool.execute(r._spec(cam), chunks, ctg)
    names = _all_segment_names(pool)
    pool.close()
    for name in names:
        assert not shm_segment_exists(name), f"leaked segment {name}"
    pool.close()  # idempotent


def test_camera_pickle_excludes_ray_grid_cache():
    # The pool pickles a camera per frame; the lazily-built full-viewport
    # direction grid must not ride along.
    import pickle

    cam = orbit_camera((16, 16, 16), width=64, height=64)
    cam.rect_rays_f32(cam.full_rect())  # populate the cache
    assert "_dirs32_grid" in cam.__dict__
    clone = pickle.loads(pickle.dumps(cam))
    assert "_dirs32_grid" not in clone.__dict__
    # The clone still renders identically (cache rebuilt lazily).
    d1, k1 = cam.rect_rays_f32(cam.full_rect())
    d2, k2 = clone.rect_rays_f32(clone.full_rect())
    assert np.array_equal(d1, d2) and np.array_equal(k1, k2)


# -- executor config hygiene (shared-default fix) ----------------------------
def test_executor_configs_are_per_instance():
    assert InProcessExecutor().config is not InProcessExecutor().config
    p1 = SharedMemoryPoolExecutor(workers=1, serial=True)
    p2 = SharedMemoryPoolExecutor(workers=1, serial=True)
    assert p1.config is not p2.config
