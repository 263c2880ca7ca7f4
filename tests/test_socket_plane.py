"""Tests for the socket (tcp) shuffle plane (`repro.parallel.socketplane`).

The executor-parity and golden suites pin that the tcp plane is
bitwise-indistinguishable from the mesh plane; this layer tests
the plane machinery itself: the SocketMesh record protocol over AF_UNIX
and loopback TCP streams, its failure split (wedged send vs dropped
connection), host-spec placement, transport configuration and env
overrides, the structural zero-parent-bytes guarantee, and the
crash-safe sweep of deterministic listener-socket paths.
"""

import os
import time
import uuid

import numpy as np
import pytest

from repro.core import InProcessExecutor
from repro.parallel import (
    ENV_SOCKET_FAMILY,
    PoolConfig,
    RingTimeout,
    SharedMemoryPoolExecutor,
    SocketClosed,
    SocketMesh,
    parse_host_spec,
    socket_path,
)
from repro.parallel.shuffle import MESH_HEADER_NBYTES
from repro.parallel.socketplane import resolve_socket_family

from test_parallel_executor import (  # noqa: E402
    KV,
    ExitMapper,
    ModSquareMapper,
    _generic_job as _job,
)
from test_shuffle_plane import assert_outputs_identical  # noqa: E402


# -- transport configuration -------------------------------------------------
def test_resolve_socket_family_precedence(monkeypatch):
    monkeypatch.delenv(ENV_SOCKET_FAMILY, raising=False)
    assert resolve_socket_family() in ("unix", "inet")
    assert resolve_socket_family("inet") == "inet"
    monkeypatch.setenv(ENV_SOCKET_FAMILY, "inet")
    assert resolve_socket_family() == "inet"
    # Explicit beats the environment.
    assert resolve_socket_family("unix") == "unix"
    monkeypatch.setenv(ENV_SOCKET_FAMILY, "bogus")
    with pytest.raises(ValueError, match="REPRO_SOCKET_FAMILY"):
        resolve_socket_family()
    with pytest.raises(ValueError, match="'unix' or 'inet'"):
        resolve_socket_family("tcp4")
    with pytest.raises(ValueError):
        PoolConfig(socket_family="bogus")
    monkeypatch.delenv(ENV_SOCKET_FAMILY, raising=False)
    assert PoolConfig(socket_family="inet").resolved_socket_family() == "inet"


def test_parse_host_spec_shapes():
    assert parse_host_spec(None, 3) == [0, 0, 0]
    assert parse_host_spec(2, 4) == [0, 1, 0, 1]
    assert parse_host_spec("2", 4) == [0, 1, 0, 1]
    assert parse_host_spec("0,0,1,1", 4) == [0, 0, 1, 1]
    assert parse_host_spec([0, 1], 2) == [0, 1]
    assert parse_host_spec(1, 2) == [0, 0]


@pytest.mark.parametrize(
    "spec,workers",
    [
        (0, 2),              # host count must be >= 1
        ("0,1", 3),          # list length != workers
        ("0,-1", 2),         # negative host id
        ("1,1", 2),          # host 0 unpopulated (arena lives there)
        ("zero", 2),         # neither count nor list
        ("0,x", 2),          # non-integer list entry
    ],
)
def test_parse_host_spec_rejects(spec, workers):
    with pytest.raises(ValueError):
        parse_host_spec(spec, workers)


def test_executor_resolves_tcp_plane_at_construction():
    ex = SharedMemoryPoolExecutor(workers=2, shuffle_mode="tcp")
    assert ex.tcp_active and not ex.mesh_active
    assert ex.effective_shuffle_mode == "tcp"
    assert ex.socket_family in ("unix", "inet")
    # The mesh resolves no socket family.
    ex = SharedMemoryPoolExecutor(workers=2, shuffle_mode="mesh")
    assert not ex.tcp_active and ex.socket_family is None


def test_multi_host_spec_requires_tcp_plane():
    # Multi-host placement over a shared-memory transport is a lie —
    # construction must fail, not a worker at attach time.
    with pytest.raises(ValueError, match="multi-host"):
        SharedMemoryPoolExecutor(
            workers=2, shuffle_mode="mesh", host_spec="0,1"
        )
    with pytest.raises(ValueError, match="multi-host"):
        SharedMemoryPoolExecutor(workers=2, host_spec=2)
    # With the socket plane it is legal.
    ex = SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp", host_spec="0,1"
    )
    assert ex.multi_host and ex.host_ids == [0, 1]


# -- the record protocol over loopback streams -------------------------------
def make_pair_sock(family="unix", timeout=2.0):
    """Two cross-attached SocketMesh halves in one process."""
    token = uuid.uuid4().hex[:12]
    m0 = SocketMesh(0, 2, timeout, token=token, family=family)
    m1 = SocketMesh(1, 2, timeout, token=token, family=family)
    m0.attach_row({1: m1.address})
    m1.attach_row({0: m0.address})
    return m0, m1


@pytest.mark.parametrize("family", ["unix", "inet"])
def test_socket_mesh_roundtrip_restores_chunk_order(family):
    """Same contract as the shm-mesh roundtrip test: partition runs
    arriving out of chunk order (with an empty run and a self-routed
    record in the mix) reassemble in chunk order — over either address
    family, since the wire format is identical."""
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock(family=family)
    try:
        def run(ci, n):
            r = np.zeros(n, dtype=kv)
            r["key"] = np.arange(n) + 100 * ci
            return r

        assert m0.send(seq=5, ci=2, part=1, run=run(2, 3), owner=1)
        assert m0.send(seq=5, ci=0, part=1, run=run(0, 0), owner=1)  # empty
        assert m0.send(seq=5, ci=0, part=0, run=run(0, 2), owner=0)  # self
        # Self-routed records never touch a socket; wire traffic is
        # exactly the two shipped records.
        assert m0.bytes_sent == 2 * MESH_HEADER_NBYTES + (3 + 0) * kv.itemsize

        assert m1.send(seq=5, ci=1, part=1, run=run(1, 4), owner=1)
        got = m1.take_frame(seq=5, owned=[1], n_chunks=3, kv_dtype=kv)
        assert [len(row[0]) for row in got] == [0, 4, 3]  # chunk order
        assert got[1][0]["key"].tolist() == [100, 101, 102, 103]
        assert got[2][0]["key"].tolist() == [200, 201, 202]
        got0 = m0.take_frame(seq=5, owned=[0], n_chunks=1, kv_dtype=kv)
        assert got0[0][0]["key"].tolist() == [0, 1]
        assert m1.bytes_received == m0.bytes_sent
    finally:
        m0.close()
        m1.close()


def test_socket_mesh_frames_never_interleave():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock()
    try:
        def run(tag, n=2):
            r = np.zeros(n, dtype=kv)
            r["key"] = np.arange(n) + tag
            return r

        # Pipelined frames interleave on the wire; per-seq stashes must
        # keep them apart — same semantics as the shm mesh.
        assert m0.send(1, 0, 1, run(10), owner=1)
        assert m0.send(2, 0, 1, run(20), owner=1)
        assert m1.send(1, 1, 1, run(11), owner=1)  # self
        assert m1.send(2, 1, 1, run(21), owner=1)  # self
        f1 = m1.take_frame(1, owned=[1], n_chunks=2, kv_dtype=kv)
        assert f1[0][0]["key"].tolist() == [10, 11]
        assert f1[1][0]["key"].tolist() == [11, 12]
        f2 = m1.take_frame(2, owned=[1], n_chunks=2, kv_dtype=kv)
        assert f2[0][0]["key"].tolist() == [20, 21]
        assert f2[1][0]["key"].tolist() == [21, 22]
    finally:
        m0.close()
        m1.close()


def test_socket_mesh_watermark_times_out_on_missing_records():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock(timeout=0.1)
    try:
        assert m0.send(1, 0, 1, np.zeros(1, dtype=kv), owner=1)
        t0 = time.monotonic()
        with pytest.raises(RingTimeout, match="watermark"):
            m1.take_frame(1, owned=[1], n_chunks=2, kv_dtype=kv)
        assert time.monotonic() - t0 >= 0.1
    finally:
        m0.close()
        m1.close()


def test_socket_mesh_dropped_peer_fails_watermark_fast():
    """A peer that vanishes with a frame watermark still incomplete can
    never complete it: take_frame must raise SocketClosed immediately
    instead of burning the whole watermark timeout."""
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock(timeout=30.0)  # never reached
    try:
        assert m0.send(1, 0, 1, np.zeros(1, dtype=kv), owner=1)
        m0.close()  # peer dies; 1 of 2 expected records delivered
        t0 = time.monotonic()
        with pytest.raises(SocketClosed, match="watermark incomplete"):
            m1.take_frame(1, owned=[1], n_chunks=2, kv_dtype=kv)
        assert time.monotonic() - t0 < 5.0  # fast-fail, not the 30s wait
    finally:
        m0.close()
        m1.close()


def test_socket_mesh_graceful_eof_between_records_is_not_an_error():
    """EOF with no watermark pending is pool-teardown order, not a
    failure: the already-delivered frame must still reduce."""
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock()
    try:
        run = np.zeros(3, dtype=kv)
        run["key"] = [7, 8, 9]
        assert m0.send(1, 0, 1, run, owner=1)
        m0.close()  # graceful: every record of frame 1 already shipped
        got = m1.take_frame(1, owned=[1], n_chunks=1, kv_dtype=kv)
        assert got[0][0]["key"].tolist() == [7, 8, 9]
    finally:
        m0.close()
        m1.close()


def test_socket_mesh_send_into_dead_peer_raises_socket_closed():
    kv = np.dtype([("key", np.int32), ("val", np.float32)])
    m0, m1 = make_pair_sock()
    try:
        m1.close()
        run = np.zeros(64, dtype=kv)
        with pytest.raises(SocketClosed, match="dropped mid-send"):
            # The first send(s) may land in the kernel buffer before the
            # reset propagates; keep pushing until EPIPE/ECONNRESET.
            for ci in range(256):
                m0.send(1, ci, 1, run, owner=1)
    finally:
        m0.close()
        m1.close()


def test_socket_path_is_deterministic_and_closed_mesh_unlinks_it():
    token = uuid.uuid4().hex[:12]
    assert socket_path(token, 3).endswith(f"repro_sock_{token}_3.sock")
    m = SocketMesh(0, 2, 1.0, token=token, family="unix")
    assert os.path.exists(socket_path(token, 0))
    m.close()
    assert not os.path.exists(socket_path(token, 0))


def test_cleanup_sweeps_socket_paths_even_without_handshake():
    """Listener paths are deterministic and recorded before forking, so
    teardown unlinks a dead worker's socket file even when the worker
    never reported anything — the tcp twin of the mesh edge sweep."""
    from repro.parallel.pool import _cleanup

    token = uuid.uuid4().hex[:12]
    created = socket_path(token, 0)
    never_created = socket_path(token, 1)
    with open(created, "w"):
        pass
    assert os.path.exists(created)
    _cleanup({"socket_paths": [created, never_created]})
    assert not os.path.exists(created)
    assert not os.path.exists(never_created)


# -- generic pool jobs over the socket plane ---------------------------------
def test_tcp_zero_run_bytes_through_parent_and_stats_schema():
    """The acceptance-criteria counter: with worker-side reduce on the
    tcp plane the parent touches zero run bytes — structurally, since
    streams have no capacity cliff and therefore no relay fallback —
    and the ring stats report the wire traffic instead."""
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)

    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp"
    ) as pool:
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    ring = got.stats.ring
    assert ring["shuffle_mode"] == "tcp"
    assert ring["parent_run_bytes"] == 0
    assert ring["queue_fallbacks"] == 0
    assert ring["wire_bytes_total"] > 0
    assert ring["socket_family"] in ("unix", "inet")
    assert ring["ring_capacity"] is None  # streams have no fixed capacity
    assert {"worker", "stall_seconds", "stall_events", "high_water_bytes",
            "bytes_sent", "bytes_received"} <= set(ring["per_worker"][0])


def test_tcp_multi_host_workers_match_inprocess():
    """Workers placed on distinct "hosts" (no shared arena mapping for
    host != 0) still reproduce the in-process result bitwise: chunk
    payloads travel inline and runs travel over the sockets."""
    spec, chunks = _job(ModSquareMapper(9), n_chunks=4)
    ref = InProcessExecutor().execute(spec, chunks)
    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp", host_spec="0,1"
    ) as pool:
        got = pool.execute(spec, chunks)
        assert pool.multi_host
    assert_outputs_identical(ref, got)
    assert got.stats.ring["parent_run_bytes"] == 0


def test_tcp_pool_leaves_no_socket_files_on_close():
    spec, chunks = _job(ModSquareMapper(9))
    pool = SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp"
    )
    try:
        pool.execute(spec, chunks)
        paths = list(pool._state["socket_paths"])
        assert len(paths) == 2  # one listener per worker
    finally:
        pool.close()
    for path in paths:
        assert not os.path.exists(path), f"leaked socket file {path}"


def test_tcp_pool_sweeps_socket_files_after_crash_teardown():
    """A worker hard-killed mid-frame never unlinks its own listener;
    the parent's deterministic-path sweep must."""
    good_spec, chunks = _job(ModSquareMapper(9), n_chunks=4)
    crash_spec, _ = _job(ExitMapper(kill_chunk=1), n_chunks=4)
    placement = [0, 1, 0, 1]
    pool = SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp",
        supervise=False,  # pin legacy fail-fast teardown semantics
    )
    try:
        pool.execute(good_spec, chunks, placement)
        paths = list(pool._state["socket_paths"])
        with pytest.raises(
            RuntimeError, match="died during execute|dropped connection"
        ):
            pool.execute(crash_spec, chunks, placement)
        assert not pool.running
        for path in paths:
            assert not os.path.exists(path), f"leaked socket file {path}"
        # And the pool restarts cleanly on the next execute.
        ref = InProcessExecutor().execute(good_spec, chunks, placement)
        got = pool.execute(good_spec, chunks, placement)
        assert_outputs_identical(ref, got)
    finally:
        pool.close()


def test_tcp_inet_family_matches_inprocess(monkeypatch):
    monkeypatch.setenv(ENV_SOCKET_FAMILY, "inet")
    spec, chunks = _job(ModSquareMapper(9))
    ref = InProcessExecutor().execute(spec, chunks)
    with SharedMemoryPoolExecutor(
        workers=2, shuffle_mode="tcp"
    ) as pool:
        assert pool.socket_family == "inet"
        got = pool.execute(spec, chunks)
    assert_outputs_identical(ref, got)
    assert got.stats.ring["socket_family"] == "inet"
    assert got.stats.ring["parent_run_bytes"] == 0
