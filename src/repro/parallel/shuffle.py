"""The shuffle plane: how fragment runs move between pool workers.

The paper's GPUs exchange emitted fragments *directly* over the
interconnect during the shuffle into Sort/Reduce; the parent CPU only
orchestrates.  The pool executor keeps that separation: every worker
maps its chunks, ships each partition's run straight to the worker that
owns the partition, and Sort+Reduces the partitions it owns.  The
parent is a pure **control plane** (publish, seal, stitch, teardown).
Two interchangeable transports carry the runs, selected by
``shuffle_mode``:

``MeshShuffle`` (``"mesh"``, the default)
    An N×N mesh of SPSC shared-memory rings (one *edge* per ordered
    worker pair, see :mod:`repro.parallel.ring`): each mapper writes a
    partition's run **directly** into the owning reducer worker's
    inbound edge, tagged ``(frame, chunk index, partition)`` so the
    owner can restore chunk order and execute the literal
    :func:`~repro.core.executors.merge_partition_runs` — the parent
    never touches run bytes (asserted by the ``parent_run_bytes``
    counter it exports).  Runs a mapper owns itself short-circuit
    through a local stash, no copy.  Edges are created by the *reader*
    worker after CPU pinning (first touch lands on its node) but
    unlinked by the parent, preserving the zero-leak teardown
    guarantee even when a worker dies mid-shuffle.

``SocketShuffle`` (``"tcp"``)
    The same direct worker↔worker exchange over **byte streams**
    (AF_UNIX on one host, loopback TCP otherwise — see
    :mod:`repro.parallel.socketplane`) instead of shared-memory rings:
    the off-box plane.  Identical record protocol, watermarks, and
    cooperative drain; no shared segment is required, so with a
    ``host_spec`` the executor can place workers on separate "hosts"
    and ship chunk payloads over the wire instead of the shm arena.
    Streams have no record-size cliff, so the tcp plane has *no*
    queue-fallback path and ``parent_run_bytes`` is structurally zero.
    A dropped connection surfaces as a recoverable
    :class:`~repro.parallel.socketplane.SocketClosed`.

Both planes feed byte-identical, chunk-ordered runs into the identical
reducer code, so outputs are bitwise-equal across planes by
construction — the plane only decides *which medium the bytes
traverse*.

Mesh record protocol
--------------------
One record per ``(chunk, partition)`` — **including empty runs** — is
written to the owner's inbound edge as a single atomic ring write::

    [ 32-byte header: u64 seq | u64 chunk | u64 partition | u64 nbytes ]
    [ nbytes of raw KV pairs (the run, in emission order) ]

Because :class:`~repro.parallel.ring.ShmRing` publishes its write
cursor only after the whole copy, a reader that observes ``used >= 32``
always has a complete record available — the inbound poll never blocks.
Writing every ``(chunk, partition)`` record (empty ones are header
-only) gives the owner a deterministic **per-frame completion
watermark**: frame ``seq`` is complete exactly when ``n_chunks ×
len(owned partitions)`` records have arrived, so pipelined frames can
interleave on the wire without ever interleaving in a reduce.

Backpressure and deadlock freedom: a writer blocked on a full outbound
edge cooperatively drains its *own* inbound edges while waiting
(:meth:`WorkerMesh.poll` via the ring's ``on_wait`` hook), so a cycle
of mutually backpressured workers always makes progress.  A record too
large for its edge falls back to the parent queue (relayed to the
owner, counted in ``queue_fallbacks``) instead of deadlocking.  A
truly wedged edge (dead peer) surfaces as a
:class:`~repro.parallel.ring.RingTimeout` after the configurable
``ring_write_timeout`` (and an incomplete frame watermark after
``watermark_timeout``), which hands the failure to the executor's
supervision layer (:mod:`repro.parallel.supervise`): the transport
epoch is recycled and the affected frames re-execute bitwise-identically
— or, with ``supervise=False``, the whole pool tears down as before.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.executors import ShuffleSpec
from ..observability.tracer import span
from .faults import ENV_FAULT_PLAN, resolve_fault_plan
from .ring import _POLL_SECONDS, RingTimeout, ShmRing
from .supervise import worker_error_to_exception

__all__ = [
    "DEFAULT_MAX_FRAME_RETRIES",
    "DEFAULT_RETRY_BACKOFF",
    "DEFAULT_RING_WRITE_TIMEOUT",
    "ENV_FAULT_PLAN",
    "ENV_MAX_FRAME_RETRIES",
    "ENV_RETRY_BACKOFF",
    "ENV_RING_WRITE_TIMEOUT",
    "ENV_SHUFFLE_MODE",
    "ENV_WATERMARK_TIMEOUT",
    "MESH_HEADER_NBYTES",
    "MeshShuffle",
    "PoolConfig",
    "SocketShuffle",
    "WorkerMesh",
]

#: Environment override for :attr:`PoolConfig.ring_write_timeout` —
#: lets soak tests (and impatient operators) shorten the wedged-edge
#: detection bound without monkeypatching worker code.
ENV_RING_WRITE_TIMEOUT = "REPRO_RING_WRITE_TIMEOUT"

#: Environment override for ``shuffle_mode="auto"`` resolution — the CI
#: slow matrix forces each plane in turn through this.
ENV_SHUFFLE_MODE = "REPRO_SHUFFLE_MODE"

#: Environment override for :attr:`PoolConfig.watermark_timeout` — how
#: long a mesh reducer waits for a frame's completion watermark before
#: declaring the frame's shuffle wedged.
ENV_WATERMARK_TIMEOUT = "REPRO_WATERMARK_TIMEOUT"

#: Environment override for :attr:`PoolConfig.max_frame_retries`.
ENV_MAX_FRAME_RETRIES = "REPRO_MAX_FRAME_RETRIES"

#: Environment override for :attr:`PoolConfig.retry_backoff`.
ENV_RETRY_BACKOFF = "REPRO_RETRY_BACKOFF"

#: How long a blocked ring/edge write may sit in backpressure before it
#: is declared wedged.  With ``pipeline_depth > 1`` a blocked write is
#: the *normal* flow-control state (the consumer is legitimately busy
#: with the previous frame), so the bound is generous; it exists only
#: so a dead peer surfaces as a RingTimeout instead of a silent hang.
DEFAULT_RING_WRITE_TIMEOUT = 300.0

#: How many times one in-flight frame may be re-executed after an
#: infrastructure failure before the pool sheds a worker (the
#: degradation ladder's per-width retry budget).
DEFAULT_MAX_FRAME_RETRIES = 2

#: Total shared-memory budget of one mesh, split evenly over each
#: worker's inbound edges (see :meth:`PoolConfig.resolved_edge_capacity`).
MESH_BUDGET_BYTES = 8 << 20

#: Base of the exponential backoff between recovery attempts, seconds.
#: Small by default: respawning forked workers is cheap, and the arena
#: (the expensive state) survives recovery anyway.
DEFAULT_RETRY_BACKOFF = 0.05

#: Mesh record header: (frame seq, chunk index, partition, payload bytes).
MESH_HEADER_DTYPE = np.dtype(
    [("seq", "<u8"), ("chunk", "<u8"), ("part", "<u8"), ("nbytes", "<u8")]
)
MESH_HEADER_NBYTES = MESH_HEADER_DTYPE.itemsize  # 32


def mesh_fd_headroom(workers: int) -> tuple:
    """Whether the parent can afford the mesh's O(N²) attachments.

    The parent holds every edge ring open (N(N-1) ``shm_open`` fds for
    counters and crash-safe unlink) on top of per-worker queues/pipes;
    on a many-core host with the default soft ``RLIMIT_NOFILE`` of 1024
    that cliff arrives around ~30 workers.  Returns
    ``(fits, needed_estimate, soft_limit)`` — ``fits`` leaves half the
    soft limit free for the application; ``soft_limit`` is -1 when the
    limit is unknown or unlimited (always fits).
    """
    workers = int(workers)
    needed = workers * (workers - 1) + 4 * workers + 64
    try:
        import resource

        soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft == resource.RLIM_INFINITY:
            return True, needed, -1
    except Exception:  # pragma: no cover - non-POSIX
        return True, needed, -1
    return needed <= soft // 2, needed, int(soft)


def mesh_edge_name(token: str, src: int, dst: int) -> str:
    """Deterministic segment name for the ``src → dst`` edge of one mesh.

    Edges are *created* by their reader worker (after pinning), but the
    parent must be able to unlink every edge even when a worker dies
    before reporting anything — including during the handshake itself.
    A per-pool token plus the edge coordinates makes every name known
    to the parent in advance, so teardown never depends on a message
    that a dead worker failed to send.
    """
    return f"repro_mesh_{token}_{src}_{dst}"


@dataclass(frozen=True)
class PoolConfig:
    """Transport knobs of the pool executor's data plane.

    Everything here is *mechanism*, not meaning: no setting may change
    rendered output (the parity suites enforce it); they trade memory,
    latency, and failure-detection bounds.

    mesh_edge_capacity:
        Per-edge mesh ring size in bytes; default
        ``max(64 KiB, MESH_BUDGET_BYTES // workers)``.
    ring_write_timeout:
        Seconds a blocked ring **or mesh-edge** write may wait before
        raising :class:`~repro.parallel.ring.RingTimeout` (recovered by
        the supervision layer, or fatal with ``supervise=False``).
        ``None`` reads ``$REPRO_RING_WRITE_TIMEOUT``, falling back to
        :data:`DEFAULT_RING_WRITE_TIMEOUT`.
    shuffle_mode:
        ``"mesh"``, ``"tcp"``, or ``"auto"`` (default).  Auto reads
        ``$REPRO_SHUFFLE_MODE`` if set, else picks ``"mesh"``; it picks
        ``"tcp"`` only when the parent lacks the file descriptors for a
        mesh (see :func:`mesh_fd_headroom`), because on one
        shared-memory box the shm mesh is the measured default and the
        socket plane is the off-box regime.
    socket_family:
        Address family of the tcp plane's edge streams: ``"unix"``
        (AF_UNIX, default where available) or ``"inet"`` (loopback
        TCP).  ``None`` reads ``$REPRO_SOCKET_FAMILY``.  Ignored by
        the other planes.
    pin_workers:
        Opt-in NUMA/core pinning: give each worker its own core via
        ``os.sched_setaffinity`` before it allocates its inbound mesh
        edges (first-touch locality).  No-op with a warning when
        affinity is unavailable or there are fewer cores than workers.
    watermark_timeout:
        Seconds a mesh reducer waits for a frame's completion watermark
        (``n_chunks × owned`` records) before declaring the frame's
        shuffle wedged.  ``None`` reads ``$REPRO_WATERMARK_TIMEOUT``,
        falling back to the resolved ring write timeout (the watermark
        wait is the shuffle-in mirror of a blocked shuffle-out write,
        so by default they share one detection bound).
    supervise:
        Whether the executor recovers from *infrastructure* failures
        (dead workers, wedged edges, expired watermarks) by respawning
        in place and re-executing the affected frames, instead of
        tearing the whole pool down (the pre-supervision behavior,
        available as ``supervise=False``).  Recovery never changes
        rendered output — re-executed frames are bitwise-identical by
        the chunk-order-merge invariant.
    max_frame_retries:
        How many times one in-flight frame may be re-executed at a
        given pool width before the pool degrades (sheds a worker;
        at width 0 it falls back to the serial executor).  ``None``
        reads ``$REPRO_MAX_FRAME_RETRIES`` (default 2); negative
        values raise.
    retry_backoff:
        Base of the exponential backoff slept between recovery
        attempts, in seconds.  ``None`` reads ``$REPRO_RETRY_BACKOFF``
        (default 0.05); negative values raise, zero disables backoff
        (the fault-injection suites use that to keep recovery tests
        fast).
    fault_plan:
        Deterministic fault-injection plan string for the workers (see
        :mod:`repro.parallel.faults` for the grammar), or ``None``
        (read ``$REPRO_FAULT_PLAN``; empty means no injection).  For
        testing the recovery machinery only — injected faults crash,
        exit, or stall workers at exact stage boundaries.
    """

    mesh_edge_capacity: Optional[int] = None
    ring_write_timeout: Optional[float] = None
    shuffle_mode: str = "auto"
    socket_family: Optional[str] = None
    pin_workers: bool = False
    watermark_timeout: Optional[float] = None
    supervise: bool = True
    max_frame_retries: Optional[int] = None
    retry_backoff: Optional[float] = None
    fault_plan: Optional[str] = None

    def __post_init__(self):
        if self.mesh_edge_capacity is not None and self.mesh_edge_capacity < (
            MESH_HEADER_NBYTES + 1
        ):
            raise ValueError(
                f"mesh edge capacity must exceed the {MESH_HEADER_NBYTES}-byte "
                "record header"
            )
        if self.shuffle_mode not in ("auto", "mesh", "tcp"):
            raise ValueError(f"unknown shuffle_mode {self.shuffle_mode!r}")
        if self.socket_family is not None and self.socket_family not in (
            "unix",
            "inet",
        ):
            raise ValueError(
                f"socket family {self.socket_family!r} must be 'unix' or 'inet'"
            )
        if self.ring_write_timeout is not None and self.ring_write_timeout <= 0:
            raise ValueError("ring write timeout must be positive")
        if self.watermark_timeout is not None and self.watermark_timeout <= 0:
            raise ValueError("watermark timeout must be positive")
        if self.max_frame_retries is not None and self.max_frame_retries < 0:
            raise ValueError("max frame retries cannot be negative")
        if self.retry_backoff is not None and self.retry_backoff < 0:
            raise ValueError("retry backoff cannot be negative")
        if self.fault_plan is not None:
            # Validate the grammar at configuration time, in the parent —
            # a typo must not surface as a cryptic worker error after
            # spawn (resolution happens again in resolved_fault_plan()).
            from .faults import FaultPlan

            FaultPlan.parse(self.fault_plan)

    def resolved_ring_write_timeout(self) -> float:
        if self.ring_write_timeout is not None:
            return float(self.ring_write_timeout)
        env = os.environ.get(ENV_RING_WRITE_TIMEOUT, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_RING_WRITE_TIMEOUT}={env!r} is not a number"
                ) from None
            if value <= 0:
                raise ValueError(
                    f"${ENV_RING_WRITE_TIMEOUT}={env!r} must be positive"
                )
            return value
        return DEFAULT_RING_WRITE_TIMEOUT

    def resolved_watermark_timeout(self) -> float:
        """Explicit > ``$REPRO_WATERMARK_TIMEOUT`` > the resolved ring
        write timeout (validated like the ring timeout: nonpositive or
        non-numeric values raise rather than silently falling back)."""
        if self.watermark_timeout is not None:
            return float(self.watermark_timeout)
        env = os.environ.get(ENV_WATERMARK_TIMEOUT, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_WATERMARK_TIMEOUT}={env!r} is not a number"
                ) from None
            if value <= 0:
                raise ValueError(
                    f"${ENV_WATERMARK_TIMEOUT}={env!r} must be positive"
                )
            return value
        return self.resolved_ring_write_timeout()

    def resolved_max_frame_retries(self) -> int:
        """Explicit > ``$REPRO_MAX_FRAME_RETRIES`` > default (2);
        negative or non-integer values raise."""
        if self.max_frame_retries is not None:
            return int(self.max_frame_retries)
        env = os.environ.get(ENV_MAX_FRAME_RETRIES, "").strip()
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_MAX_FRAME_RETRIES}={env!r} is not an integer"
                ) from None
            if value < 0:
                raise ValueError(
                    f"${ENV_MAX_FRAME_RETRIES}={env!r} cannot be negative"
                )
            return value
        return DEFAULT_MAX_FRAME_RETRIES

    def resolved_retry_backoff(self) -> float:
        """Explicit > ``$REPRO_RETRY_BACKOFF`` > default (0.05 s);
        negative or non-numeric values raise, zero disables backoff."""
        if self.retry_backoff is not None:
            return float(self.retry_backoff)
        env = os.environ.get(ENV_RETRY_BACKOFF, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError:
                raise ValueError(
                    f"${ENV_RETRY_BACKOFF}={env!r} is not a number"
                ) from None
            if value < 0:
                raise ValueError(
                    f"${ENV_RETRY_BACKOFF}={env!r} cannot be negative"
                )
            return value
        return DEFAULT_RETRY_BACKOFF

    def resolved_fault_plan(self) -> Optional[str]:
        """Explicit > ``$REPRO_FAULT_PLAN`` > None, grammar-validated
        (see :func:`repro.parallel.faults.resolve_fault_plan`)."""
        return resolve_fault_plan(self.fault_plan)

    def resolved_shuffle_mode(self) -> str:
        mode = self.shuffle_mode
        if mode == "auto":
            env = os.environ.get(ENV_SHUFFLE_MODE, "").strip()
            if env:
                if env not in ("mesh", "tcp"):
                    raise ValueError(
                        f"${ENV_SHUFFLE_MODE}={env!r} must be 'mesh' or 'tcp'"
                    )
                return env
            return "mesh"
        return mode

    def resolved_socket_family(self) -> str:
        """Explicit > ``$REPRO_SOCKET_FAMILY`` > ``"unix"`` where
        AF_UNIX exists, else ``"inet"`` (validated either way)."""
        from .socketplane import resolve_socket_family

        return resolve_socket_family(self.socket_family)

    def shuffle_mode_is_explicit(self) -> bool:
        """Whether a plane was deliberately pinned — by the config/kwarg
        or by ``$REPRO_SHUFFLE_MODE`` — rather than left to the auto
        heuristic.  Callers that would silently override the resolved
        plane (e.g. the fd-headroom guard) must fail loudly instead
        when this is True; keeping the env sniffing here, next to
        :meth:`resolved_shuffle_mode`, keeps one source of truth for
        what counts as an explicit request."""
        return self.shuffle_mode != "auto" or bool(
            os.environ.get(ENV_SHUFFLE_MODE, "").strip()
        )

    def resolved_edge_capacity(self, workers: int) -> int:
        if self.mesh_edge_capacity is not None:
            return int(self.mesh_edge_capacity)
        return max(1 << 16, MESH_BUDGET_BYTES // max(1, int(workers)))


# ---------------------------------------------------------------------------
# Worker half of the mesh: inbound edge ownership + outbound routing.
# ---------------------------------------------------------------------------
class WorkerMesh:
    """One worker's view of the N×N edge mesh.

    Owns this worker's **inbound** edges (created here, after pinning,
    so the pages are first-touched on the worker's node; the parent
    adopts unlink duty) and attaches to the **outbound** edges other
    workers created, once the parent broadcasts the name matrix.

    Incoming records are drained opportunistically (:meth:`poll` never
    blocks — complete records only, see the module docstring) into a
    per-frame stash, and :meth:`take_frame` turns a completed frame's
    stash back into the chunk-ordered ``runs_per_chunk`` layout the
    literal merge function consumes.  Frames never interleave: every
    record carries its frame seq, and a frame is only consumed once its
    completion watermark (``n_chunks × owned partitions`` records) is
    reached.
    """

    def __init__(
        self,
        worker_id: int,
        n_workers: int,
        edge_capacity: int,
        write_timeout: float,
        token: Optional[str] = None,
        watermark_timeout: Optional[float] = None,
    ):
        self.worker_id = int(worker_id)
        self.n_workers = int(n_workers)
        self.edge_capacity = int(edge_capacity)
        self.write_timeout = float(write_timeout)
        # The frame-completion wait has its own configurable bound
        # (PoolConfig.watermark_timeout / $REPRO_WATERMARK_TIMEOUT);
        # it defaults to the write timeout, the pre-knob behavior.
        self.watermark_timeout = (
            float(watermark_timeout)
            if watermark_timeout is not None
            else float(write_timeout)
        )
        # Inbound edge from every *other* worker; runs routed to self
        # short-circuit through the stash without touching a ring.
        # With a pool token the names are deterministic (see
        # :func:`mesh_edge_name`), so the parent can always unlink them.
        self.inbound: Dict[int, ShmRing] = {
            i: ShmRing.create(
                self.edge_capacity,
                record_size=1,
                name=(
                    mesh_edge_name(token, i, self.worker_id)
                    if token is not None
                    else None
                ),
            )
            for i in range(self.n_workers)
            if i != self.worker_id
        }
        self.outbound: Dict[int, ShmRing] = {}
        # seq -> {(chunk index, partition): raw bytes | ndarray}
        self._stash: Dict[int, dict] = {}

    @property
    def inbound_names(self) -> Dict[int, str]:
        """Writer id → segment name, reported to the parent once."""
        return {i: ring.name for i, ring in self.inbound.items()}

    def attach_row(self, names: Dict[int, str]) -> None:
        """Attach to the inbound edges of every peer (this row's writes)."""
        for j, name in names.items():
            if j not in self.outbound:
                self.outbound[j] = ShmRing.attach(name)

    # -- receiving ---------------------------------------------------------
    def _put(self, seq: int, ci: int, part: int, payload) -> None:
        self._stash.setdefault(seq, {})[(ci, part)] = payload

    def stash_relay(self, seq: int, ci: int, part: int, run) -> None:
        """Accept a parent-relayed oversized record (queue fallback)."""
        self._put(seq, ci, part, run)

    def poll(self) -> bool:
        """Drain every complete record currently visible on any inbound
        edge into the stash.  Never blocks; returns whether anything
        arrived.  Safe to call from inside a blocked outbound write
        (the ``on_wait`` hook) — that is what makes writer cycles
        deadlock-free."""
        got = False
        for ring in self.inbound.values():
            while ring.used >= MESH_HEADER_NBYTES:
                hdr = np.frombuffer(
                    ring.read_bytes(MESH_HEADER_NBYTES, timeout=self.write_timeout),
                    MESH_HEADER_DTYPE,
                )[0]
                payload = ring.read_bytes(
                    int(hdr["nbytes"]), timeout=self.write_timeout
                )
                self._put(
                    int(hdr["seq"]), int(hdr["chunk"]), int(hdr["part"]), payload
                )
                got = True
        return got

    # -- sending -----------------------------------------------------------
    def send(self, seq: int, ci: int, part: int, run: np.ndarray, owner: int) -> bool:
        """Ship one ``(chunk, partition)`` run to its owning worker.

        Returns False when the record cannot fit the edge at all — the
        caller must fall back to the parent-queue relay (the record
        still counts toward the owner's watermark, it just travels the
        control plane).  ``run`` must be C-contiguous.
        """
        if owner == self.worker_id:
            self._put(seq, ci, part, run)
            return True
        ring = self.outbound[owner]
        n = int(run.nbytes)
        if MESH_HEADER_NBYTES + n > ring.capacity:
            return False
        header = np.array(
            [(seq, ci, part, n)], dtype=MESH_HEADER_DTYPE
        ).view(np.uint8)
        # One atomic publish per record (header + payload, single write
        # cursor update): a visible header implies a visible payload, so
        # readers never block mid-record — and the run bytes are copied
        # exactly once, straight into the ring.
        ring.write_vec(
            (header, run.view(np.uint8).reshape(-1)),
            timeout=self.write_timeout,
            on_wait=self.poll,
        )
        return True

    # -- reducing ----------------------------------------------------------
    def take_frame(
        self,
        seq: int,
        owned: list,
        n_chunks: int,
        kv_dtype: np.dtype,
    ) -> list:
        """Wait for frame ``seq``'s completion watermark, then return its
        chunk-ordered runs for this worker's ``owned`` partitions —
        exactly the ``runs_per_chunk`` layout
        :func:`~repro.core.executors.merge_partition_runs` consumes.

        By the control-plane contract this is called only after the
        parent observed every map completion for ``seq`` (sealing), so
        all records are already published (in edges, the stash, or
        relayed ahead of the reduce message on the task queue) and the
        wait below terminates immediately in practice; the timeout
        guards against protocol violations, not flow control.
        """
        kv_dtype = np.dtype(kv_dtype)
        expected = int(n_chunks) * len(owned)
        deadline = time.monotonic() + self.watermark_timeout
        frame = self._stash.setdefault(seq, {})
        with span("shuffle-in", cat="shuffle", frame=seq, records=expected):
            while len(frame) < expected:
                if not self.poll() and len(frame) < expected:
                    if time.monotonic() > deadline:
                        raise RingTimeout(
                            f"mesh watermark for frame {seq} not reached: "
                            f"{len(frame)}/{expected} records after "
                            f"{self.watermark_timeout}s"
                        )
                    time.sleep(_POLL_SECONDS)
        records = self._stash.pop(seq)
        runs_per_chunk = []
        for ci in range(int(n_chunks)):
            row = []
            for part in owned:
                raw = records[(ci, part)]
                if not isinstance(raw, np.ndarray):
                    raw = np.frombuffer(raw, dtype=kv_dtype)
                row.append(raw)
            runs_per_chunk.append(row)
        return runs_per_chunk

    def close(self) -> None:
        """Detach everything.  Inbound edges were created here, but the
        *parent* owns unlink (crash-safe teardown); a clean close still
        unlinks defensively — double unlink is guarded in the ring."""
        for ring in self.outbound.values():
            ring.close()
        self.outbound = {}
        for ring in self.inbound.values():
            ring.close()
        self.inbound = {}
        self._stash.clear()


# ---------------------------------------------------------------------------
# Parent-side planes: the control-plane view of the two transports.
# ---------------------------------------------------------------------------
class MeshShuffle:
    """Direct worker↔worker transport: the parent degrades to a pure
    control plane (publish, seal, stitch, teardown) and never sees a
    run byte — except the explicit oversized-record queue fallback,
    which it counts."""

    mode = "mesh"

    def __init__(self, pool):
        self.pool = pool
        self._edge_base: Dict[tuple, dict] = {}

    def start(self) -> None:
        """Run the edge handshake: collect every worker's inbound-edge
        names (created worker-side, after pinning), attach to all N×N
        edges with unlink ownership, and broadcast each worker its
        outbound row.  Raises — tearing the pool down — if a worker
        dies or misbehaves before the mesh is up."""
        pool = self.pool
        n = pool.workers
        inbound: Dict[int, Dict[int, str]] = {}
        while len(inbound) < n:
            msg = pool._recv(timeout=1.0)
            if msg is None:
                continue
            kind = msg[0]
            if kind == "error":
                _, wi, what, tb, etype = msg
                raise worker_error_to_exception(wi, what, tb, etype)
            if kind != "mesh_ready":  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"unexpected {kind!r} message during the mesh handshake"
                )
            _, wi, names = msg
            inbound[wi] = names
        edges: Dict[tuple, ShmRing] = {}
        for j, names in inbound.items():
            for i, name in names.items():
                # owner=True: the parent adopts unlink duty so a worker
                # crash cannot leak the segment.
                edges[(i, j)] = ShmRing.attach(name, owner=True)
        pool._state["mesh_edges"] = edges
        for i in range(n):
            row = {j: inbound[j][i] for j in range(n) if j != i}
            pool._state["task_queues"][i].put(("mesh_attach", row))
        self._edge_base = {key: r.counters() for key, r in edges.items()}

    # -- data-plane events -------------------------------------------------
    def on_fallback(self, frame, msg) -> None:
        """Relay one oversized record to its owner over the task queue.

        Relays are enqueued strictly before the frame's reduce message
        (the sender's map completion follows its fallbacks on the FIFO
        result queue, and sealing waits for every completion), so the
        owner always sees relay → reduce in order and the watermark
        cannot hang on a record stuck behind it.
        """
        _, wi, seq, ci, part, run = msg
        shuf = ShuffleSpec(frame.spec.n_reducers, self.pool.workers)
        frame.parent_run_bytes += int(run.nbytes)
        self.pool._state["task_queues"][shuf.owner_of(part)].put(
            ("mesh_relay", seq, ci, part, run)
        )

    def frame_stats(self, frame) -> dict:
        """Aggregate per-edge backpressure into the JobStats.ring schema:
        stall deltas since the previous collect, high-water marks, total
        bytes moved over the mesh, and the control-plane escape hatches
        (queue fallbacks / parent-touched run bytes)."""
        per_edge = []
        total_bytes = 0
        for (i, j), ring in sorted(self.pool._state.get("mesh_edges", {}).items()):
            now = ring.counters()
            base = self._edge_base.get((i, j), now)
            # Delta like the stall counters, so the whole dict shares
            # one windowing semantic: "since the previous collect".
            total_bytes += now["written_bytes"] - base["written_bytes"]
            per_edge.append(
                {
                    "src": i,
                    "dst": j,
                    "stall_seconds": now["stall_seconds"]
                    - base["stall_seconds"],
                    "stall_events": now["stall_events"] - base["stall_events"],
                    "high_water_bytes": now["high_water_bytes"],
                }
            )
            self._edge_base[(i, j)] = now
        return {
            "shuffle_mode": self.mode,
            "stall_seconds": sum(e["stall_seconds"] for e in per_edge),
            "stall_events": sum(e["stall_events"] for e in per_edge),
            "high_water_bytes": max(
                (e["high_water_bytes"] for e in per_edge), default=0
            ),
            "queue_fallbacks": frame.queue_fallbacks,
            "parent_run_bytes": frame.parent_run_bytes,
            "mesh_bytes_total": total_bytes,
            "ring_capacity": self.pool.mesh_edge_capacity,
            "per_edge": per_edge,
        }


class SocketShuffle:
    """Direct worker↔worker transport over byte streams (the ``tcp``
    plane): the parent is a pure control plane holding **zero** data
    sockets — it collects each worker's listener address, broadcasts
    the address map, and from then on only sees completion messages
    and per-worker traffic counters.  There is no oversized-record
    fallback (streams have no capacity cliff), so ``parent_run_bytes``
    is structurally zero — the acceptance counter the soak suite
    asserts on.
    """

    mode = "tcp"

    def __init__(self, pool):
        self.pool = pool
        # Cumulative per-worker counters shipped with each reduce
        # ("shuffle_stats" messages) and the previous-collect baseline,
        # so frame_stats exports deltas with the same "since previous
        # collect" windowing as the mesh plane.
        self._latest: Dict[int, dict] = {}
        self._base: Dict[int, dict] = {}

    def start(self) -> None:
        """Run the address handshake: collect every worker's listener
        address (the listener is created worker-side, before anything
        is reported, so no connect can race it), then broadcast the
        full map — each worker dials every peer exactly once.  Raises,
        tearing the pool down, if a worker dies or misbehaves first."""
        pool = self.pool
        n = pool.workers
        addresses: Dict[int, object] = {}
        while len(addresses) < n:
            msg = pool._recv(timeout=1.0)
            if msg is None:
                continue
            kind = msg[0]
            if kind == "error":
                _, wi, what, tb, etype = msg
                raise worker_error_to_exception(wi, what, tb, etype)
            if kind != "socket_ready":  # pragma: no cover - protocol violation
                raise RuntimeError(
                    f"unexpected {kind!r} message during the socket handshake"
                )
            _, wi, addr = msg
            addresses[int(wi)] = addr
        for q in pool._state["task_queues"]:
            q.put(("socket_attach", dict(addresses)))

    # -- data-plane events -------------------------------------------------
    def on_worker_stats(self, wi: int, counters: dict) -> None:
        """Absorb one worker's cumulative socket counters (shipped just
        ahead of its reduce result on the FIFO result queue)."""
        self._latest[int(wi)] = dict(counters)

    def frame_stats(self, frame) -> dict:
        """JobStats.ring schema for the tcp plane: per-worker stall and
        traffic deltas since the previous collect, total bytes-on-wire
        for this frame, and the structural zeroes (queue fallbacks,
        parent-touched run bytes) the parity suite asserts on.
        ``ring_capacity`` is None — streams have no fixed capacity."""
        per_worker = []
        for wi in sorted(self._latest):
            now = self._latest[wi]
            base = self._base.get(wi, {k: 0 for k in now})
            per_worker.append(
                {
                    "worker": wi,
                    "stall_seconds": now["stall_seconds"]
                    - base["stall_seconds"],
                    "stall_events": now["stall_events"]
                    - base["stall_events"],
                    "high_water_bytes": now["high_water_bytes"],
                    "bytes_sent": now["bytes_sent"] - base["bytes_sent"],
                    "bytes_received": now["bytes_received"]
                    - base["bytes_received"],
                }
            )
            self._base[wi] = now
        return {
            "shuffle_mode": self.mode,
            "stall_seconds": sum(w["stall_seconds"] for w in per_worker),
            "stall_events": sum(w["stall_events"] for w in per_worker),
            "high_water_bytes": max(
                (w["high_water_bytes"] for w in per_worker), default=0
            ),
            "queue_fallbacks": frame.queue_fallbacks,
            "parent_run_bytes": frame.parent_run_bytes,
            "wire_bytes_total": frame.wire_bytes,
            "socket_family": self.pool.socket_family,
            "ring_capacity": None,
            "per_worker": per_worker,
        }
