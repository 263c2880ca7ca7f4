"""Shared-memory multiprocess brick execution — real parallel map/reduce.

The paper (Stuart et al., HPDC 2010) renders by fanning volume bricks
out to many GPUs: each GPU **Maps** its bricks with a ray-cast kernel,
**Partitions** the emitted ``(pixel, fragment)`` pairs by reducer,
**Sorts** with a θ(n) counting sort, and **Reduces** by depth-ordered
compositing — with brick uploads, kernels, and fragment downloads all
overlapped.  The rest of this repository reproduces those stages
functionally but ran them serially in one process; this package turns
the recorded "simulated GPU" placement into real parallel hardware by
mapping **one worker process per simulated GPU**:

=====================  ====================================================
paper stage            multiprocess realisation
=====================  ====================================================
brick upload (PCIe)    :mod:`~repro.parallel.shm` — chunk payloads and the
                       transfer-function table published once into a
                       shared-memory arena; workers take zero-copy views
                       (resident bricks: an orbit uploads the volume once)
Map + Partition        :mod:`~repro.parallel.worker` — each worker runs the
(per GPU)              ray-cast kernel and buckets fragments by reducer
                       partition, exactly the serial executor's code
GPU↔GPU fragment       :mod:`~repro.parallel.shuffle` — the **shuffle
exchange (the          plane**: each mapper writes every partition's run
interconnect)          directly to the worker that owns it, tagged
                       frame/chunk/partition, so the parent is a pure
                       control plane and zero run bytes cross it.  The
                       default ``shuffle_mode="mesh"`` moves runs over an
                       N×N mesh of SPSC shared-memory edge rings
                       (:mod:`~repro.parallel.ring`) that export
                       backpressure counters (producer stall time/events,
                       high-water mark) into ``JobStats``; ``"tcp"``
                       (:mod:`~repro.parallel.socketplane`) streams the
                       same records over AF_UNIX/TCP sockets for the
                       multi-host regime.
                       ``pin_workers=True`` pins workers to cores before
                       they allocate their inbound edges (NUMA locality)
Sort + Reduce          each worker Sort+Reduces the partitions it owns
(per GPU)              with the serial executor's merge function and ships
                       back composited pixel spans; the parent just
                       stitches
async overlap (§7)     ``pipeline_depth>1``: ``submit``/``collect`` keep
                       frames in flight so workers map+reduce frame *k+1*
                       while the parent assembles/stitches frame *k* (and
                       next-frame arenas, incl. out-of-core loads, publish
                       off the critical path)
=====================  ====================================================

:class:`SharedMemoryPoolExecutor` (:mod:`~repro.parallel.pool`) wires
these together behind the exact ``execute(spec, chunks, chunk_to_gpu)``
surface of :class:`~repro.core.executors.InProcessExecutor`, returning
bitwise-identical images and counters — worker scheduling never leaks
into the output because runs are merged in chunk order and every kernel
is deterministic.  A ``serial=True`` mode runs the identical code path
without processes, for tests and platforms lacking POSIX shared memory.

Fault tolerance (:mod:`~repro.parallel.supervise`): the executor
supervises its workers — a process dying mid-frame or a wedged
transport recycles the transport epoch in place (the arena survives and
is re-attached by name), re-executes the in-flight frames
bitwise-identically, and degrades (shrink the pool, then fall back to
the serial executor) when retries are exhausted.
:mod:`~repro.parallel.faults` is the deterministic fault-injection
harness (``fault_plan=`` / ``$REPRO_FAULT_PLAN``) that drives crash,
exit, and stall faults at exact (stage, worker, frame, chunk) points.
"""

from .faults import ENV_FAULT_PLAN, FaultPlan, FaultRule
from .pool import (
    PendingFrame,
    PoolConfig,
    SharedMemoryPoolExecutor,
    default_pool_workers,
    parse_host_spec,
    usable_cores,
)
from .ring import RingTimeout, ShmRing
from .shm import ArenaSpec, ArenaView, ShmArena, shm_segment_exists
from .shuffle import (
    DEFAULT_MAX_FRAME_RETRIES,
    DEFAULT_RETRY_BACKOFF,
    DEFAULT_RING_WRITE_TIMEOUT,
    ENV_MAX_FRAME_RETRIES,
    ENV_RETRY_BACKOFF,
    ENV_RING_WRITE_TIMEOUT,
    ENV_SHUFFLE_MODE,
    ENV_WATERMARK_TIMEOUT,
    MeshShuffle,
    SocketShuffle,
    WorkerMesh,
)
from .socketplane import (
    ENV_SOCKET_FAMILY,
    SocketClosed,
    SocketMesh,
    socket_path,
)
from .supervise import PoolFailure, PoolSupervisor
from .worker import FrameContext, map_chunk_to_runs

__all__ = [
    "ArenaSpec",
    "ArenaView",
    "DEFAULT_MAX_FRAME_RETRIES",
    "DEFAULT_RETRY_BACKOFF",
    "DEFAULT_RING_WRITE_TIMEOUT",
    "ENV_FAULT_PLAN",
    "ENV_MAX_FRAME_RETRIES",
    "ENV_RETRY_BACKOFF",
    "ENV_RING_WRITE_TIMEOUT",
    "ENV_SHUFFLE_MODE",
    "ENV_SOCKET_FAMILY",
    "ENV_WATERMARK_TIMEOUT",
    "FaultPlan",
    "FaultRule",
    "FrameContext",
    "MeshShuffle",
    "PendingFrame",
    "PoolConfig",
    "PoolFailure",
    "PoolSupervisor",
    "default_pool_workers",
    "parse_host_spec",
    "RingTimeout",
    "SharedMemoryPoolExecutor",
    "ShmArena",
    "ShmRing",
    "SocketClosed",
    "SocketMesh",
    "SocketShuffle",
    "WorkerMesh",
    "map_chunk_to_runs",
    "shm_segment_exists",
    "socket_path",
    "usable_cores",
]
