"""Per-volume acceleration caching for the ray-cast kernel.

Two acceleration structures are pure functions of ``(brick payload,
transfer function)`` and get rebuilt for nothing across the frames of an
orbit (same volume, same transfer function, new camera) unless cached:

* the blocked marcher's per-voxel corner-max empty-space table
  (:func:`repro.render.raycast._empty_space_table`), cached under the
  caller's base key;
* the macro-cell occupancy grid (:func:`build_macro_grid`) against
  which the marcher classifies each ray's block windows to carve whole
  transparent spans out of its sample interval *before* marching,
  cached under :func:`grid_key` (base key + macro-cell size).

Both structures are built (and cached) by :func:`raycast_brick`
*before* it dispatches to a march-kernel backend
(:mod:`repro.render.kernels`), and the cache key deliberately contains
no backend name: the tables are pure functions of ``(brick payload,
transfer function)``, identical whichever backend consumes them, so a
table warmed under ``kernel="numpy"`` is served verbatim to a later
``kernel="numba"`` render (and vice versa) instead of being rebuilt
per backend.

:class:`AccelCache` is a byte-bounded LRU of both, keyed on
``(volume token, chunk id, transfer-function version)``:

* the **volume token** is a process-unique string minted per volume (or
  procedural field) object by :func:`volume_token` — tokens are never
  reused, so a table can never be served for the wrong data;
* the **chunk id** identifies the brick within that volume;
* the **transfer-function version** is a content hash
  (:attr:`~repro.render.transfer.TransferFunction1D.version`), so
  editing the transfer function invalidates every cached table.

A module-level cache (:func:`shared_cache`) is what the renderer uses by
default.  Each process owns its own instance — the shared-memory pool
workers of :mod:`repro.parallel` therefore warm their caches on the
first orbit frame and reuse the structures for every later frame,
exactly like static acceleration structures resident on a real GPU.
(Macro grids additionally ship parent → worker through the pool's
shared-memory arena, so workers never build them at all; see
:meth:`repro.parallel.SharedMemoryPoolExecutor._publish`.)

Bricks for which a macro grid cannot help — the transfer function has
no leading zero-alpha run to skip, or every cell of the brick is
occupied — cache the :data:`NO_GRID` sentinel instead, so the negative
result is remembered (no per-frame rebuild) without ever storing
``None`` (which :meth:`AccelCache.put` rejects).
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from typing import Any, Hashable, Optional

import numpy as np

__all__ = [
    "AccelCache",
    "NO_GRID",
    "build_macro_grid",
    "grid_key",
    "invalidate_volume",
    "is_no_grid",
    "shared_cache",
    "volume_token",
]


class AccelCache:
    """Byte-bounded LRU cache of per-brick acceleration structures."""

    def __init__(self, max_entries: int = 512, max_bytes: int = 256 << 20):
        if max_entries < 1 or max_bytes < 1:
            raise ValueError("cache bounds must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._nbytes

    def get(self, key: Hashable) -> Optional[np.ndarray]:
        """Return the cached table for ``key`` (marking it recently used)."""
        table = self._entries.get(key)
        if table is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return table

    def put(self, key: Hashable, table: np.ndarray) -> None:
        """Insert ``table``, evicting least-recently-used entries to fit.

        ``None`` is rejected: "no structure exists for this key" must be
        cached as an explicit sentinel (e.g. :data:`NO_GRID`) so the
        negative result is itself remembered instead of recomputed — or
        not cached at all.
        """
        if table is None:
            raise TypeError(
                "AccelCache cannot store None; cache an explicit sentinel "
                "(repro.render.accel.NO_GRID) or skip the put"
            )
        if key in self._entries:
            self._nbytes -= self._entries.pop(key).nbytes
        self._entries[key] = table
        self._nbytes += table.nbytes
        while self._entries and (
            len(self._entries) > self.max_entries or self._nbytes > self.max_bytes
        ):
            _, evicted = self._entries.popitem(last=False)
            self._nbytes -= evicted.nbytes

    def pop(self, key: Hashable) -> Optional[np.ndarray]:
        """Remove and return ``key``'s entry (None when absent).

        Used by pool workers to drop arena-backed grid views before the
        arena segment they point into is unmapped.
        """
        table = self._entries.pop(key, None)
        if table is not None:
            self._nbytes -= table.nbytes
        return table

    def stats(self) -> dict:
        """Hit-rate snapshot for the telemetry registry."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / lookups if lookups else None,
            "entries": len(self._entries),
            "nbytes": self._nbytes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0


_shared = AccelCache()


def shared_cache() -> AccelCache:
    """The process-wide default cache (one per worker process)."""
    return _shared


_token_counter = itertools.count()
# id(obj) -> (token, weakref).  Keyed by id (not the object) because
# Volume-like objects need not be hashable; the weakref's callback
# removes the entry at collection, so a recycled id can never resurrect
# a dead object's token.
_tokens: dict[int, tuple[str, "weakref.ref"]] = {}


def volume_token(obj: Any) -> Optional[str]:
    """Process-unique, never-reused token identifying a volume-like object.

    Tokens live exactly as long as the object and embed a monotonic
    counter, so (unlike a raw ``id()``) a new object can never inherit a
    collected object's token.  Returns None for objects that cannot be
    weak-referenced — callers then simply skip acceleration caching.

    The token asserts **immutability of the object's voxel data**: it is
    identity-based, so mutating ``volume.data`` in place keeps the token
    and would serve stale cached tables (and stale pool-executor
    arenas).  Renderers treat volumes as immutable; code that must edit
    voxels in place should call :func:`invalidate_volume` afterwards (or
    simply wrap the data in a fresh ``Volume``).
    """
    if obj is None:
        return None
    key = id(obj)
    entry = _tokens.get(key)
    if entry is not None and entry[1]() is obj:
        return entry[0]
    token = f"vol-{next(_token_counter)}"
    try:
        ref = weakref.ref(obj, lambda _r, key=key: _tokens.pop(key, None))
    except TypeError:  # not weak-referenceable
        return None
    _tokens[key] = (token, ref)
    return token


def invalidate_volume(obj: Any) -> None:
    """Forget ``obj``'s token after an in-place edit of its voxel data.

    The next :func:`volume_token` call mints a fresh token, so every
    consumer keyed on it (acceleration caches, the pool executor's
    shared-memory arena fingerprint) re-derives from the new data.
    """
    _tokens.pop(id(obj), None)


# -- macro-cell occupancy grids ----------------------------------------------

#: Cached marker for "no macro grid can help this (brick, tf)": the
#: transfer function has no leading zero-alpha run, or every macro cell
#: of the brick is occupied.  A zero-length array (rather than None) so
#: it round-trips through :class:`AccelCache` and through the pool
#: executor's shared-memory arena like any other entry; detect it with
#: :func:`is_no_grid`.
NO_GRID = np.empty(0, dtype=bool)


def is_no_grid(grid: Optional[np.ndarray]) -> bool:
    """Whether a cache/arena entry is the :data:`NO_GRID` sentinel."""
    return grid is not None and grid.size == 0


#: Occupied-cell fraction above which a macro grid is not worth using:
#: the span carve + per-block span flattening cost O(ray-blocks) and
#: O(spans) regardless of how little they carve, so a nearly-full grid
#: is pure overhead.  Such bricks cache :data:`NO_GRID` and fall back to
#: the corner-max table (output is bitwise-identical either way — this
#: is purely a cost model).
GRID_OCCUPANCY_CUTOFF = 0.875


def grid_key(base_key: tuple, cell_size: int) -> tuple:
    """Cache key of a brick's macro grid (one per macro-cell size).

    ``base_key`` is the caller's ``(volume token, tf version, chunk id,
    region)`` identity — the same tuple the corner-max table is cached
    under directly.
    """
    return ("grid", int(cell_size)) + tuple(base_key)


def build_macro_grid(
    data: np.ndarray, tf: Any, cell_size: int
) -> np.ndarray:
    """Classify a brick's macro cells against ``tf`` → boolean occupancy.

    Returns a bool array shaped
    :func:`~repro.volume.occupancy.macro_cell_dims` where ``True`` means
    "this cell may contribute", or the :data:`NO_GRID` sentinel when a
    grid cannot pay off (see :data:`NO_GRID`).

    Conservative-skip proof obligation
    ----------------------------------
    The ray caster uses ``False`` cells to carve whole sample spans out
    of a ray's march *before* positions are computed, and its output
    must stay **bitwise identical** to the unaccelerated march.  The
    kernel's exact per-sample filter drops a sample iff its float32
    table coordinate lands in the transfer function's *leading*
    zero-alpha run (``u <= u_thr``); removing exactly that set from the
    float32 transmittance scan is a no-op, while removing any other
    sample — even one whose alpha is exactly zero inside an *interior*
    zero-alpha range — would shift the scan's operand positions and
    perturb float association.  A cell is therefore marked empty only
    when every sample it can produce provably passes the kernel's own
    filter:

    * the cell's scalar range is the (min, max) over its **padded**
      trilinear support (:func:`~repro.volume.occupancy.macro_cell_minmax`
      with one extra voxel per side), absorbing the sub-1e-3-voxel gap
      between the carve's float64 ray positions and the march's (also
      float64, but from the float32-rounded step), boundary clamping
      included;
    * the range's float64 table coordinate must sit a **full table
      entry** below the first non-zero alpha entry, absorbing the
      float32 rounding of the float64 trilinear value in `table_coord`
      and lerp overshoot beyond the support's max.

    Every carved sample thus satisfies ``u <= u_thr`` under the march's
    own arithmetic; the kernel re-applies the exact filter to whatever
    survives, so the scan input — and the image, fragment keys/depths,
    and counters — cannot change.
    """
    from ..volume.occupancy import macro_cell_minmax
    from .raycast import _alpha_zero_threshold

    if min(data.shape) < 2:
        return NO_GRID
    u_thr = _alpha_zero_threshold(tf)
    if u_thr < 0:  # no leading zero-alpha run: nothing is ever skippable
        return NO_GRID
    _, maxs = macro_cell_minmax(data, cell_size, pad=1)
    if np.isinf(u_thr):  # alpha identically zero: every cell is empty
        return np.zeros(maxs.shape, dtype=bool)
    scale = 1.0 / (float(tf.vmax) - float(tf.vmin))
    u_max = np.clip(
        (maxs.astype(np.float64) - float(tf.vmin)) * scale, 0.0, 1.0
    ) * (tf.resolution - 1)
    occ = u_max > (u_thr - 1.0)  # one-entry conservative margin
    if float(occ.mean()) > GRID_OCCUPANCY_CUTOFF:
        return NO_GRID
    return occ
