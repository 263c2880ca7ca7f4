"""The Sort stage: a θ(n) counting sort over dense integer keys.

"We use a specialized counting sort on the CPU or GPU (depending on the
amount of data) that runs in θ(n) since the library knows the minimum
and maximum keys for each node, as well as the maximum number of keys."

The implementation builds the key histogram with ``np.bincount`` (one
linear pass) and converts it to slot offsets with a prefix sum.  Those
offsets make a comparison sort redundant: each pair's destination is its
key's slot start plus its arrival rank among equal keys, so one stable
linear scatter finishes the sort.  The scatter
(:func:`stable_counting_order`) runs at C speed through SciPy's COO→CSR
placement kernel (exactly the textbook counting-sort loop, preserving
arrival order within each key); when SciPy is absent we fall back to
NumPy's stable integer ``argsort``.  Stability means pairs with equal
keys keep arrival order, which makes distributed runs deterministic.
The same scatter is the building block of the Reduce side's
(pixel, depth) radix sort in :mod:`repro.render.compositing`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

_UNRESOLVED = object()
_sp_tools = _UNRESOLVED  # lazily resolved on first use


def _sparsetools_direct():
    """SciPy's ``_sparsetools`` extension, loaded straight from its file.

    Importing ``scipy.sparse`` to reach it costs 0.2–0.4 s and ~10 MB per
    process; loading the one extension file takes well under a
    millisecond.  ``find_spec`` locates the installed ``scipy`` package
    without importing it.
    """
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or []) if spec else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.exists(path):
                name = "scipy.sparse._sparsetools"
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                tools = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader)
                )
                loader.exec_module(tools)
                return tools
    return None


def _sparsetools_package():
    """The same extension through the ``scipy.sparse`` package import."""
    from scipy.sparse import _sparsetools

    return _sparsetools


def _scatter_works(tools) -> bool:
    """Known-answer check of ``coo_tocsr`` as the counting scatter."""
    keys = np.array([2, 0, 2, 1], dtype=np.int32)
    arrival = np.arange(4, dtype=np.int32)
    indptr = np.zeros(4, dtype=np.int32)
    cols = np.empty(4, dtype=np.int32)
    order = np.empty(4, dtype=np.int32)
    tools.coo_tocsr(3, 4, 4, keys, arrival, arrival, indptr, cols, order)
    return bool(np.array_equal(order, [1, 3, 0, 2]))


def _load_counting_scatter():
    """SciPy's COO→CSR placement kernel, proven to still work, or None.

    ``coo_tocsr`` is private SciPy API, so guard against signature or
    semantics drift (not just absence) with a tiny known-answer sort.
    The direct file load is tried first, then the package import; if
    both fail, the pure-NumPy argsort fallback is selected.
    """
    for load in (_sparsetools_direct, _sparsetools_package):
        try:
            tools = load()
            if tools is not None and _scatter_works(tools):
                return tools
        except Exception:
            continue
    return None

__all__ = [
    "counting_scatter_available",
    "counting_sort_pairs",
    "run_length_groups",
    "stable_counting_order",
    "SortResult",
]


@dataclass
class SortResult:
    """Sorted pairs plus the compaction index the Reduce stage consumes."""

    pairs: np.ndarray  # sorted by key, stable
    unique_keys: np.ndarray  # ascending unique keys present
    starts: np.ndarray  # start offset of each key's run in `pairs`
    counts: np.ndarray  # run length per unique key

    def group(self, i: int) -> np.ndarray:
        """All pairs of the i-th unique key."""
        s = self.starts[i]
        return self.pairs[s : s + self.counts[i]]

    @property
    def n_groups(self) -> int:
        return len(self.unique_keys)


def counting_scatter_available() -> bool:
    """Whether the C counting-scatter fast path is usable (resolves lazily)."""
    global _sp_tools
    if _sp_tools is _UNRESOLVED:
        _sp_tools = _load_counting_scatter()
    return _sp_tools is not None


def stable_counting_order(keys: np.ndarray, n_slots: int) -> np.ndarray:
    """Stable bucket-major order of ``keys`` (dense ints in [0, n_slots)).

    The SciPy path is a single-pass counting scatter: COO→CSR placement
    walks the entries once in arrival order, dropping each into the next
    free slot of its key's run (the runs come from the histogram prefix
    sum).  Arrival indices ride along as the payload column and come back
    bucket-major — the stable sort permutation — with no comparisons.
    Falls back to NumPy's stable ``argsort`` without SciPy or for sizes
    past int32 indexing.
    """
    global _sp_tools
    if _sp_tools is _UNRESOLVED:
        _sp_tools = _load_counting_scatter()
    n = len(keys)
    if _sp_tools is not None and 0 < n < 2**31 and n_slots < 2**31:
        keys = np.asarray(keys)
        # The C placement loop does no bounds checking; a bad key would
        # corrupt memory rather than raise, so validate here — before the
        # int32 cast, which would let an oversized key wrap into range.
        if keys.min() < 0 or keys.max() >= n_slots:
            raise ValueError(
                f"keys outside [0, {n_slots}) in stable_counting_order"
            )
        keys32 = np.ascontiguousarray(keys, dtype=np.int32)
        arrival = np.arange(n, dtype=np.int32)
        indptr = np.zeros(n_slots + 1, dtype=np.int32)
        cols = np.empty(n, dtype=np.int32)
        order = np.empty(n, dtype=np.int32)
        _sp_tools.coo_tocsr(n_slots, n, n, keys32, arrival, arrival, indptr, cols, order)
        return order
    return np.argsort(keys, kind="stable")


def _permute_records(pairs: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``pairs[order]`` but ~3× faster for plain fixed-width records.

    Fancy indexing on structured dtypes goes through a slow per-field
    path; reinterpreting the records as rows of a word-sized 2-D array
    lets ``np.take`` move each 24-byte record as a contiguous row.
    """
    n = len(pairs)
    itemsize = pairs.dtype.itemsize
    if pairs.flags.c_contiguous and itemsize % 4 == 0:
        rows = pairs.view(np.int32).reshape(n, itemsize // 4)
        return np.take(rows, order, axis=0).view(pairs.dtype).reshape(n)
    return pairs[order]


def counting_sort_pairs(
    pairs: np.ndarray,
    key_field: str,
    min_key: int,
    max_key: int,
) -> SortResult:
    """Stable counting sort of structured pairs on an int key field.

    ``min_key``/``max_key`` bound the keys this node can receive — the
    library knows them from the partitioner, which is what lets the sort
    avoid comparisons entirely.
    """
    if max_key < min_key:
        raise ValueError(f"empty key range [{min_key}, {max_key}]")
    n = len(pairs)
    if n == 0:
        return SortResult(
            pairs,
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )
    keys = pairs[key_field].astype(np.int64)
    if keys.min() < min_key or keys.max() > max_key:
        raise ValueError(
            f"keys outside declared range [{min_key}, {max_key}]: "
            f"got [{keys.min()}, {keys.max()}]"
        )
    shifted = keys - min_key
    n_slots = max_key - min_key + 1
    hist = np.bincount(shifted, minlength=n_slots)
    order = stable_counting_order(shifted, n_slots)
    sorted_pairs = _permute_records(pairs, order)
    present = np.nonzero(hist)[0]
    counts = hist[present]
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return SortResult(
        pairs=sorted_pairs,
        unique_keys=present + min_key,
        starts=starts.astype(np.int64),
        counts=counts.astype(np.int64),
    )


def run_length_groups(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unique, starts, counts) of runs in an already-sorted key array."""
    n = len(sorted_keys)
    if n == 0:
        return (np.empty(0, np.int64),) * 3
    change = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    starts = np.nonzero(change)[0]
    counts = np.diff(np.r_[starts, n])
    return sorted_keys[starts].astype(np.int64), starts.astype(np.int64), counts.astype(np.int64)
