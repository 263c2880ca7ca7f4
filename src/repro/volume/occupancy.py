"""Per-brick occupancy estimation and macro-cell min/max grids.

Ray fragments "with no contributions are discarded" (paper §3), so the
number of fragments a brick emits — and therefore all communication
volumes — depends on how much of the brick is non-empty under the
transfer function.  For in-core volumes we measure occupancy exactly;
for figure-scale volumes (1024³) we estimate it by evaluating the
procedural field on a coarse lattice inside each brick, which costs a
few hundred samples per brick instead of millions of voxels.

:func:`macro_cell_minmax` is the data-side half of the ray caster's
macro-cell empty-space grid (paper §3.2's pre-sampling skip of
transparent space): it partitions a brick payload into ``cell_size``³
macro cells and reduces each cell's *padded trilinear support* to a
(min, max) scalar pair.  The render layer classifies those ranges
against a transfer function (:func:`repro.render.accel.build_macro_grid`)
and classifies every ray's block windows against the resulting occupancy
grid so whole transparent spans are carved out before any sample is even
positioned.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .bricking import Brick, BrickGrid
from .volume import Volume

__all__ = [
    "brick_occupancy_exact",
    "brick_occupancy_estimate",
    "grid_occupancy",
    "macro_cell_dims",
    "macro_cell_minmax",
]


def brick_occupancy_exact(
    volume: Volume, grid: BrickGrid, brick: Brick, threshold: float
) -> float:
    """Exact fraction of core voxels whose value exceeds ``threshold``."""
    core = volume.region(brick.lo, brick.hi)
    return float(np.count_nonzero(core > threshold)) / core.size


def brick_occupancy_estimate(
    field: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    volume_shape: Sequence[int],
    brick: Brick,
    threshold: float,
    samples_per_axis: int = 8,
) -> float:
    """Estimate occupancy by sampling the field on a coarse lattice.

    Samples are placed at stratified positions inside the brick's core,
    expressed in the normalised coordinates the dataset fields use.
    """
    if samples_per_axis < 1:
        raise ValueError("need at least one sample per axis")
    shape = np.asarray(volume_shape, dtype=np.float64)
    lo = np.asarray(brick.lo, dtype=np.float64)
    hi = np.asarray(brick.hi, dtype=np.float64)
    axes = [
        (lo[a] + (np.arange(samples_per_axis) + 0.5) / samples_per_axis * (hi[a] - lo[a]))
        / shape[a]
        for a in range(3)
    ]
    vals = field(axes[0][:, None, None], axes[1][None, :, None], axes[2][None, None, :])
    vals = np.broadcast_to(vals, (samples_per_axis,) * 3)
    return float(np.count_nonzero(vals > threshold)) / vals.size


def macro_cell_dims(
    shape: Sequence[int], cell_size: int
) -> tuple[int, int, int]:
    """Macro-grid dimensions for a payload of ``shape``.

    Cell ``c`` along an axis covers the trilinear *base* indices
    ``[c·cs, (c+1)·cs)``; bases run over ``[0, n−2]``, so the grid needs
    ``ceil((n−1)/cs)`` cells per axis (at least one).
    """
    cs = int(cell_size)
    if cs < 1:
        raise ValueError("cell_size must be at least 1")
    return tuple(max(1, -(-(int(n) - 1) // cs)) for n in shape)


def macro_cell_minmax(
    data: np.ndarray, cell_size: int, pad: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Per-macro-cell (min, max) over each cell's padded trilinear support.

    Cell ``c`` owns the samples whose trilinear base index falls in
    ``[c·cs, (c+1)·cs)`` per axis; such a sample reads voxels up to
    ``(c+1)·cs`` inclusive, so the cell's support is its base range plus
    one voxel.  ``pad`` widens the support by that many *additional*
    voxels per side (clamped to the payload).  The default ``pad=1`` is
    the conservative margin the ray caster's macro-grid skip relies on:
    the per-sample positions it classifies are recomputed in a different
    precision than the march's float32 path, and their divergence is
    orders of magnitude below one voxel — so a sample attributed to a
    cell by the classifier is guaranteed to draw its 2×2×2 support from
    inside the cell's padded footprint, whatever the march's rounding.

    Returns ``(mins, maxs)`` shaped :func:`macro_cell_dims`, in the
    payload's dtype.
    """
    if data.ndim != 3:
        raise ValueError("expected a 3-D payload")
    if min(data.shape) < 2:
        raise ValueError("payload must be at least 2 voxels per axis")
    if pad < 0:
        raise ValueError("pad must be non-negative")
    cs = int(cell_size)
    dims = macro_cell_dims(data.shape, cs)
    mins, maxs = data, data
    for axis in range(3):
        n = data.shape[axis]
        lo_parts, hi_parts = [], []
        for c in range(dims[axis]):
            lo = max(0, c * cs - pad)
            hi = min(n, (c + 1) * cs + 1 + pad)
            sl = [slice(None)] * 3
            sl[axis] = slice(lo, hi)
            lo_parts.append(mins[tuple(sl)].min(axis=axis, keepdims=True))
            hi_parts.append(maxs[tuple(sl)].max(axis=axis, keepdims=True))
        mins = np.concatenate(lo_parts, axis=axis)
        maxs = np.concatenate(hi_parts, axis=axis)
    return mins, maxs


def grid_occupancy(
    grid: BrickGrid,
    threshold: float,
    volume: Volume | None = None,
    field: Callable | None = None,
    samples_per_axis: int = 8,
) -> np.ndarray:
    """Occupancy per brick, exact when a volume is given, else estimated.

    Returns an array of length ``len(grid)`` aligned with brick ids.
    """
    if (volume is None) == (field is None):
        raise ValueError("pass exactly one of volume= or field=")
    out = np.empty(len(grid), dtype=np.float64)
    for b in grid:
        if volume is not None:
            out[b.id] = brick_occupancy_exact(volume, grid, b, threshold)
        else:
            out[b.id] = brick_occupancy_estimate(
                field, grid.volume_shape, b, threshold, samples_per_axis
            )
    return out
