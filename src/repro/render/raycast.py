"""The ray-casting map kernel — a blocked, fully vectorized marcher.

This is the functional equivalent of the paper's CUDA kernel (§3.2):

* rays are generated for the (block-padded) sub-image the chunk projects
  onto — one "thread" per pixel;
* all rays are intersected against the brick's bounding box and
  non-intersecting rays are immediately discarded;
* surviving rays advance with **fixed increments** and non-adaptive
  **trilinear** sampling, apply the 1-D transfer function per sample, and
  accumulate **front-to-back** with early ray termination;
* each ray emits one fragment (key = pixel index, value = depth +
  premultiplied RGBA); useless rays emit a placeholder.

Global-t sampling and interval ownership
----------------------------------------
Sample positions are ``t_k = t_volume_entry + (k + ½)·dt`` where
``t_volume_entry`` is the ray's entry into the *full volume* box — a
quantity every brick computes identically.  A brick owns the contiguous
run of sample indices ``k ∈ [k_first, k_last)`` carved out of its
slab-test interval ``[t_near, t_far)`` by one shared formula
(``ceil((t − t_volume_entry)/dt − ½)``).  Because two face-adjacent
bricks compute the shared face's t-value with bitwise-identical
arithmetic, ``k_last`` of one brick equals ``k_first`` of the next: the
per-brick runs partition every ray exactly, with no per-sample
containment test at all, so compositing the per-brick fragments in depth
order reproduces the single-pass image (up to float32 associativity).
This is the invariant the whole MapReduce pipeline is tested against.
A ray travelling exactly parallel to and *inside* a shared brick face
has no face t-value to share; it is owned by the brick whose half-open
range ``lo <= eye < hi`` holds its constant coordinate (the
:func:`~repro.render.geometry.box_contains` rule).  Such rays are
ordinary: an odd-sized image whose eye sits on a brick boundary puts its
middle pixel row or column exactly there.

Blocked marching
----------------
Instead of advancing one global sample index per Python-interpreter
iteration, the marcher processes each live ray's next ``block_size``
owned samples at once and amortizes interpreter dispatch over the whole
block:

* the flat sample list of a block is built directly from the ownership
  intervals (``np.repeat`` over per-ray counts — ownership is a mask by
  construction, not a test);
* one flattened trilinear gather fetches all samples (ravel-offset
  ``np.take`` on ``data.ravel()`` — no 3-D fancy indexing);
* a conservative corner-max empty-space table (built per call when the
  sample count warrants it) drops samples whose transfer-function alpha
  is provably exactly zero *before* the gather — a pure win that cannot
  change the image;
* one batched transfer-function lookup colours the surviving samples;

Macro-cell empty-space grid (``accel="grid"``)
----------------------------------------------
The corner-max table still *positions* every owned sample before it can
discard one.  The macro grid goes coarser: the brick is partitioned into
``macro_cell_size``³ cells carrying min/max scalar ranges, cells whose
entire padded range provably maps into the transfer function's leading
zero-alpha run are classified empty
(:func:`repro.render.accel.build_macro_grid`), and each ray's block
windows are classified against the cell grid (:func:`_macro_grid_spans`:
a window is kept iff the bounding box of cells its samples cross holds
an occupied cell) to carve its owned sample interval down to occupied
spans **before the blocked march** — skipped spans never compute
positions, never probe the corner-max table, never gather.

Conservative-skip proof obligation: the grid path must be **bitwise
identical** to ``accel="off"``, counters included.  Three facts carry
it:  (1) a cell is marked empty only when every sample it can produce —
under the march's own float32 arithmetic, clamping included — satisfies
the kernel's exact per-sample filter ``u <= u_thr`` (see
``build_macro_grid`` for the two safety margins), so carving removes
only samples every other path also removes before the transmittance
scan, leaving the scan's operand list — and hence float association —
unchanged;  (2) the block structure is preserved: spans are intersected
with the same ``block_size`` windows, so partial accumulator folds and
block-granular ERT checks happen at the same points with the same
values;  (3) ``MapStats.n_samples`` counts every *owned* sample of each
live block before any elision (exactly as the table path always has),
so the counters cannot see the skip either.  ``accel="table"`` keeps
the PR-1 behaviour; ``accel="off"`` disables both structures and is the
conformance oracle.

* front-to-back accumulation along each ray is closed-form: the
  transmittance in front of every sample is a segmented exclusive
  product scan of ``(1 − α)`` scaled by the transmittance carried in
  from earlier blocks, so a block folds into the accumulators with a
  handful of array ops.

Early ray termination runs at **block granularity**: after each block,
rays whose accumulated alpha reached ``ert_alpha`` stop marching.
Within a block all owned samples are processed (and counted in
``MapStats.n_samples``), so a larger ``block_size`` trades per-block
dispatch overhead against samples marched past the termination point.
``block_size=1`` reproduces classic per-step termination exactly; the
default of 8 covers a typical 16³-brick crossing in one or two blocks
while keeping ERT waste low.  Raise it to 32–64 when termination is
disabled (reference renders) or content is mostly transparent; drop
toward 1 for dense, high-opacity transfer functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .camera import Camera, PixelRect
from .fragments import PLACEHOLDER_KEY, empty_fragments, make_fragments
from .geometry import dual_box_intersect_f32
from .transfer import TransferFunction1D

__all__ = ["RenderConfig", "MapStats", "raycast_brick", "trilinear_sample"]

_F32 = np.float32


@dataclass(frozen=True)
class RenderConfig:
    """Knobs of the ray-cast kernel.

    ``dt`` is the fixed step in voxel units.  ``ert_alpha`` is the early
    ray-termination threshold applied to the alpha accumulated *within
    the current brick* (a distributed renderer cannot see upstream
    bricks' opacity); set it to 1.0 to disable termination, which makes
    the bricked render exactly equal to the reference.  ``alpha_eps``
    controls fragment discard — fragments with accumulated alpha at or
    below it carry no visible contribution and are dropped, exactly the
    paper's "ray fragments with no contributions are discarded".
    ``block_size`` is the number of consecutive owned samples the
    blocked marcher folds per iteration; termination is checked between
    blocks (see the module docstring for the tradeoff).

    ``accel`` selects the empty-space machinery — all three settings are
    bitwise-identical in output and counters (see the module docstring's
    proof obligation): ``"grid"`` (default) classifies every ray's block
    windows against a ``macro_cell_size``³ macro-cell min/max grid to
    carve whole transparent spans before the march *and* keeps the
    corner-max table for the surviving samples; ``"table"`` is the
    per-sample corner-max probe alone; ``"off"`` disables both (the
    conformance oracle).

    ``kernel`` selects the march backend behind the kernel contract
    (:mod:`repro.render.kernels`): ``"numpy"`` is the blocked vectorized
    fold (the oracle), ``"numba"`` the compiled per-ray JIT marcher, and
    ``"auto"`` (default) prefers numba when importable, falling back to
    numpy with a single warning.  Fragment keys, depths and all
    ``MapStats`` counters are exact across backends; colors are
    tolerance-banded (see the kernels package docstring).  The macro
    grid / corner-max structures compose with every backend.
    """

    dt: float = 0.5
    ert_alpha: float = 0.98
    alpha_eps: float = 0.0
    pad_to_block: bool = True
    emit_placeholders: bool = False
    shading: bool = False  # Levoy-style gradient Phong shading
    block_size: int = 8
    accel: str = "grid"
    macro_cell_size: int = 8
    kernel: str = "auto"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.ert_alpha <= 1.0:
            raise ValueError("ert_alpha must be in (0, 1]")
        if self.alpha_eps < 0:
            raise ValueError("alpha_eps must be non-negative")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.accel not in ("grid", "table", "off"):
            raise ValueError("accel must be one of 'grid', 'table', 'off'")
        if self.macro_cell_size < 1:
            raise ValueError("macro_cell_size must be at least 1")
        if self.kernel not in ("auto", "numpy", "numba"):
            raise ValueError("kernel must be one of 'auto', 'numpy', 'numba'")

    @property
    def fetches_per_sample(self) -> int:
        """Texture fetches per sample point (drives the GPU cost model):
        1 for the scalar, plus 6 for the central-difference gradient."""
        return 7 if self.shading else 1


@dataclass
class MapStats:
    """Work counters of one kernel execution (drive the cost models)."""

    n_rays: int = 0  # padded thread count launched
    n_active_rays: int = 0  # rays that hit the brick box
    n_samples: int = 0  # trilinear samples taken
    n_emitted: int = 0  # key-value pairs written (incl. placeholders)
    n_kept: int = 0  # fragments surviving the contribution discard

    def merge(self, other: "MapStats") -> "MapStats":
        return MapStats(
            self.n_rays + other.n_rays,
            self.n_active_rays + other.n_active_rays,
            self.n_samples + other.n_samples,
            self.n_emitted + other.n_emitted,
            self.n_kept + other.n_kept,
        )


def _trilinear_prep(
    shape: tuple[int, int, int],
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
    clamp: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(base ravel index, fx, fy, fz) for lattice coords ``c = pos − ½``.

    Clamp-to-edge is folded into the coordinates: clipping ``c`` to
    ``[0, n−1]`` and the base index to ``n−2`` reproduces the classic
    per-corner index clamp (outside samples collapse onto the edge value)
    while keeping the +1 neighbour offsets constant.  Callers that can
    prove every sample's 2×2×2 support lies inside the payload (interior
    bricks with a full ghost shell) pass ``clamp=False`` and skip the
    six clip passes.
    """
    nx, ny, nz = shape
    if clamp:
        cx = np.clip(cx, _F32(0.0), _F32(nx - 1))
        cy = np.clip(cy, _F32(0.0), _F32(ny - 1))
        cz = np.clip(cz, _F32(0.0), _F32(nz - 1))
        ix = np.minimum(cx.astype(np.int32), max(nx - 2, 0))
        iy = np.minimum(cy.astype(np.int32), max(ny - 2, 0))
        iz = np.minimum(cz.astype(np.int32), max(nz - 2, 0))
    else:
        ix = cx.astype(np.int32)
        iy = cy.astype(np.int32)
        iz = cz.astype(np.int32)
    fx = cx - ix
    fy = cy - iy
    fz = cz - iz
    if nx * ny * nz >= 2**31:  # int32 ravel offsets would wrap
        ix = ix.astype(np.int64)
    base = (ix * ny + iy) * nz + iz
    return base, fx, fy, fz


def _trilinear_gather(
    flat: np.ndarray,
    shape: tuple[int, int, int],
    base: np.ndarray,
    fx: np.ndarray,
    fy: np.ndarray,
    fz: np.ndarray,
) -> np.ndarray:
    """Eight ravel-offset ``np.take`` corner fetches + factored lerps."""
    nx, ny, nz = shape
    # Degenerate (size-1) axes collapse the +1 neighbour onto the voxel.
    sx = ny * nz if nx > 1 else 0
    sy = nz if ny > 1 else 0
    sz = 1 if nz > 1 else 0
    v000 = np.take(flat, base)
    v001 = np.take(flat, base + sz)
    v010 = np.take(flat, base + sy)
    v011 = np.take(flat, base + sy + sz)
    base = base + sx
    v100 = np.take(flat, base)
    v101 = np.take(flat, base + sz)
    v110 = np.take(flat, base + sy)
    v111 = np.take(flat, base + sy + sz)
    c00 = v000 + fz * (v001 - v000)
    c01 = v010 + fz * (v011 - v010)
    c10 = v100 + fz * (v101 - v100)
    c11 = v110 + fz * (v111 - v110)
    c0 = c00 + fy * (c01 - c00)
    c1 = c10 + fy * (c11 - c10)
    return c0 + fx * (c1 - c0)


def _trilinear_flat(
    flat: np.ndarray,
    shape: tuple[int, int, int],
    cx: np.ndarray,
    cy: np.ndarray,
    cz: np.ndarray,
) -> np.ndarray:
    """Trilinear filter on raveled data; ``c*`` are lattice coords (pos−½)."""
    base, fx, fy, fz = _trilinear_prep(shape, cx, cy, cz)
    return _trilinear_gather(flat, shape, base, fx, fy, fz)


def trilinear_sample(data: np.ndarray, local_pos: np.ndarray) -> np.ndarray:
    """Trilinear interpolation on the voxel-center lattice, clamp addressing.

    ``local_pos`` is ``(M, 3)`` in the data block's local world
    coordinates (voxel ``i`` spans ``[i, i+1)``, its center at ``i+0.5``).
    Matches CUDA 3D-texture filtering with clamp-to-edge.  Runs in
    float32 with flat ravel-offset gathers (see :func:`_trilinear_flat`).
    """
    c = np.asarray(local_pos, dtype=_F32) - _F32(0.5)
    flat = np.ascontiguousarray(data).ravel()
    return _trilinear_flat(flat, data.shape, c[:, 0], c[:, 1], c[:, 2])


def _sample_intervals(
    tn_brick: np.ndarray,
    tf_brick: np.ndarray,
    tn_volume: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(k_first, count) of the owned global sample indices per ray.

    ``k`` is owned iff ``t_k = tnv + (k+½)·dt`` lies in
    ``[tn_brick, tf_brick)``.  Evaluated with one shared float32 formula
    so adjacent bricks' runs tile each ray exactly (see module docs).
    """
    dt = _F32(dt)
    # int64: a tiny dt over a long ray can exceed int32 sample indices,
    # which would wrap in the cast and silently drop the whole brick.
    kf = np.ceil((tn_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    np.maximum(kf, 0, out=kf)
    kl = np.ceil((tf_brick - tn_volume) / dt - _F32(0.5)).astype(np.int64)
    return kf, np.maximum(kl - kf, 0)


def _empty_space_table(
    data: np.ndarray, tf: TransferFunction1D, u_thr: float
) -> Optional[np.ndarray]:
    """Flat per-voxel table of "some corner of my cell can be visible".

    Entry ``i`` (data ravel order) is False only when the max over the
    2×2×2 corner block at ``i`` maps below the transfer function's first
    non-zero alpha — every trilinear sample based at ``i`` then has alpha
    exactly 0, so skipping it cannot change the image.
    """
    if u_thr < 0:
        return None
    m = np.maximum(data[:-1], data[1:])
    m = np.maximum(m[:, :-1], m[:, 1:])
    m = np.maximum(m[:, :, :-1], m[:, :, 1:])
    table = np.zeros(data.shape, dtype=bool)
    u = tf.table_coord(m.ravel())
    table[: data.shape[0] - 1, : data.shape[1] - 1, : data.shape[2] - 1] = (
        u > _F32(u_thr)
    ).reshape(m.shape)
    return table.ravel()


def _alpha_zero_threshold(tf: TransferFunction1D) -> float:
    """Largest table coordinate below which interpolated alpha is exactly 0.

    Samples with ``u <= u_thr`` interpolate between all-zero alpha table
    entries; returns −1 when the table has no leading zero run and +inf
    when alpha is identically zero.
    """
    nz = np.nonzero(tf.table[:, 3] > 0)[0]
    if len(nz) == 0:
        return np.inf
    if nz[0] == 0:
        return -1.0
    return float(nz[0] - 1)


_EMPTY_I32 = np.zeros(0, dtype=np.int32)


def _doubled_any(occ: np.ndarray) -> np.ndarray:
    """Flat "any occupied cell in the box" table on the doubled lattice.

    Per axis, entry ``2k`` is cell ``k`` and entry ``2k+1`` the cell pair
    ``{k, k+1}``; so a box whose corner cells ``a, b`` differ by at most
    one per axis is looked up at ``a + b`` — one ``np.take`` per box.
    """
    t = occ
    for axis in range(3):
        a = np.moveaxis(t, axis, 0)
        d = np.empty((2 * len(a) - 1,) + a.shape[1:], dtype=bool)
        d[0::2] = a
        d[1::2] = a[:-1] | a[1:]
        t = np.moveaxis(d, 0, axis)
    return np.ascontiguousarray(t).ravel()


def _macro_grid_spans(
    occ: np.ndarray,
    cell_size: int,
    base_w: np.ndarray,
    dirs: np.ndarray,
    t0: np.ndarray,
    counts: np.ndarray,
    dt: float,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupied sample spans per ray, carved one block window at a time.

    ``occ`` is the boolean macro-cell occupancy
    (:func:`~repro.render.accel.build_macro_grid`); ``base_w`` the
    lattice-origin offset ``eye − data_lo − ½`` the march itself uses;
    ``t0``/``counts`` the rays' first-owned-sample t and owned counts.

    Returns a CSR triple ``(row_ptr, j0, j1)``: ray ``i``'s occupied
    spans are the half-open global sample ordinals ``[j0[k], j1[k])``
    for ``k in [row_ptr[i], row_ptr[i+1])``, sorted and non-overlapping.

    Each ray's owned samples are cut into pieces of ``c`` consecutive
    samples: the march's ``block_size`` windows, shortened to
    ``ceil(cell_size/dt)`` samples when a window is longer than a cell
    (so ``(c−1)·dt < cell_size``).  For every piece the float64
    lattice positions ``base_w + t·d`` of its first and last sample give
    a bounding box of cells — clamped at the grid edge, which is where
    the trilinear base of a clamped sample lies — and the piece is kept
    iff any cell in that box is occupied.  With unit directions the box
    spans at most two cells per axis by construction (asserted, never
    clamped), so one ``np.take`` into :func:`_doubled_any` answers it.
    Cost is O(ray-pieces), independent of the grid size and of
    occupancy.

    Why the march stays bitwise identical to ``accel="off"``:

    * positions are linear in ``t`` and the clamped cell index is
      monotone in position, so every sample of a dropped piece lies in
      an empty cell of the box;
    * the march's float32 positions differ from these float64 ones by
      far less than the one-voxel support pad of the cell min/max
      (:func:`~repro.render.accel.build_macro_grid`), so such a sample
      draws its 2×2×2 support from inside the padded footprint of a
      cell classified empty and the kernel's exact filter
      ``u <= u_thr`` drops it anyway — the transmittance scan sees the
      same operand list;
    * the spans only remove samples; block windows, folds and ERT checks
      still fall at ``jb = 0, K, 2K, …`` and ``MapStats.n_samples``
      counts owned samples before any elision;
    * spans are whole pieces in integer sample ordinals: there is no
      t → ordinal rounding, hence no slack.
    """
    n = len(t0)
    no_spans = (np.zeros(n + 1, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64))
    cs = float(cell_size)
    dtf = float(dt)
    c = max(1, min(int(block_size), int(np.ceil(cs / dtf))))
    cnt = np.asarray(counts, dtype=np.int64)
    npc = (cnt + (c - 1)) // c  # pieces per ray
    m = int(npc.sum())
    if m == 0:
        return no_spans
    # Flat (ray, piece q) list, ray-major; per-ray values are np.repeat-ed
    # (a sequential copy) rather than gathered.
    first = np.cumsum(npc) - npc
    q = np.arange(m, dtype=np.int32) - np.repeat(first.astype(np.int32), npc)
    # t = t0 + j·dt of each piece's first and last sample, in float64.
    j_a = q * float(c)
    j_b = np.minimum(j_a + (c - 1), np.repeat((cnt - 1).astype(np.float64), npc))
    t0r = np.repeat(t0.astype(np.float64), npc)
    t_a = j_a * dtf + t0r
    t_b = j_b * dtf + t0r
    # Per axis: the clamped cells ca, cb of the two ends, in cell units
    # u = (base_w + t·d) / cs (truncating, then clamping at 0, floors).
    bwc = np.asarray(base_w, dtype=np.float64) / cs
    u = np.empty(m)
    idx = None
    for a, g in enumerate(occ.shape):
        dc = np.repeat(dirs[:, a].astype(np.float64) / cs, npc)
        np.multiply(t_a, dc, out=u)
        u += bwc[a]
        ca = u.astype(np.int32)
        np.clip(ca, 0, g - 1, out=ca)
        np.multiply(t_b, dc, out=u)
        u += bwc[a]
        e = u.astype(np.int32)
        np.clip(e, 0, g - 1, out=e)
        e -= ca
        assert e.min() >= -1 and e.max() <= 1, "a piece spans > 2 cells"
        e += 2 * ca  # ca + cb: the doubled-lattice coordinate of the box
        if idx is None:
            idx = e
        else:
            idx *= 2 * g - 1
            idx += e
    kept = np.nonzero(np.take(_doubled_any(occ), idx))[0]
    if len(kept) == 0:
        return no_spans
    # Merge runs of consecutive kept pieces of one ray into one span.
    kq = q[kept]
    new = np.empty(len(kept), dtype=bool)
    new[0] = True
    np.not_equal(kept[1:], kept[:-1] + 1, out=new[1:])
    new |= kq == 0  # a ray's first piece never merges into the previous ray
    starts = np.nonzero(new)[0]
    ends = np.r_[starts[1:], len(kept)] - 1
    span_rows = np.repeat(np.arange(n, dtype=np.int32), npc)[kept[starts]]
    j0 = kq[starts].astype(np.int64) * c
    j1 = np.minimum((kq[ends].astype(np.int64) + 1) * c, cnt[span_rows])
    row_ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(span_rows, minlength=n), out=row_ptr[1:])
    return row_ptr, j0, j1


def _block_spans_flat(
    spans: tuple[np.ndarray, np.ndarray, np.ndarray],
    li: np.ndarray,
    cnt: np.ndarray,
    jb: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One block's flat (row, global ordinal) sample list, grid-carved.

    Intersects the alive rays' occupied spans with the block window
    ``[jb, jb + cnt_row)``.  Rows ascend and ordinals ascend within each
    row — the same ordering the uncarved construction produces — so all
    downstream segment handling (scan boundaries, reduceat starts) is
    oblivious to the carve.
    """
    row_ptr, sj0, sj1 = spans
    s0 = row_ptr[li]
    lens = row_ptr[li + 1] - s0
    nsp = int(lens.sum())
    if nsp == 0:
        return _EMPTY_I32, _EMPTY_I32
    L = len(li)
    srow = np.repeat(np.arange(L, dtype=np.int32), lens)
    off = np.zeros(L, dtype=np.int64)
    np.cumsum(lens[:-1], dtype=np.int64, out=off[1:])
    sidx = (np.arange(nsp, dtype=np.int64) - np.take(off, srow)) + np.take(s0, srow)
    b0 = np.maximum(np.take(sj0, sidx), jb)
    b1 = np.minimum(np.take(sj1, sidx), jb + np.take(cnt, srow))
    ln = b1 - b0
    keep = ln > 0
    if not keep.all():
        srow = srow[keep]
        b0 = b0[keep]
        ln = ln[keep]
    m = int(ln.sum())
    if m == 0:
        return _EMPTY_I32, _EMPTY_I32
    ns = len(ln)
    rows = np.repeat(srow, ln)
    off2 = np.zeros(ns, dtype=np.int64)
    np.cumsum(ln[:-1], dtype=np.int64, out=off2[1:])
    span_of = np.repeat(np.arange(ns, dtype=np.int64), ln)
    j_flat = (
        np.arange(m, dtype=np.int64) - np.take(off2, span_of) + np.take(b0, span_of)
    ).astype(np.int32)
    return rows, j_flat


def raycast_brick(
    data: np.ndarray,
    data_lo: tuple[int, int, int],
    core_lo: tuple[int, int, int],
    core_hi: tuple[int, int, int],
    volume_shape: tuple[int, int, int],
    camera: Camera,
    tf: TransferFunction1D,
    config: RenderConfig = RenderConfig(),
    rect: Optional[PixelRect] = None,
    accel_key: Optional[tuple] = None,
    accel_cache: Optional["AccelCache"] = None,
) -> tuple[np.ndarray, MapStats]:
    """Ray cast one ghost-padded brick; return (fragments, stats).

    Parameters mirror a :class:`~repro.volume.bricking.Brick`: ``data`` is
    the padded payload starting at voxel ``data_lo``; the half-open core
    is ``[core_lo, core_hi)``; ``volume_shape`` defines the global box
    used for the shared ray parametrisation.

    ``accel_key`` (optional) enables empty-space caching: it must
    uniquely identify ``(data, tf)`` — the renderer uses
    ``(volume token, brick id, tf version)`` — and lookups go to
    ``accel_cache`` (default: the process-wide
    :func:`~repro.render.accel.shared_cache`).  The corner-max table is
    cached under the key itself; the macro-cell occupancy grid under
    :func:`~repro.render.accel.grid_key` (bricks where no grid can help
    cache the ``NO_GRID`` sentinel instead, so the negative result is
    not recomputed every frame).  Both structures are pure functions of
    ``(data, tf)`` and skipping with them provably cannot change the
    image or the stats, so caching never affects output.
    """
    stats = MapStats()
    core_lo_w = np.asarray(core_lo, dtype=np.float64)
    core_hi_w = np.asarray(core_hi, dtype=np.float64)

    if rect is None:
        corners = np.array(
            [
                [
                    (core_lo_w[0], core_hi_w[0])[(c >> 0) & 1],
                    (core_lo_w[1], core_hi_w[1])[(c >> 1) & 1],
                    (core_lo_w[2], core_hi_w[2])[(c >> 2) & 1],
                ]
                for c in range(8)
            ]
        )
        rect = camera.brick_rect(corners, pad_to_block=config.pad_to_block)
    if rect.empty:
        return empty_fragments(), stats

    dirs, keys = camera.rect_rays_f32(rect)
    n = len(keys)
    stats.n_rays = n
    eye = np.asarray(camera.eye, dtype=np.float64)

    tn_b, tf_b, hit_b, tn_v, _, hit_v = dual_box_intersect_f32(
        eye, dirs, core_lo_w, core_hi_w, np.zeros(3), volume_shape
    )
    active = hit_b & hit_v & (tf_b > tn_b)
    stats.n_active_rays = int(active.sum())

    def emit(acc_rgb, acc_a, first_t, contributed):
        stats.n_emitted = n if config.emit_placeholders else int(contributed.sum())
        stats.n_kept = int(contributed.sum())
        if config.emit_placeholders:
            pix = np.where(contributed, keys, PLACEHOLDER_KEY).astype(np.int32)
            depth = np.where(contributed, first_t, _F32(0.0))
            rgba = np.concatenate([acc_rgb, acc_a[:, None]], axis=1)
            rgba[~contributed] = 0.0
            return make_fragments(pix, depth, rgba)
        sel = np.nonzero(contributed)[0]
        rgba = np.concatenate([acc_rgb[sel], acc_a[sel, None]], axis=1)
        return make_fragments(keys[sel], first_t[sel], rgba)

    if stats.n_active_rays == 0:
        z1 = np.zeros(n, dtype=_F32)
        frags = emit(np.zeros((n, 3), _F32), z1, z1, np.zeros(n, dtype=bool))
        return frags, stats

    dt = _F32(config.dt)
    ai = np.nonzero(active)[0]
    tnv_c = tn_v[ai]
    kf, counts = _sample_intervals(tn_b[ai], tf_b[ai], tnv_c, dt)
    d_c = dirs[ai]
    # t of each ray's first owned sample; later samples add whole steps.
    t0_c = tnv_c + (kf.astype(_F32) + _F32(0.5)) * dt
    # Lattice coords c = (position − ½) with the brick origin folded in.
    base_w = (eye - np.asarray(data_lo, np.float64) - 0.5).astype(_F32)

    n_act = len(ai)
    acc_rgb_c = np.zeros((n_act, 3), dtype=_F32)
    acc_a_c = np.zeros(n_act, dtype=_F32)
    term = np.zeros(n_act, dtype=bool)

    K = config.block_size
    use_ert = config.ert_alpha < 1.0
    flat = np.ascontiguousarray(data).ravel()
    shape = data.shape
    fetches = config.fetches_per_sample
    nx, ny, nz = shape
    # Interior bricks with a full one-voxel ghost shell keep every
    # sample's 2×2×2 support inside the payload — no clamping needed.
    dlo = np.asarray(data_lo)
    need_clamp = bool(
        np.any(dlo > np.asarray(core_lo) - 1)
        or np.any(dlo + np.asarray(shape) < np.asarray(core_hi) + 1)
    )
    u_thr = _alpha_zero_threshold(tf)
    total_expected = int(counts.sum())
    # The empty-space structures cost O(voxels); build them only when the
    # march is big enough to amortize it — unless a cached copy is free.
    build_worthwhile = total_expected > data.size // 8
    skip_table = None
    # u_thr < 0 means the alpha table has no leading zero run: there is
    # nothing to skip and _empty_space_table would return None.
    table_possible = (
        config.accel != "off"
        and np.isfinite(u_thr)
        and u_thr >= 0
        and min(shape) >= 2
    )
    cache = None
    if config.accel != "off" and accel_key is not None:
        from .accel import shared_cache

        cache = accel_cache if accel_cache is not None else shared_cache()
    if table_possible:
        if cache is not None:
            skip_table = cache.get(accel_key)
        if skip_table is None and build_worthwhile:
            skip_table = _empty_space_table(data, tf, u_thr)
            if cache is not None and skip_table is not None:
                cache.put(accel_key, skip_table)
    # Macro-cell occupancy grid: carves whole transparent spans off each
    # ray's owned interval before the march (bitwise-invisible; see the
    # module docstring's proof obligation).
    grid_occ = None
    if config.accel == "grid" and min(shape) >= 2:
        from .accel import build_macro_grid, grid_key, is_no_grid

        gkey = (
            grid_key(accel_key, config.macro_cell_size)
            if accel_key is not None
            else None
        )
        if cache is not None and gkey is not None:
            grid_occ = cache.get(gkey)
        if grid_occ is None and build_worthwhile:
            grid_occ = build_macro_grid(data, tf, config.macro_cell_size)
            if cache is not None and gkey is not None:
                cache.put(gkey, grid_occ)
        if grid_occ is not None and is_no_grid(grid_occ):
            grid_occ = None  # cached negative: no grid can help here
    spans = None
    if grid_occ is not None:
        spans = _macro_grid_spans(
            grid_occ,
            config.macro_cell_size,
            base_w,
            d_c,
            t0_c,
            counts,
            config.dt,
            config.block_size,
        )

    # The march itself runs behind the kernel contract: the numpy
    # backend is this function's original blocked fold moved verbatim
    # (bitwise-identical), the numba backend a compiled per-ray marcher
    # (exact keys/depths/counters, tolerance-banded colors — see the
    # kernels package docstring).  Imported lazily: kernels imports this
    # module's helpers at load time.
    from .kernels import MarchPlan, resolve_kernel

    kspec = resolve_kernel(config.kernel)
    plan = MarchPlan(
        data=data,
        flat=flat,
        shape=shape,
        need_clamp=need_clamp,
        counts=counts,
        t0=t0_c,
        dirs=d_c,
        base_w=base_w,
        dt=float(config.dt),
        block_size=K,
        use_ert=use_ert,
        ert_alpha=float(config.ert_alpha),
        u_thr=float(u_thr),
        skip_table=skip_table,
        spans=spans,
        tf=tf,
        shading=config.shading,
        acc_rgb=acc_rgb_c,
        acc_a=acc_a_c,
        term=term,
    )
    stats.n_samples += kspec.march(plan) * fetches

    # Expand to the full ray set and emit.
    acc_rgb = np.zeros((n, 3), dtype=_F32)
    acc_a = np.zeros(n, dtype=_F32)
    first_t = np.zeros(n, dtype=_F32)
    has_samples = np.zeros(n, dtype=bool)
    acc_rgb[ai] = acc_rgb_c
    acc_a[ai] = acc_a_c
    first_t[ai] = t0_c
    has_samples[ai] = counts > 0
    contributed = has_samples & (acc_a > config.alpha_eps)
    first_t = np.where(contributed, first_t, _F32(0.0))
    return emit(acc_rgb, acc_a, first_t, contributed), stats
