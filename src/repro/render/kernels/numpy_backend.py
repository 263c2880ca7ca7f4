"""The numpy march backend — the blocked vectorized fold, the oracle.

A brick's march is one window-major sample stream: each ray's sample
spans (the macro-grid carve's CSR spans, or ``[0, count)`` without a
grid) are split once at the ``block_size`` window boundaries into
``(ray, first ordinal, length)`` pieces, stably ordered by window.  Each
block takes its window's pieces, drops terminated rays, and expands the
rest with ``np.repeat`` — rays ascending, ordinals ascending within a
ray.  Precision is the mixed walk NumPy's promotions produce (see the
package docstring): ``t``, positions and lerps in float64, the float32
per-ray operands cast once per brick (exact); TF and fold in float32.
"""

from __future__ import annotations

import numpy as np

from ..compositing import segmented_exclusive_cumprod
from ..raycast import _trilinear_gather, _trilinear_prep
from ..transfer import opacity_correction
from . import KernelSpec, MarchPlan

_F32 = np.float32


def _window_pieces(counts, spans, K):
    """``(ray, j0, length, wptr)``: window ``w``'s pieces are
    ``[wptr[w], wptr[w+1])``, in ray-major order within the window."""
    n = len(counts)
    if spans is None:  # one [0, count) span per ray
        spans = (np.arange(n + 1), np.zeros(n, np.int64), counts)
    row_ptr, j0, j1 = spans
    wa = j0 // K
    npc = (j1 - 1) // K - wa + 1  # pieces per span (0 for an empty ray)
    w = np.arange(int(npc.sum())) - np.repeat(np.cumsum(npc) - npc - wa, npc)
    ray = np.repeat(np.repeat(np.arange(n, dtype=np.int32), np.diff(row_ptr)), npc)
    pj0 = np.maximum(np.repeat(j0, npc), w * K)
    plen = np.minimum(np.repeat(j1, npc), (w + 1) * K) - pj0
    nw = int(w.max(initial=-1)) + 1
    # A stable sort by window; small unsigned keys take NumPy's radix sort.
    order = np.argsort(w.astype(np.min_scalar_type(nw)), kind="stable")
    wptr = np.zeros(nw + 1, np.int64)
    np.cumsum(np.bincount(w, minlength=nw), out=wptr[1:])
    return np.take(ray, order), np.take(pj0, order), np.take(plen, order), wptr


def _expand(pr, pj, pl, t0, dt):
    """A window's flat sample rows and ``t = t0 + j·dt`` (float64; ``j``
    the global ordinal, ``j·dt`` exact)."""
    ends = np.cumsum(pl)
    t = np.arange(ends[-1], dtype=np.float64)
    t += np.repeat(pj - ends + pl, pl)
    t *= dt
    t += np.repeat(np.take(t0, pr), pl)
    return np.repeat(pr, pl), t


def _positions(pr, pl, t, dirs, base_w):
    """Per-axis float64 lattice coords ``base_w + t·d`` of the samples."""
    c = [np.repeat(np.take(dirs[a], pr), pl) for a in range(3)]
    for a in range(3):
        c[a] *= t
        c[a] += base_w[a]
    return c


def _fold(rows, rgba, a, acc_rgb, acc_a):
    """Fold a window's visible samples into the per-ray accumulators:
    a segmented exclusive scan of ``1 − α`` per ray, scaled by the
    carried-in ``1 − acc_a``.  Returns the rays it touched."""
    n = len(rows)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(rows[1:], rows[:-1], out=first[1:])
    starts = np.nonzero(first)[0]
    wt = segmented_exclusive_cumprod(_F32(1.0) - a, first) * a
    present = np.take(rows, starts)
    t_prior = _F32(1.0) - np.take(acc_a, present)
    # One reduceat per colour column: reduceat sums each column the same
    # way in the 2-D form, so the bits match it and the 1-D calls are faster.
    contrib = np.empty((len(starts), 3), dtype=_F32)
    for ch in range(3):
        np.add.reduceat(wt * rgba[:, ch], starts, out=contrib[:, ch])
    contrib *= t_prior[:, None]
    contrib += np.take(acc_rgb, present, axis=0)
    acc_rgb[present] = contrib
    acc_a[present] += t_prior * np.add.reduceat(wt, starts)
    return present


def march(plan: MarchPlan) -> int:
    """Run the blocked march; returns the owned-sample count."""
    counts, K, term = plan.counts, plan.block_size, plan.term
    ray, pj0, plen, wptr = _window_pieces(counts, plan.spans, K)
    # The float64 operands NumPy promotes the float32 ones to, cast once.
    dt = float(_F32(plan.dt))
    t0 = plan.t0.astype(np.float64)
    dirs = np.ascontiguousarray(plan.dirs.T, dtype=np.float64)
    base_w = plan.base_w.astype(np.float64)
    stop = counts.copy()  # a ray terminated after window w owns ≤ (w+1)·K
    for w in range(len(wptr) - 1):
        pr, pj, pl = (x[wptr[w] : wptr[w + 1]] for x in (ray, pj0, plen))
        live = np.nonzero(~np.take(term, pr))[0]
        if len(live) < len(pr):
            pr, pj, pl = (np.take(x, live) for x in (pr, pj, pl))
        if len(pr) == 0:
            continue
        rows, t = _expand(pr, pj, pl, t0, dt)
        c = _positions(pr, pl, t, dirs, base_w)
        # Rows (and for shading the unclipped positions) ride both filters.
        kept = [rows] + ([p.copy() for p in c] if plan.shading else [])
        base = _trilinear_prep(plan.shape, *c, clamp=plan.need_clamp)
        if plan.skip_table is not None:
            # Probed at the exact 2×2×2 support base the gather uses.
            op = np.nonzero(np.take(plan.skip_table, base))[0]
            if len(op) == 0:
                continue
            if len(op) < len(base):
                base, *c = (np.take(x, op) for x in (base, *c))
                kept = [np.take(x, op) for x in kept]
        u = plan.tf.table_coord(_trilinear_gather(plan.flat, plan.shape, base, *c))
        if plan.u_thr >= 0:
            opq = np.nonzero(u > _F32(plan.u_thr))[0]
            if len(opq) == 0:
                continue
            if len(opq) < len(u):
                u = np.take(u, opq)
                kept = [np.take(x, opq) for x in kept]
        rows, *pos = kept
        rgba = plan.tf.lookup_from_u(u)
        if plan.shading:
            from ..shading import central_gradient, shade_phong

            grads = central_gradient(plan.data, np.stack(pos, axis=1) + _F32(0.5))
            view = np.take(plan.dirs, rows, axis=0)
            rgba[:, :3] = shade_phong(rgba[:, :3], grads, view)
        present = _fold(rows, rgba, opacity_correction(rgba[:, 3], plan.dt),
                        plan.acc_rgb, plan.acc_a)
        if plan.use_ert:  # only rays whose alpha just changed can terminate
            hit = np.take(plan.acc_a, present) >= _F32(plan.ert_alpha)
            done = np.take(present, np.nonzero(hit)[0])
            term[done] = True
            stop[done] = (w + 1) * K
    # Every *owned* sample of a live block counts, before any empty-space
    # elision — the counters are part of the bitwise parity contract
    # across accel modes and backends.
    return int(np.minimum(counts, stop).sum())


def warmup() -> None:
    """Nothing to compile for the numpy fold."""


SPEC = KernelSpec(name="numpy", march=march, warmup=warmup)
