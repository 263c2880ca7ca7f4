"""Ray/box geometry.

Everything is vectorised over rays: the ray-cast "kernel" processes one
brick's whole pixel footprint as NumPy arrays, which is the CPU analogue
of the paper's 16×16-thread CUDA blocks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ray_box_intersect", "box_contains", "dual_box_intersect_f32"]


def ray_box_intersect(
    origins: np.ndarray,
    directions: np.ndarray,
    box_lo: np.ndarray,
    box_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slab-method intersection of N rays with one AABB.

    Parameters
    ----------
    origins, directions:
        ``(N, 3)`` ray origins and (not necessarily unit) directions.
    box_lo, box_hi:
        ``(3,)`` box corners, ``lo < hi`` componentwise.

    Returns
    -------
    (t_near, t_far, hit):
        Entry/exit parameters and a boolean hit mask.  ``t_near`` is
        clamped to 0 so rays starting inside the box enter at t=0.  All
        rays the paper's kernel would "immediately discard" have
        ``hit=False``.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origins.ndim != 2 or origins.shape[1] != 3:
        raise ValueError(f"origins must be (N,3), got {origins.shape}")
    if directions.shape != origins.shape:
        raise ValueError("origins/directions shape mismatch")
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    if np.any(box_hi <= box_lo):
        raise ValueError(f"degenerate box {box_lo}..{box_hi}")

    # One pass per axis over contiguous columns: elementwise min/max is
    # exact, so this is bitwise the row-wise ``max(axis=1)`` reduction
    # without its stride-3 access pattern.
    t_near = t_far = None
    for a in range(3):
        o = origins[:, a]
        d = directions[:, a]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / d
            t1 = (box_lo[a] - o) * inv
            t2 = (box_hi[a] - o) * inv
        t_lo = np.minimum(t1, t2)
        t_hi = np.maximum(t1, t2)
        # A zero direction component makes the ray parallel to this slab:
        # inside → (-inf, +inf), outside → empty interval.  Applied after
        # the min/max so the empty interval (+inf, -inf) is not re-ordered,
        # and so 0·inf NaNs from origins on a slab face are overwritten.
        parallel = d == 0.0
        if parallel.any():
            inside = (o >= box_lo[a]) & (o <= box_hi[a])
            t_lo = np.where(parallel, np.where(inside, -np.inf, np.inf), t_lo)
            t_hi = np.where(parallel, np.where(inside, np.inf, -np.inf), t_hi)
        t_near = t_lo if t_near is None else np.maximum(t_near, t_lo)
        t_far = t_hi if t_far is None else np.minimum(t_far, t_hi)
    hit = (t_far >= t_near) & (t_far >= 0.0)
    t_near = np.maximum(t_near, 0.0)
    return t_near, t_far, hit


def dual_box_intersect_f32(
    eye: np.ndarray,
    dirs: np.ndarray,
    lo_a: np.ndarray,
    hi_a: np.ndarray,
    lo_b: np.ndarray,
    hi_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Slab intersection of shared-origin rays with two AABBs, float32.

    The ray-cast kernel needs both the brick-core and the whole-volume
    interval for every ray; fusing the two tests shares the reciprocal
    directions and the eye-relative box corners, and float32 halves the
    memory traffic of the f64 general-purpose :func:`ray_box_intersect`.
    Face t-values are ``(face − eye_axis) · inv_axis`` — bitwise identical
    for the shared face of two adjacent bricks, which is what lets the
    kernel carve exact per-ray sample intervals out of these numbers.

    A ray with a zero direction component lies in a slab forever or
    never; it is inside iff ``lo <= eye < hi`` on that axis — the same
    half-open rule as :func:`box_contains`, so a ray travelling exactly
    in the shared face of two adjacent bricks belongs to one of them.

    Returns ``(tn_a, tf_a, hit_a, tn_b, tf_b, hit_b)`` (all float32 /
    bool) with ``tn`` clamped to 0 (rays starting inside enter at t=0).
    """
    d = np.asarray(dirs, dtype=np.float32)
    eye = np.asarray(eye, dtype=np.float32)
    rel_lo_a = np.asarray(lo_a, dtype=np.float32) - eye
    rel_hi_a = np.asarray(hi_a, dtype=np.float32) - eye
    rel_lo_b = np.asarray(lo_b, dtype=np.float32) - eye
    rel_hi_b = np.asarray(hi_b, dtype=np.float32) - eye
    # Contiguous per-axis columns: each slab is one elementwise pass, and
    # elementwise min/max is exact, so folding the three axes pairwise is
    # bitwise the row-wise max/min reduction.
    with np.errstate(divide="ignore", over="ignore"):
        inv = [np.float32(1.0) / d[:, a] for a in range(3)]
    parallel = [d[:, a] == 0.0 for a in range(3)]
    neg_inf, pos_inf = np.float32(-np.inf), np.float32(np.inf)

    def one_box(rel_lo, rel_hi):
        tn = tf = None
        for a in range(3):
            with np.errstate(invalid="ignore", over="ignore"):
                t1 = rel_lo[a] * inv[a]
                t2 = rel_hi[a] * inv[a]
            lo_t = np.minimum(t1, t2)
            hi_t = np.maximum(t1, t2)
            if parallel[a].any():
                # Constant-coordinate lanes (also overwrites 0·inf NaNs).
                inside = rel_lo[a] <= 0.0 < rel_hi[a]
                lo_t[parallel[a]] = neg_inf if inside else pos_inf
                hi_t[parallel[a]] = pos_inf if inside else neg_inf
            tn = lo_t if tn is None else np.maximum(tn, lo_t, out=tn)
            tf = hi_t if tf is None else np.minimum(tf, hi_t, out=tf)
        hit = (tf >= tn) & (tf >= 0.0)
        np.maximum(tn, np.float32(0.0), out=tn)
        return tn, tf, hit

    tn_a, tf_a, hit_a = one_box(rel_lo_a, rel_hi_a)
    # A brick spanning the whole volume (reference renders, single-brick
    # grids) makes the second test a mirror of the first.
    if np.array_equal(rel_lo_a, rel_lo_b) and np.array_equal(rel_hi_a, rel_hi_b):
        return tn_a, tf_a, hit_a, tn_a, tf_a, hit_a
    tn_b, tf_b, hit_b = one_box(rel_lo_b, rel_hi_b)
    return tn_a, tf_a, hit_a, tn_b, tf_b, hit_b


def box_contains(
    points: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray
) -> np.ndarray:
    """Half-open containment test ``lo ≤ p < hi``, vectorised over points.

    The half-open convention is what makes brick cores partition the
    volume exactly: a sample landing on a shared face belongs to exactly
    one brick.
    """
    points = np.asarray(points)
    lo = np.asarray(box_lo)
    hi = np.asarray(box_hi)
    return np.all((points >= lo) & (points < hi), axis=-1)
