"""Per-layer attribution, measured from outside the program.

Two sources, both outside ``src/``:

* the spans the program already emits once
  :func:`repro.observability.enable_tracing` is on, billed to frames by
  their ``frame`` argument (the pool's frame seq) or, for spans without
  one, by the frame whose submit-to-image window holds their start;
* direct, repeated calls into public layer functions on the workload's
  own data.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from repro.core.sort import counting_sort_pairs
from repro.render.accel import AccelCache, build_macro_grid
from repro.render.compositing import composite_fragments
from repro.render.raycast import raycast_brick
from repro.volume.bricking import bricks_for_gpu_count

from workloads import GPUS

WORKER_CATS = ("map", "shuffle", "reduce", "stall")
DIRECT_REPEATS = 5


def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class FrameSpans:
    """The spans billed to one frame."""

    def __init__(self):
        self.by_name = defaultdict(list)  # name prefix -> durations (ns)
        self.by_cat = defaultdict(int)  # category -> summed ns
        self.tracks = defaultdict(list)  # track -> [(t0, t1)] of worker spans
        self.publish_bytes = 0

    def ms(self, *cats) -> float:
        return sum(self.by_cat[c] for c in cats) / 1e6


def attribute_spans(tracer, frames) -> dict:
    """``{frame index: FrameSpans}`` for the recorded frames, plus the
    ``kernel-warmup`` durations under key ``"warmup"``."""
    by_seq = {f.seq: f for f in frames if f.seq is not None}
    windows = [(f.t0_ns, f.t2_ns, f) for f in frames]
    out = {f.index: FrameSpans() for f in frames}
    warmups = []
    for track, _gen, (name, cat, ts, dur, args) in tracer.all_events():
        if dur is None:
            continue
        if name == "kernel-warmup":
            warmups.append(dur)
            continue
        seq = (args or {}).get("frame")
        rec = by_seq.get(seq) if seq is not None else None
        if rec is None:
            rec = next((f for a, b, f in windows if a <= ts <= b), None)
        if rec is None:
            continue
        fs = out[rec.index]
        fs.by_name[name.split(":")[0]].append(dur)
        fs.by_cat[cat] += dur
        if name == "publish":
            fs.publish_bytes += int((args or {}).get("bytes", 0))
        if track is not None or cat in WORKER_CATS:
            fs.tracks[track].append((ts, ts + dur))
    return {"frames": out, "warmup": warmups}


def span_metrics(attr, frames, workers: int) -> dict:
    """Per-frame span metrics over the timed frames (all but the first),
    reported as medians."""
    timed = frames[1:] or frames
    per = defaultdict(list)
    for f in timed:
        fs = attr["frames"][f.index]
        wall_ns = f.t2_ns - f.t0_ns
        busy_ns = sum(_union_ns(iv) for iv in fs.tracks.values())
        per["render.map_ms"].append(fs.ms("map"))
        per["core.reduce_ms"].append(fs.ms("reduce"))
        per["parallel.shuffle_ms"].append(fs.ms("shuffle"))
        per["parallel.ring_stall_ms"].append(fs.ms("stall"))
        per["pipeline.stitch_ms"].append(fs.ms("stitch"))
        per["parallel.worker_busy_frac"].append(busy_ns / (workers * wall_ns))
        per["parallel.untraced_ms"].append((workers * wall_ns - busy_ns) / 1e6)
        samples = f.stats.n_samples
        per["render.ns_per_sample"].append(fs.by_cat["map"] / samples if samples else 0.0)
    out = {k: statistics.median(v) for k, v in per.items()}
    publishes = [d for f in frames for d in attr["frames"][f.index].by_name["publish"]]
    out["parallel.publish_ms"] = statistics.median(publishes) / 1e6 if publishes else 0.0
    out["parallel.publish_bytes"] = statistics.mean(
        attr["frames"][f.index].publish_bytes for f in timed
    )
    out["parallel.publishes_per_frame"] = statistics.mean(
        len(attr["frames"][f.index].by_name["publish"]) for f in timed
    )
    out["parallel.kernel_warmup_ms"] = max(attr["warmup"], default=0) / 1e6
    first = attr["frames"][frames[0].index].by_name["reduce"]
    out["core.first_reduce_ms"] = max(first, default=0) / 1e6
    return out


def _median_ms(fn, repeats=DIRECT_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def direct_metrics(inputs, camera) -> dict:
    """Direct calls into single layers on the workload's own bricks."""
    vol, tf, cfg = inputs.volume, inputs.tf(0), inputs.config
    grid = bricks_for_gpu_count(vol.shape, GPUS)
    bricks = list(grid)
    extract_ms = _median_ms(lambda: [grid.extract(vol, b) for b in bricks])
    data = {b.id: grid.extract(vol, b) for b in bricks}

    grid_ms = _median_ms(
        lambda: [build_macro_grid(data[b.id], tf, cfg.macro_cell_size) for b in bricks],
        repeats=3,
    ) / len(bricks)

    cache = AccelCache()

    def cast(b):
        return raycast_brick(
            data[b.id], b.data_lo, b.lo, b.hi, vol.shape, camera, tf, cfg,
            accel_key=("perfbench", b.id, tf.version), accel_cache=cache,
        )[0]

    largest = max(bricks, key=lambda b: b.nbytes)
    cast(largest)  # warm the acceleration cache
    raycast_ms = _median_ms(lambda: cast(largest))

    frags = np.concatenate([cast(b) for b in bricks])
    n_pixels = camera.pixel_count
    counting_sort_pairs(frags, "pixel", 0, n_pixels - 1)  # load the scatter kernel
    return {
        "volume.extract_ms": extract_ms,
        "render.build_macro_grid_ms": grid_ms,
        "render.raycast_brick_ms": raycast_ms,
        "render.composite_ms": _median_ms(lambda: composite_fragments(frags, n_pixels)),
        "core.counting_sort_ms": _median_ms(
            lambda: counting_sort_pairs(frags, "pixel", 0, n_pixels - 1)
        ),
    }
