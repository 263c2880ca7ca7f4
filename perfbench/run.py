#!/usr/bin/env python3
"""Closed-loop orbit benchmark of the MapReduce volume renderer.

Run from the repository root::

    python3 perfbench/run.py --workload orbit-dense --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run for the per-layer metrics.
Both runs pass every checked frame through the correctness gate and
audit shared-memory and socket leaks after ``close()``.  A report goes
to stdout; its last line is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.bench.results import collect_environment  # noqa: E402
from repro.observability import disable_tracing, enable_tracing  # noqa: E402
from repro.parallel import usable_cores  # noqa: E402
from repro.render.accel import shared_cache  # noqa: E402

import layers  # noqa: E402
import orbit as ob  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

SETUP_PROBES = 1  # fresh processes per run, besides the run's own set-up
PROBE_TIMEOUT_S = 60
# The traced run spends this share of --seconds on the traced orbit and
# re-renders the same frames untraced for the overhead comparison.
TRACED_SHARE = 0.5

UNITS = {
    "fps": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frame_ok_rate": "frac",
    "render.map_ms": "ms",
    "render.ns_per_sample": "ns",
    "render.samples": "count",
    "render.rays": "count",
    "render.raycast_brick_ms": "ms",
    "render.build_macro_grid_ms": "ms",
    "render.composite_ms": "ms",
    "core.reduce_ms": "ms",
    "core.counting_sort_ms": "ms",
    "core.fragments": "count",
    "core.discard_frac": "frac",
    "core.first_reduce_ms": "ms",
    "parallel.shuffle_ms": "ms",
    "parallel.shuffle_bytes": "bytes",
    "parallel.ring_stall_ms": "ms",
    "parallel.queue_fallbacks": "count",
    "parallel.worker_busy_frac": "frac",
    "parallel.untraced_ms": "ms",
    "parallel.publish_ms": "ms",
    "parallel.publish_bytes": "bytes",
    "parallel.publishes_per_frame": "count",
    "parallel.kernel_warmup_ms": "ms",
    "parallel.respawns": "count",
    "pipeline.submit_ms": "ms",
    "pipeline.collect_ms": "ms",
    "pipeline.stitch_ms": "ms",
    "pipeline.construct_ms": "ms",
    "pipeline.first_submit_ms": "ms",
    "volume.extract_ms": "ms",
    "observability.trace_overhead_frac": "frac",
}


class Run:
    """Counts and notes of one benchmark run."""

    def __init__(self, inputs, seed):
        self.attempted = 0
        self.failures: list[str] = []
        self.record = {"workload": inputs.workload.name, "seed": seed}

    def add_orbit(self, orbit):
        self.attempted += orbit.attempted
        self.failures += orbit.errors


def setup_once(inputs, run):
    """Construct a renderer and render frame 0 in this fresh process.

    Returns ``(renderer, orbit, {construct_ms, first_submit_ms, setup_s})``;
    the renderer is left open for the caller."""
    t0 = time.perf_counter()
    renderer = inputs.renderer()
    t1 = time.perf_counter()
    orbit = ob.Orbit()
    ob.run_orbit(renderer, inputs, 0, orbit, count=1)
    t2 = time.perf_counter()
    split = {"setup_s": t2 - t0, "construct_ms": (t1 - t0) * 1e3}
    if orbit.frames:
        f = orbit.frames[0]
        split["first_submit_ms"] = (f.t1_ns - f.t0_ns) / 1e6
    return renderer, orbit, split


def close_and_audit(renderer, before, run):
    """Close the renderer and count any IPC name it left behind."""
    renderer.close()
    leaked = sorted(ob.ipc_names() - before)
    if leaked:
        run.failures.append(f"leaked after close(): {leaked}")
    run.record.setdefault("leaks", []).extend(leaked)


def provenance(run, renderer, frames):
    stats = frames[0].stats if frames else None
    ring = getattr(stats, "ring", None) or {}
    counts = [(f.index, f.stats.n_samples, f.stats.n_pairs_kept) for f in frames[:8]]
    run.record.update(
        environment=collect_environment(),
        kernel_backend=renderer.render_config.kernel,
        shuffle_mode=ring.get("shuffle_mode"),
        workers=renderer.executor_workers,
        usable_cores=usable_cores(),
        frame0_samples=counts[0][1] if counts else None,
        frame0_fragments=counts[0][2] if counts else None,
        work_digest=hashlib.blake2b(repr(counts).encode(), digest_size=8).hexdigest(),
    )


def probe_setup(workload, seed):
    """``setup_s`` of one fresh process running ``--setup-probe``."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1])


def untraced_run(inputs, seed, seconds, run) -> dict:
    setups, errors = [], []
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        try:
            probe = probe_setup(inputs.workload.name, seed)
            setups.append(probe["setup_s"])
            run.failures += probe["failures"]
        except Exception as exc:  # noqa: BLE001
            errors.append(f"setup probe: {type(exc).__name__}: {exc}")
    run.failures += errors

    ob.reset_peak_rss()
    before = ob.ipc_names()
    renderer, first, split = setup_once(inputs, run)
    try:
        setups.append(split["setup_s"])
        orbit = ob.run_orbit(renderer, inputs, 1, first, seconds=seconds)
        run.add_orbit(orbit)
        rss = ob.peak_rss_mb()
        provenance(run, renderer, orbit.frames)
    finally:
        close_and_audit(renderer, before, run)
    run.failures += ob.check_frames(inputs, orbit.frames)

    timed = orbit.frames[1:]
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss}
    if timed:
        walls_ms = [f.wall_s * 1e3 for f in timed]
        span_s = (timed[-1].t2_ns - timed[0].t0_ns) / 1e9
        pct, tail = ob.tail_percentile(walls_ms)
        metrics.update(
            fps=len(timed) / span_s,
            frame_ms_p50=statistics.median(walls_ms),
            frame_ms_tail=tail,
        )
        run.record.update(tail_percentile=pct, timed_frames=len(timed))
    run.record["setup_samples_s"] = setups
    return metrics


def traced_run(inputs, seconds, run) -> dict:
    tracer = enable_tracing()
    ob.reset_peak_rss()
    before = ob.ipc_names()
    renderer, traced, split = setup_once(inputs, run)
    try:
        ob.run_orbit(renderer, inputs, 1, traced, seconds=seconds * TRACED_SHARE)
        run.add_orbit(traced)
        workers = renderer.executor_workers or 1
        provenance(run, renderer, traced.frames)
    finally:
        close_and_audit(renderer, before, run)
    disable_tracing()
    frames = traced.frames
    run.failures += ob.check_frames(inputs, frames)
    if not frames:
        return {}

    # The same frames again with tracing off, for the overhead ratio.
    shared_cache().clear()
    before = ob.ipc_names()
    renderer, plain, _ = setup_once(inputs, run)
    try:
        ob.run_orbit(renderer, inputs, 1, plain, count=len(frames) - 1)
        run.add_orbit(plain)
    finally:
        close_and_audit(renderer, before, run)
    for a, b in zip(frames, plain.frames):
        if (a.stats.n_samples, a.stats.n_pairs_kept) != (b.stats.n_samples, b.stats.n_pairs_kept):
            run.failures.append(f"frame {a.index}: work counts differ between runs")

    timed = frames[1:] or frames
    m = layers.span_metrics(layers.attribute_spans(tracer, frames), frames, workers)

    def med(fn):
        return statistics.median(fn(f) for f in timed)

    def ring(f, *keys):
        r = f.stats.ring or {}
        return sum(r.get(k) or 0 for k in keys)

    m.update(
        {
            "render.samples": med(lambda f: f.stats.n_samples),
            "render.rays": med(lambda f: f.stats.n_rays),
            "core.fragments": med(lambda f: f.stats.n_pairs_kept),
            "core.discard_frac": med(lambda f: f.stats.discard_fraction),
            "parallel.shuffle_bytes": med(
                lambda f: ring(f, "mesh_bytes_total", "wire_bytes_total", "parent_run_bytes")
            ),
            "parallel.queue_fallbacks": med(lambda f: ring(f, "queue_fallbacks")),
            "parallel.respawns": max(
                ((f.stats.recovery or {}).get("respawns", 0) for f in frames), default=0
            ),
            "pipeline.submit_ms": med(lambda f: (f.t1_ns - f.t0_ns) / 1e6),
            "pipeline.collect_ms": med(lambda f: (f.t2_ns - f.t1_ns) / 1e6),
            "pipeline.construct_ms": split["construct_ms"],
            "pipeline.first_submit_ms": split.get("first_submit_ms", 0.0),
        }
    )
    plain_timed = plain.frames[1:] or plain.frames
    if plain_timed:
        m["observability.trace_overhead_frac"] = (
            med(lambda f: f.wall_s) / statistics.median(f.wall_s for f in plain_timed) - 1.0
        )
    m.update(layers.direct_metrics(inputs, inputs.camera(0)))
    return m


def setup_probe(inputs) -> None:
    """``--setup-probe``: one set-up in this fresh process, as JSON."""
    run = Run(inputs, None)
    before = ob.ipc_names()
    renderer, orbit, split = setup_once(inputs, run)
    close_and_audit(renderer, before, run)
    print(json.dumps({"setup_s": split["setup_s"], "failures": run.failures + orbit.errors}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    inputs = Inputs(WORKLOADS[args.workload], args.seed)
    if args.setup_probe:
        setup_probe(inputs)
        return 0
    run = Run(inputs, args.seed)
    if args.trace:
        metrics = traced_run(inputs, args.seconds, run)
    else:
        metrics = untraced_run(inputs, args.seed, args.seconds, run)
    attempted = max(run.attempted, 1)
    failed = min(len(run.failures), attempted)
    if not args.trace:
        metrics["frame_ok_rate"] = 1.0 - failed / attempted
    run.record.update(frame_error_rate=failed / attempted, failures=run.failures)

    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:>16.6g} {UNITS[name]}")
    print(f"correct: {not run.failures}  attempted: {attempted}  failed: {failed}")
    print("record: " + json.dumps(run.record, default=str))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        ob.stop_children()
    sys.exit(code)
