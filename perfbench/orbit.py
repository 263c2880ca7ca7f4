"""Closed-loop orbit rendering, correctness gate, leak audit and memory.

One client keeps one frame in flight: the next camera is submitted only
after the previous image is back.  Everything here calls the program's
public API and times those calls from outside.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.render.accel import shared_cache
from repro.render.image import psnr
from repro.render.reference import render_reference

FRAME_TIMEOUT_S = 30.0
PSNR_FLOOR_DB = 35.0


class FrameTimeout(Exception):
    pass


@dataclass
class FrameRecord:
    index: int
    seq: Optional[int]  # the pool's frame seq (the spans' ``frame`` arg)
    t0_ns: int  # submit
    t1_ns: int  # submit returned
    t2_ns: int  # image in hand
    stats: object  # JobStats
    image: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def wall_s(self) -> float:
        return (self.t2_ns - self.t0_ns) / 1e9


@dataclass
class Orbit:
    frames: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # frames that raised or timed out

    @property
    def attempted(self) -> int:
        return len(self.frames) + len(self.errors)


def _alarm(signum, frame):
    raise FrameTimeout(f"frame exceeded {FRAME_TIMEOUT_S:.0f} s")


def render_frame(renderer, inputs, i: int) -> FrameRecord:
    """Render orbit frame ``i`` (submit then collect), timed from outside."""
    if inputs.workload.tf_edit:
        renderer.tf = inputs.tf(i)
    camera = inputs.camera(i)
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, FRAME_TIMEOUT_S)
    try:
        t0 = time.monotonic_ns()
        handle = renderer.submit_frame(camera)
        t1 = time.monotonic_ns()
        result = renderer.collect_frame(handle)
        t2 = time.monotonic_ns()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return FrameRecord(
        index=i,
        seq=getattr(handle.pending, "seq", None),
        t0_ns=t0,
        t1_ns=t1,
        t2_ns=t2,
        stats=result.stats,
        image=result.image if inputs.is_checked(i) else None,
    )


def run_orbit(renderer, inputs, first: int, orbit: Orbit, *, seconds=None, count=None):
    """Render frames ``first, first+1, ...`` until ``seconds`` have passed
    or ``count`` frames are done.  A frame that raises or times out is
    recorded as an error and ends the orbit: the renderer's state is
    then unknown."""
    start = time.monotonic()
    i = first
    while True:
        if count is not None and i - first >= count:
            break
        if seconds is not None and time.monotonic() - start >= seconds:
            break
        try:
            orbit.frames.append(render_frame(renderer, inputs, i))
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            orbit.errors.append(f"frame {i}: {type(exc).__name__}: {exc}")
            break
        i += 1
    return orbit


def check_frames(inputs, frames) -> list:
    """The correctness gate; returns one message per failed frame.

    Pool frames must equal the serial in-process render of the same
    camera and transfer function bitwise, with equal ``JobStats``;
    in-process frames must score above the PSNR floor against the
    single-pass reference renderer.  The acceleration cache is cleared
    first so the oracle rebuilds its own empty-space structures.
    """
    failures = []
    for rec in frames:
        if rec.image is None:
            continue
        shared_cache().clear()
        camera, tf = inputs.camera(rec.index), inputs.tf(rec.index)
        try:
            if inputs.workload.executor == "pool":
                oracle = inputs.renderer(executor="inprocess")
                oracle.tf = tf
                ref = oracle.render(camera)
                if ref.image.tobytes() != rec.image.tobytes():
                    failures.append(f"frame {rec.index}: image differs from serial")
                elif ref.stats.as_dict() != rec.stats.as_dict():
                    failures.append(f"frame {rec.index}: JobStats differ from serial")
            else:
                ref = render_reference(inputs.volume, camera, tf, inputs.config)
                db = psnr(rec.image, ref.image)
                if not db > PSNR_FLOOR_DB:
                    failures.append(f"frame {rec.index}: PSNR {db:.1f} dB")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"frame {rec.index}: check raised {type(exc).__name__}: {exc}")
    return failures


# -- leak audit -------------------------------------------------------------
def ipc_names() -> set:
    """Shared-memory segments plus the pool's socket files."""
    names = set()
    try:
        names |= {"/dev/shm/" + n for n in os.listdir("/dev/shm")}
    except OSError:
        pass
    tmp = tempfile.gettempdir()
    names |= {
        os.path.join(tmp, n) for n in os.listdir(tmp) if n.startswith("repro_sock_")
    }
    return names


def stop_children() -> None:
    """Stop and reap every process this one started.

    ``close()`` joins the pool's workers, but the pool also starts
    multiprocessing's resource tracker, which outlives them and would
    otherwise end only after this process exits, unreaped."""
    for p in multiprocessing.active_children():
        p.terminate()
        p.join(timeout=5.0)
        if p.is_alive():
            p.kill()
            p.join()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()  # closes its pipe, then waitpid()s it


# -- memory -----------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """This process's VmHWM plus that of every live worker child."""
    kb = _vm_hwm_kb("self")
    kb += sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    return kb / 1024.0


# -- statistics -------------------------------------------------------------
def tail_percentile(values) -> tuple:
    """``(percentile, value)``: the highest whole percentile of ``values``
    that has at least ten samples beyond it (the minimum when there are
    ten or fewer)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 0, xs[0]
    pct = math.floor(100 * (n - 10) / n)
    return pct, float(np.percentile(xs, pct))
