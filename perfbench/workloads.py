"""The benchmark's workloads and their seeded inputs.

Every workload renders a camera orbit around the procedural ``skull``
volume through the public :class:`repro.MapReduceVolumeRenderer` API.
The seed picks the orbit's starting azimuth and, for ``tf-edit``, the
transfer-function sequence; the renderer only ever sees the generated
volume, cameras and transfer functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import MapReduceVolumeRenderer, RenderConfig, make_dataset, orbit_camera
from repro.render import TransferFunction1D, default_tf

GPUS = 8  # simulated GPUs; the default 2 bricks per GPU gives 16 bricks
DT = 0.75
ELEVATION_DEG = 20.0
DISTANCE_FACTOR = 2.2  # the framing of repro.pipeline.orbit_path
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    volume_edge: int
    image: int
    executor: str  # "pool" or "inprocess"
    tf_edit: bool  # set a new seeded transfer function before every frame
    # Azimuth step per frame.  orbit-large's step does not divide 180°
    # evenly (the skull's per-view cost repeats every half turn), so its
    # few frames per run still see many distinct views.
    step_deg: float
    check_every: int  # the correctness gate re-renders one frame in this many
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit-dense", 128, 256, "pool", False, 7.5, 24,
            "map-bound warm orbit on a 2-worker pool; caches hit after frame 1",
        ),
        Workload(
            "orbit-large", 96, 640, "pool", False, 27.5, 12,
            "6x the pixels and ~5x the fragments of orbit-dense: shuffle, "
            "sort/reduce and stitch",
        ),
        Workload(
            "tf-edit", 128, 256, "pool", True, 7.5, 24,
            "orbit-dense with a new transfer function every frame: the arena "
            "and macro grids are republished each frame",
        ),
        Workload(
            "orbit-serial", 128, 256, "inprocess", False, 11.25, 16,
            "orbit-dense on the default in-process executor: bypasses the pool",
        ),
    )
}


class Inputs:
    """The seeded inputs of one run: volume, cameras, transfer functions."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        rng = np.random.default_rng(seed)
        self.azimuth0 = float(rng.uniform(0.0, 360.0))
        self.check_offset = int(rng.integers(workload.check_every))
        self._tf_rng = np.random.default_rng([seed, 1])
        self._tf_scales: list[float] = []
        self.volume = make_dataset("skull", (workload.volume_edge,) * 3)
        self.config = RenderConfig(dt=DT)
        self._base_tf = default_tf()

    def camera(self, i: int):
        w = self.workload
        return orbit_camera(
            self.volume.shape,
            azimuth_deg=self.azimuth0 + w.step_deg * i,
            elevation_deg=ELEVATION_DEG,
            distance_factor=DISTANCE_FACTOR,
            width=w.image,
            height=w.image,
        )

    def tf(self, i: int) -> TransferFunction1D:
        """Frame ``i``'s transfer function: ``default_tf()``, or for
        ``tf-edit`` its alpha column scaled by a seeded factor."""
        if not self.workload.tf_edit:
            return self._base_tf
        while len(self._tf_scales) <= i:
            self._tf_scales.append(float(self._tf_rng.uniform(0.5, 1.0)))
        table = self._base_tf.table.copy()
        table[:, 3] *= np.float32(self._tf_scales[i])
        return TransferFunction1D(table)

    def is_checked(self, i: int) -> bool:
        """Whether the correctness gate re-renders frame ``i``."""
        return i % self.workload.check_every == self.check_offset

    def renderer(self, executor=None) -> MapReduceVolumeRenderer:
        """A renderer for frame 0's transfer function.  ``executor``
        overrides the workload's executor (the correctness oracle renders
        with the default in-process one)."""
        kw = {}
        if (executor or self.workload.executor) == "pool":
            kw = dict(executor="pool", workers=POOL_WORKERS, reduce_mode="worker")
        return MapReduceVolumeRenderer(
            self.volume, cluster=GPUS, tf=self.tf(0), render_config=self.config, **kw
        )
