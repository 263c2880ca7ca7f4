"""Observability stack: tracer, timeline export, metrics, regression gate.

Four contracts pinned here:

* **Inert when off** — with no tracer installed, every instrumentation
  point returns a shared no-op and pool renders reproduce the committed
  golden fixtures bitwise (the tracer can never leak into job data).
* **Faithful when on** — a traced pool render still matches the goldens
  bitwise, and its exported Chrome/Perfetto timeline has one track per
  worker plus the parent, covers every pipeline stage, nests laminarly
  per track, and tags respawned generations under fault injection.
* **One telemetry schema** — ``JobStats.telemetry`` carries the unified
  metrics registry (ring/recovery/arena/cache) and ``as_dict`` only
  exposes it on explicit opt-in.
* **Regression gate** — :class:`ExperimentResults` passes on the
  committed BENCH documents and fails on a synthetic 20% kernel
  slowdown (the CI ``repro report --check`` contract).
"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_golden_images import (  # noqa: E402
    assert_matches_golden,
    build_job,
    render_scene,
    run_job,
)

from repro.bench.results import (  # noqa: E402
    ExperimentResults,
    collect_environment,
    load_kernel_means,
)
from repro.cli import main  # noqa: E402
from repro.core.stats import JobStats  # noqa: E402
from repro.observability import (  # noqa: E402
    MetricsRegistry,
    SCHEMA,
    build_job_telemetry,
    chrome_trace,
    current_tracer,
    disable_tracing,
    enable_tracing,
    stage_breakdown,
    stage_summary_line,
)
from repro.observability.tracer import _NOOP, instant, span  # noqa: E402
from repro.parallel import SharedMemoryPoolExecutor  # noqa: E402
from repro.parallel.ring import ShmRing  # noqa: E402
from repro.render.accel import AccelCache  # noqa: E402

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _no_tracer_leak():
    """Tracing state is process-global; never let a test leak it."""
    disable_tracing()
    yield
    disable_tracing()


# -- tracer core -------------------------------------------------------------
def test_span_is_shared_noop_when_disabled():
    assert current_tracer() is None
    s = span("map:chunk=0", cat="map")
    assert s is _NOOP
    with s as inner:
        inner.set(bytes=1)  # no-op, no state
    instant("supervisor:failure")  # no-op, no crash


def test_enabled_tracer_records_spans_and_instants():
    tr = enable_tracing()
    with span("map:chunk=3", cat="map", chunk=3) as s:
        s.set(pairs=17)
    instant("supervisor:failure", kind="wedged")
    assert len(tr.events) == 2
    name, cat, ts, dur, args = tr.events[0]
    assert name == "map:chunk=3" and cat == "map"
    assert isinstance(ts, int) and dur >= 0
    assert args == {"chunk": 3, "pairs": 17}
    # instants carry dur None
    assert tr.events[1][3] is None


def test_reenable_starts_an_empty_timeline():
    tr1 = enable_tracing()
    with span("stitch"):
        pass
    tr2 = enable_tracing()
    assert tr2 is not tr1 and tr2.events == []
    assert current_tracer() is tr2


def test_drain_and_remote_merge():
    tr = enable_tracing()
    with span("map:chunk=0", cat="map"):
        pass
    shipped = tr.drain()
    assert tr.events == [] and len(shipped) == 1
    tr.add_remote(1, 2, shipped)
    tr.add_remote(0, 0, [])  # empty buffers are dropped
    assert tr.remote() == [(1, 2, shipped)]
    with span("stitch", cat="stitch"):
        pass
    flat = list(tr.all_events())
    tracks = [(track, gen) for track, gen, _ in flat]
    assert (None, 0) in tracks and (1, 2) in tracks
    assert len(flat) == 2


# -- timeline export ---------------------------------------------------------
def _trace_doc(tr):
    doc = chrome_trace(tr)
    json.loads(json.dumps(doc))  # must be valid JSON end-to-end
    return doc


def test_chrome_trace_tracks_and_metadata():
    tr = enable_tracing()
    with span("publish", cat="publish"):
        pass
    tr.add_remote(0, 0, [("map:chunk=0", "map", 10_000, 5_000, {"chunk": 0})])
    tr.add_remote(1, 1, [("reduce:partition=3", "reduce", 20_000, 7_000, None)])
    doc = _trace_doc(tr)
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {(e["tid"], e["args"]["name"]) for e in meta}
    assert (0, "parent") in names
    assert (1, "worker 0") in names and (2, "worker 1") in names
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    by_tid = {e["tid"]: e for e in spans}
    assert set(by_tid) == {0, 1, 2}
    # worker events are stamped with worker/gen; µs conversion from ns
    w1 = by_tid[2]
    assert w1["args"]["worker"] == 1 and w1["args"]["gen"] == 1
    assert w1["ts"] == 20.0 and w1["dur"] == 7.0


def test_stage_breakdown_buckets_and_summary_line():
    tr = enable_tracing()
    tr.add("map:chunk=0", 0, 6_000_000, cat="map")
    tr.add("map:chunk=1", 0, 2_000_000, cat="map")
    tr.add("shuffle-out", 0, 1_000_000, cat="shuffle")
    tr.add("shuffle-in", 0, 1_000_000, cat="shuffle")
    tr.add("ring-stall", 0, 3_000_000, cat="stall")
    tr.instant("supervisor:failure")  # instants never enter the breakdown
    totals = stage_breakdown(tr)
    assert totals == pytest.approx(
        {"map": 0.008, "shuffle": 0.002, "stall": 0.003}
    )
    line = stage_summary_line(tr)
    assert "map=80.0%" in line and "shuffle=20.0%" in line
    assert "stall=0.003s" in line


def test_stage_summary_line_empty_timeline_is_none():
    tr = enable_tracing()
    assert stage_summary_line(tr) is None


# -- metrics registry --------------------------------------------------------
def test_registry_kinds_and_conflicts():
    reg = MetricsRegistry()
    reg.counter("n").inc()
    reg.counter("n").inc(2)
    reg.gauge("g", unit="bytes").set(7)
    reg.histogram("h").observe(2.0)
    reg.histogram("h").observe(4.0)
    with pytest.raises(ValueError):
        reg.counter("n").inc(-1)
    with pytest.raises(TypeError):
        reg.gauge("n")  # kind conflict
    out = reg.as_dict()
    assert out["schema"] == SCHEMA
    assert out["metrics"]["n"] == {"kind": "counter", "value": 3}
    assert out["metrics"]["g"] == {"kind": "gauge", "value": 7, "unit": "bytes"}
    h = out["metrics"]["h"]["value"]
    assert h == {"count": 2, "sum": 6.0, "min": 2.0, "max": 4.0}
    assert list(out["metrics"]) == sorted(out["metrics"])


def test_absorb_flattens_nested_and_indexed():
    reg = MetricsRegistry()
    reg.absorb(
        "ring",
        {
            "shuffle_mode": "mesh",
            "stall_seconds": 0.25,
            "per_worker": [{"stalls": 1}, {"stalls": 0}],
            "widths": [2, 1],
        },
    )
    reg.absorb("nothing", None)
    m = reg.as_dict()["metrics"]
    assert m["ring.shuffle_mode"]["value"] == "mesh"
    assert m["ring.stall_seconds"]["value"] == 0.25
    assert m["ring.per_worker.0.stalls"]["value"] == 1
    assert m["ring.per_worker.1.stalls"]["value"] == 0
    assert m["ring.widths"]["value"] == [2, 1]


def test_build_job_telemetry_document():
    doc = build_job_telemetry(
        ring={"stall_seconds": 0.0},
        recovery={"respawns": 1},
        arena={"publishes": 2, "published_bytes": 4096, "rebroadcasts": 1},
        cache={"hits": 3, "misses": 1},
        workers=2,
        shuffle_mode="mesh",
    )
    m = doc["metrics"]
    assert doc["schema"] == SCHEMA
    assert m["arena.publishes"]["value"] == 2
    assert m["arena.published_bytes"] == {
        "kind": "counter",
        "value": 4096,
        "unit": "bytes",
    }
    assert m["arena.rebroadcasts"]["value"] == 1
    assert m["accel_cache.hits"]["value"] == 3
    assert m["workers"]["value"] == 2
    assert m["shuffle_mode"]["value"] == "mesh"
    assert m["recovery.respawns"]["value"] == 1


def test_accel_cache_stats():
    cache = AccelCache(max_entries=4)
    cache.put("a", np.zeros(8, np.float32))
    cache.get("a")
    cache.get("missing")
    s = cache.stats()
    assert s["hits"] == 1 and s["misses"] == 1
    assert s["hit_rate"] == 0.5
    assert s["entries"] == 1 and s["nbytes"] == 32
    cache.clear()
    assert cache.stats()["hit_rate"] is None


def test_jobstats_as_dict_telemetry_opt_in():
    stats = JobStats()
    stats.ring = {"stall_seconds": 0.0}
    stats.recovery = {"respawns": 1}
    stats.telemetry = {"schema": SCHEMA, "metrics": {}}
    base = stats.as_dict()
    assert "ring" not in base and "recovery" not in base
    assert "telemetry" not in base
    full = stats.as_dict(include_telemetry=True)
    assert full["ring"] == stats.ring
    assert full["recovery"] == stats.recovery
    assert full["telemetry"]["schema"] == SCHEMA
    # equality/asdict semantics of the dataclass are unaffected
    assert JobStats() == JobStats()


# -- ring stall span ---------------------------------------------------------
def test_ring_stall_records_interval_span():
    tr = enable_tracing()
    with ShmRing.create(1 << 12) as ring:
        ring.write_bytes(b"x" * 3000)

        def drain_later():
            time.sleep(0.05)
            ring.read_bytes(3000, timeout=5.0)

        t = threading.Thread(target=drain_later)
        t.start()
        ring.write_bytes(b"y" * 3000, timeout=5.0)  # must wait for space
        t.join()
    stalls = [ev for ev in tr.events if ev[0] == "ring-stall"]
    assert len(stalls) == 1
    name, cat, ts, dur, args = stalls[0]
    assert cat == "stall" and dur >= 40_000_000  # waited >= ~50 ms
    assert args["waited_for_bytes"] == 3000 and args["ring"]


# -- golden parity: tracer on/off --------------------------------------------
def test_traced_pool_render_matches_golden_smoke():
    """Tracing on: the pool render still reproduces the fixtures bitwise,
    and the merged timeline covers every stage with one track per worker
    plus the parent."""
    enable_tracing()
    with SharedMemoryPoolExecutor(workers=2, shuffle_mode="mesh") as pool:
        image, result = render_scene("skull_default_az40", pool)
    tr = disable_tracing()
    assert_matches_golden("skull_default_az40", image, result)

    doc = _trace_doc(tr)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["tid"] for e in spans} >= {0, 1, 2}  # parent + both workers
    families = {e["name"].split(":", 1)[0] for e in spans}
    assert families >= {"publish", "map", "shuffle-out", "shuffle-in", "reduce"}
    # reduce spans carry the *job-level* partition id and the frame seq
    reduces = [e for e in spans if e["name"].startswith("reduce:partition=")]
    labels = {int(e["name"].split("=", 1)[1]) for e in reduces}
    assert labels == set(range(len(reduces)))
    assert all(e["args"]["frame"] == 1 for e in reduces)
    # spans nest laminarly per track (no partial overlap on a timeline)
    for tid in {e["tid"] for e in spans}:
        ivals = sorted(
            ((e["ts"], e["ts"] + e["dur"]) for e in spans if e["tid"] == tid)
        )
        open_stack = []
        for lo, hi in ivals:
            while open_stack and open_stack[-1] <= lo:
                open_stack.pop()
            assert all(hi <= top for top in open_stack), (
                f"partial overlap on tid {tid}"
            )
            open_stack.append(hi)
    # telemetry rode along on the same run
    tel = result.stats.telemetry
    assert tel["schema"] == SCHEMA
    assert tel["metrics"]["arena.publishes"]["value"] == 1
    assert tel["metrics"]["shuffle_mode"]["value"] == "mesh"


def test_untraced_pool_render_matches_golden_smoke():
    assert current_tracer() is None
    with SharedMemoryPoolExecutor(workers=2) as pool:
        image, result = render_scene("skull_default_az40", pool)
    assert_matches_golden("skull_default_az40", image, result)
    assert result.stats.telemetry["schema"] == SCHEMA  # metrics stay on


@pytest.mark.slow
@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("shuffle_mode", ["mesh", "tcp"])
def test_tracer_parity_matrix(traced, shuffle_mode):
    """Tracer on/off × both shuffle planes: bitwise."""
    if traced:
        enable_tracing()
    with SharedMemoryPoolExecutor(workers=2, shuffle_mode=shuffle_mode) as pool:
        image, result = render_scene("skull_default_az40", pool)
    assert_matches_golden("skull_default_az40", image, result)


def test_fault_plan_trace_tags_respawned_generation():
    """Under an injected crash the recovered render stays bitwise-golden
    and the timeline shows the respawn span plus generation-1 worker
    spans interleaved on the same tracks."""
    enable_tracing()
    with SharedMemoryPoolExecutor(
        workers=2,
        shuffle_mode="mesh",
        fault_plan="crash@map:worker=1,frame=1",
        retry_backoff=0.0,
    ) as pool:
        image, result = render_scene("skull_default_az40", pool)
    tr = disable_tracing()
    assert_matches_golden("skull_default_az40", image, result)
    assert result.stats.recovery["respawns"] == 1

    doc = _trace_doc(tr)
    events = doc["traceEvents"]
    respawns = [e for e in events if e["name"] == "respawn" and e["ph"] == "X"]
    assert len(respawns) == 1 and respawns[0]["tid"] == 0
    assert respawns[0]["args"]["gen"] >= 1
    gens = {
        e["args"]["gen"]
        for e in events
        if e.get("ph") == "X" and e["tid"] > 0
    }
    assert {0, 1} <= gens
    marks = {e["name"] for e in events if e.get("ph") == "i"}
    assert {"supervisor:failure", "supervisor:respawn"} <= marks


# -- ExperimentResults / regression gate -------------------------------------
def _kernel_doc(means, environment=None):
    doc = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ]
    }
    if environment is not None:
        doc["environment"] = environment
    return doc


@pytest.fixture
def bench_files(tmp_path):
    def write(name, means, environment=None):
        path = tmp_path / name
        path.write_text(json.dumps(_kernel_doc(means, environment)))
        return path

    return write


def test_results_pass_when_current_is_not_slower(bench_files):
    cur = bench_files("cur.json", {"sort": 0.010, "raycast": 0.020})
    base = bench_files("base.json", {"sort": 0.011, "raycast": 0.019})
    res = ExperimentResults(cur, baseline=base)
    assert res.check()  # raycast is 5.3% slower: inside the 15% gate
    table = {r["benchmark"]: r for r in res.kernel_table}
    assert table["sort"]["vs_baseline"] == pytest.approx(10 / 11)
    assert "previous_ms" not in table["sort"]


def test_results_fail_on_synthetic_20pct_regression(bench_files):
    cur = bench_files("cur.json", {"sort": 0.012, "raycast": 0.020})
    base = bench_files("base.json", {"sort": 0.010, "raycast": 0.020})
    res = ExperimentResults(cur, baseline=base, threshold=0.15)
    assert not res.check()
    (reg,) = res.regressions()
    assert reg["benchmark"] == "sort"
    assert reg["slowdown"] == pytest.approx(1.2)
    # a looser gate admits the same document
    assert res.check(threshold=0.25)
    report = res.render_report()
    assert "REGRESSIONS" in report and "sort" in report


def test_results_three_way_and_env_mismatch(bench_files):
    env_a = {"cpu_count": 8, "python": "3.11.7", "platform": "Linux-x86_64"}
    env_b = dict(env_a, cpu_count=1)
    cur = bench_files("cur.json", {"sort": 0.010}, environment=env_a)
    base = bench_files("base.json", {"sort": 0.010}, environment=env_b)
    prev = bench_files("prev.json", {"sort": 0.009}, environment=env_a)
    res = ExperimentResults(cur, baseline=base, previous=prev)
    row = res.kernel_table[0]
    assert row["vs_previous"] == pytest.approx(10 / 9)
    assert any("baseline.cpu_count" in n for n in res.environment_mismatches)
    assert "environment mismatch" in res.render_report()


def test_results_usable_cores_mismatch_is_flagged(bench_files):
    """cpu_count alone misses cgroup/affinity caps: two machines with 8
    physical cores are not comparable when one is pinned to 2 of them,
    so usable_cores is a comparability key in its own right."""
    env_a = {"cpu_count": 8, "usable_cores": 8, "python": "3.11.7",
             "platform": "Linux-x86_64"}
    env_b = dict(env_a, usable_cores=2)  # same box, throttled affinity
    cur = bench_files("cur.json", {"sort": 0.010}, environment=env_a)
    base = bench_files("base.json", {"sort": 0.010}, environment=env_b)
    res = ExperimentResults(cur, baseline=base)
    assert any("baseline.usable_cores" in n for n in res.environment_mismatches)
    assert not any("cpu_count" in n for n in res.environment_mismatches)
    # Documents predating the key (no usable_cores at all) are not
    # penalized with a false mismatch.
    old = bench_files(
        "old.json", {"sort": 0.010},
        environment={k: v for k, v in env_a.items() if k != "usable_cores"},
    )
    res = ExperimentResults(cur, baseline=old)
    assert not any("usable_cores" in n for n in res.environment_mismatches)


def test_results_committed_bench_files_pass_the_gate():
    """The CI configuration: committed current vs committed seed."""
    res = ExperimentResults(
        REPO / "BENCH_kernels.json",
        baseline=REPO / "BENCH_kernels_seed.json",
        parallel=REPO / "BENCH_parallel.json",
    )
    assert res.check()
    assert res.parallel_summary  # sweep rows summarized
    assert res.current_means  # non-empty documents
    report = res.render_report()
    assert "no kernel regression" in report


def test_collect_environment_and_load_means(tmp_path):
    env = collect_environment()
    assert env["cpu_count"] >= 1
    # The affinity-aware core count rides along: what the process can
    # actually run on, never more than the box has.
    assert 1 <= env["usable_cores"] <= env["cpu_count"]
    assert env["python"].count(".") == 2
    assert "timestamp" in env and "platform" in env
    path = tmp_path / "k.json"
    path.write_text(json.dumps(_kernel_doc({"a": 0.5})))
    assert load_kernel_means(path) == {"a": 0.5}


def test_results_invalid_threshold():
    with pytest.raises(ValueError):
        ExperimentResults("x.json", threshold=0.0)


# -- CLI surfaces ------------------------------------------------------------
def test_cli_render_trace_and_stats_json(tmp_path, capsys):
    trace = tmp_path / "t.json"
    stats = tmp_path / "s.json"
    rc = main(
        [
            "render", "--dataset", "skull", "--size", "16", "--gpus", "2",
            "--image", "32", "--executor", "pool", "--workers", "2",
            "--trace-out", str(trace), "--stats-json", str(stats),
            "--out", str(tmp_path / "r.ppm"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured stages:" in out and "map=" in out
    doc = json.loads(trace.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert {e["tid"] for e in spans} >= {0, 1, 2}
    assert {e["name"].split(":", 1)[0] for e in spans} >= {
        "publish", "map", "reduce", "stitch",
    }
    payload = json.loads(stats.read_text())
    assert payload["telemetry"]["schema"] == SCHEMA
    assert "ring" in payload
    assert current_tracer() is None  # the command uninstalls its tracer


def test_cli_report_check_passes_and_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert main(["report", "--check"]) == 0
    assert "kernel means" in capsys.readouterr().out

    cur = tmp_path / "cur.json"
    base = tmp_path / "base.json"
    cur.write_text(json.dumps(_kernel_doc({"sort": 0.012})))
    base.write_text(json.dumps(_kernel_doc({"sort": 0.010})))
    rc = main(
        [
            "report", "--check",
            "--kernels", str(cur),
            "--baseline", str(base),
            "--parallel", str(tmp_path / "missing.json"),
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "REGRESSIONS" in captured.out
    assert "FAIL" in captured.err
