"""The trace layer: deterministic event streams, diffing, rollups, CLI.

The headline property mirrors the differential harness: because every
instrumentation seam fires at runtime level — before backend-specific
wall-time accounting diverges — the canonical trace (events minus the
segregated ``rt`` sub-object) of an identically-seeded run is
**byte-identical** across the sim, vector and proc backends, and across
serial vs threaded callers when runs flow through a :class:`TraceHub`.
Everything host-specific (wall seconds, real-SIGKILL flags, backend
names) lives under ``rt`` and is excluded from identity.
"""

import hashlib
import json
import os
import threading

import numpy as np
import pytest

import repro
from repro.backends.proc import proc_available
from repro.errors import TraceError
from repro.ft.inject import KillEvent, KillKind, KillPlan, install_injector
from repro.study import make_workload
from repro.trace import (
    TraceWriter,
    Tracer,
    current_trace_hub,
    event_lines,
    first_divergence,
    load_trace,
    render_divergence,
    render_summary,
    summarize,
    to_chrome_trace,
    trace_label,
    tracing,
    validate_event,
    write_trace,
)
from repro.trace.__main__ import main as trace_main
from repro.trace.tracer import _TraceInterceptor

pytestmark = pytest.mark.usefixtures("proc_hygiene")

PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)

#: One killed-and-recovered stencil cell: enough traffic for a meaty op
#: stream, a mid-run NODE-free kill, and a localized recovery episode.
PARAMS = dict(nprocs=4, n_local=8, iters=12)
KILL = dict(rank=2, after_ops=20)
INTERVAL = 3


def _traced_run(backend):
    workload = make_workload("stencil", **PARAMS)
    ft = repro.FaultTolerancePolicy(
        interval=INTERVAL, store="memory", recovery="localized"
    )
    with tracing() as hub:
        run = workload.run(ft=ft, backend=backend, kill_plan=KillPlan.single(**KILL))
    return run, hub.events()


# Traces per backend, computed once per session (plain dict, not a fixture:
# parametrized tests share them freely — same idiom as test_differential).
_traces = {}


def traced_events(backend):
    if backend not in _traces:
        run, events = _traced_run(backend)
        _traces[backend] = events
    return _traces[backend]


# ---------------------------------------------------------------------------
# Determinism: backends and executors
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend", ["vector", pytest.param("proc", marks=PROC_SKIP)]
)
def test_trace_is_byte_identical_across_backends(backend):
    reference = event_lines(traced_events("sim"), canonical=True)
    other = event_lines(traced_events(backend), canonical=True)
    assert other == reference
    # The stream is non-trivial: the kill, the recovery and the op traffic
    # all made it in.
    types = {event["type"] for event in traced_events(backend)}
    assert {"kill_fired", "recovery_completed", "op_completed"} <= types


@pytest.mark.skipif(not proc_available(), reason="proc backend unavailable")
def test_rt_segregates_host_facts_from_identity():
    def kills(events):
        return [e for e in events if e["type"] == "kill_fired"]

    (sim_kill,) = kills(traced_events("sim"))
    (proc_kill,) = kills(traced_events("proc"))
    # The host fact differs: sim raises an exception, proc really SIGKILLs.
    assert sim_kill["rt"] == {"real": False}
    assert proc_kill["rt"] == {"real": True}
    # The canonical identity does not.
    assert event_lines([sim_kill], canonical=True) == event_lines(
        [proc_kill], canonical=True
    )


def test_hub_merge_order_is_deterministic_across_executors():
    def run_cell(label):
        with trace_label(label):
            make_workload("stencil", nprocs=2, n_local=4, iters=4).run()

    # Serial, submitted in the order the labels sort.
    with tracing() as hub:
        for label in ("cell-a", "cell-b"):
            run_cell(label)
    serial = event_lines(hub.events(), canonical=True)

    # Threaded, submitted in *reverse* order and racing each other: the hub
    # orders the merged stream by (label, index), never by arrival.
    with tracing() as hub:
        threads = [
            threading.Thread(target=run_cell, args=(label,))
            for label in ("cell-b", "cell-a")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    threaded = event_lines(hub.events(), canonical=True)

    assert threaded == serial
    jobs = {event["job"] for event in hub.events()}
    assert jobs == {"cell-a#0", "cell-b#0"}


def test_disjoint_seeds_produce_disjoint_traces():
    def kv_events(seed):
        workload = make_workload(
            "kv", nprocs=4, slots=8, updates_per_step=4, steps=6, seed=seed
        )
        with tracing() as hub:
            workload.run()
        return hub.events()

    left, right = kv_events(11), kv_events(12)
    divergence = first_divergence(left, right)
    assert divergence is not None
    # Same schedule shape, different payload routing: the streams must split
    # inside the runtime op/sync traffic, not at the session envelope.
    assert left[divergence.index]["type"] in {
        "op_issued", "op_completed", "sync_completed"
    }


# ---------------------------------------------------------------------------
# First-divergence diffing
# ---------------------------------------------------------------------------
def test_diff_localizes_a_perturbed_event():
    events = traced_events("sim")
    perturbed = [dict(event) for event in events]
    index = next(
        i for i, event in enumerate(perturbed) if event["type"] == "op_completed"
    )
    perturbed[index]["count"] = perturbed[index]["count"] + 1

    divergence = first_divergence(events, perturbed)
    assert divergence is not None
    assert divergence.index == index
    assert "count" in divergence.reason
    rendered = render_divergence(divergence)
    assert f"event {index}" in rendered

    assert first_divergence(events, events) is None
    assert first_divergence(events, [dict(e) for e in events]) is None


def test_diff_ignores_rt_but_not_length():
    events = traced_events("sim")
    relabeled = [dict(event) for event in events]
    relabeled[0]["rt"] = {"backend": "somewhere-else"}
    assert first_divergence(events, relabeled) is None

    truncated = events[:-1]
    divergence = first_divergence(events, truncated)
    assert divergence is not None
    assert divergence.index == len(truncated)


# ---------------------------------------------------------------------------
# Schema and persistence
# ---------------------------------------------------------------------------
def test_trace_round_trips_through_jsonl(tmp_path):
    events = traced_events("sim")
    path = str(tmp_path / "trace.jsonl")
    count = write_trace(events, path)
    assert count == len(events)
    assert load_trace(path) == events
    # Canonical file shape: compact separators, sorted keys, one per line.
    first_line = open(path).readline().rstrip("\n")
    assert first_line == json.dumps(events[0], sort_keys=True, separators=(",", ":"))


def test_validate_event_rejects_malformed_events():
    good = {"type": "step_completed", "t": 0.5, "seq": 0, "job": "main", "step": 1}
    validate_event(good)
    for bad in (
        {**good, "type": "made_up_event"},
        {key: value for key, value in good.items() if key != "seq"},
        {**good, "t": "half past"},
        {**good, "rt": "not a dict"},
        "not even a dict",
    ):
        with pytest.raises(TraceError):
            validate_event(bad)


def test_load_trace_reports_the_offending_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(
        json.dumps({"type": "step_completed", "t": 0.0, "seq": 0, "job": "m", "step": 0})
        + "\nnot json\n"
    )
    with pytest.raises(TraceError, match=r"broken\.jsonl:2"):
        load_trace(str(path))


def test_aborted_run_publishes_partial_trace_and_no_temp_files(tmp_path):
    path = tmp_path / "aborted.jsonl"

    with pytest.raises(RuntimeError, match="mid-run abort"):
        with tracing(str(path)):
            with repro.launch(2) as job:
                job.allocate("w", 4)
                job.run(lambda ctx, step: None, steps=2)
                raise RuntimeError("mid-run abort")

    # The partial trace is evidence, not garbage: published atomically.
    events = load_trace(str(path))
    assert any(event["type"] == "step_completed" for event in events)
    leftovers = [name for name in os.listdir(tmp_path) if name.endswith(".part")]
    assert leftovers == []


def test_trace_writer_discards_cleanly_when_nothing_was_written(tmp_path):
    path = tmp_path / "never.jsonl"
    with pytest.raises(RuntimeError):
        with TraceWriter(str(path)):
            raise RuntimeError("before any event")
    assert not path.exists()
    assert os.listdir(tmp_path) == []


def test_tracing_does_not_nest():
    with tracing():
        with pytest.raises(TraceError, match="does not nest"):
            with tracing():
                pass  # pragma: no cover


# ---------------------------------------------------------------------------
# The trace's rollups reconcile with the one metrics store
# ---------------------------------------------------------------------------
def test_trace_rollups_reconcile_with_job_metrics():
    tracer = Tracer()
    ft = repro.FaultTolerancePolicy(interval=2, store="memory", recovery="localized")
    with repro.launch(4, ft=ft, trace=tracer) as job:
        job.allocate("w", 8)
        install_injector(job, KillPlan.single(**KILL))
        report = job.run(
            lambda ctx, step: ctx.put((ctx.rank + 1) % 4, "w", 0, [1.0 + step]),
            steps=6,
        )
    stats = summarize(tracer.events)
    metrics = report.metrics
    assert stats["checkpoints"]["count"] == metrics.total("ft.checkpoints") >= 1
    # The per-level placement rollup reconciles with the store's own counter.
    by_level = stats["checkpoints"]["bytes_by_level"]
    assert set(by_level) == {"local", "buddy"}  # memory store
    assert sum(by_level.values()) == metrics.total("ft.checkpoint_bytes")
    assert stats["kills"]["fired"] == metrics.total("inject.kills") == 1
    assert stats["recovery"]["episodes"] == metrics.total("ft.recoveries") >= 1


#: The events the fault-tolerance seams send down the interceptor chain, and
#: the sha256 of :func:`_seam_events`' (``rt`` stripped, canonical JSON) with
#: their number, recorded when each seam still had its own listener list.
SEAM_EVENTS = ("kill_fired", "kill_skipped", "checkpoint_stored", "qos_decision")
SEAM_PIN = ("744e198503c3403c2146016f576f6080948d974c5b3eb6d93b681de0438df0ab", 154)


def _seam_events():
    """8 ranks under best-effort delivery and the multilevel store: a node kill
    (ranks 2 and 3), then a kill of rank 3 while it is still dead."""

    def kernel(ctx, step):
        w = ctx.win("w")
        ctx.put((ctx.rank + 1) % ctx.nranks, "w", step % 8, np.full(2, step + ctx.rank + 0.5))
        w.get_nb((ctx.rank + 3) % ctx.nranks, 0, 4)
        yield ctx.gsync()
        ctx.local("w")[8 + step % 8] += 1.0

    tracer = Tracer(detail="lifecycle")
    ft = repro.FaultTolerancePolicy(interval=2, store="multilevel", recovery="best_effort")
    with repro.launch(8, ft=ft, trace=tracer) as job:
        job.allocate("w", 16)
        install_injector(job, KillPlan([
            KillEvent(after_ops=37, rank=2, kind=KillKind.NODE_KILL),
            KillEvent(after_ops=38, rank=3),
        ]))
        report = job.run(kernel, steps=12)
    events = [
        {k: v for k, v in e.items() if k != "rt"}
        for e in tracer.events if e["type"] in SEAM_EVENTS
    ]
    return events, report


def test_kills_placements_and_qos_decisions_reach_the_trace_as_pinned():
    events, report = _seam_events()
    digest = hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()
    assert (digest, len(events)) == SEAM_PIN
    by_type = {t: [e for e in events if e["type"] == t] for t in SEAM_EVENTS}
    assert [e["victims"] for e in by_type["kill_fired"]] == [[2, 3]]
    assert [e["rank"] for e in by_type["kill_skipped"]] == [3]
    levels = {e["level"] for e in by_type["checkpoint_stored"]}
    assert levels == {"local", "buddy", "parity", "disk"}  # the base's and both upper
    # Every delivery decision the job counted is on the trace, n for n.
    decided: dict[str, int] = {}
    for e in by_type["qos_decision"]:
        decided[e["decision"]] = decided.get(e["decision"], 0) + e["n"]
    counted = {
        name.removeprefix("qos."): int(value)
        for name, value in report.metrics.totals.items()
        if name.startswith("qos.")
    }
    assert decided == counted and len(decided) >= 3


def test_demand_checkpoints_are_committed_with_the_demand_flag():
    tracer = Tracer()
    ft = repro.FaultTolerancePolicy(interval=None, demand_threshold_bytes=128)
    with repro.launch(4, ft=ft, trace=tracer) as job:
        job.allocate("w", 8)
        report = job.run(
            lambda ctx, step: ctx.put((ctx.rank + 1) % 4, "w", 0, [float(step)] * 8),
            steps=12,
        )
    demand = [e["demand"] for e in tracer.events if e["type"] == "checkpoint_committed"]
    # The phase-opening checkpoint is periodic; every later one is on demand.
    assert demand == [False] + [True] * 5
    assert demand.count(True) == report.demand_checkpoints == 5


def test_untraced_job_after_a_traced_one_carries_no_trace_seam():
    # "Tracing you don't ask for is free", in its exact form: after a fully
    # traced job has run and closed, a job launched with no tracer and no hub
    # has every seam the tracer hooks (install_trace) at its unhooked
    # default, so it executes what it would if repro.trace did not exist.
    traced_events("sim")
    assert current_trace_hub() is None
    workload = make_workload("stencil", **PARAMS)
    ft = repro.FaultTolerancePolicy(
        interval=INTERVAL, store="memory", recovery="localized"
    )
    with repro.launch(
        workload.nprocs, topology=repro.Topology(procs_per_node=2), ft=ft,
        sync_each_step=workload.sync_each_step,
    ) as job:
        workload.setup(job)
        job.run(workload.kernel(), steps=workload.steps)
        assert job.trace is None
        assert not any(
            isinstance(i, _TraceInterceptor) for i in job.runtime.interceptors
        )
        assert job._observers == []
        chain = job.runtime.interceptors  # the seams' events: no hook to call
        assert (chain.on_kill, chain.on_checkpoint_stored, chain.on_qos_decision) == (
            None, None, None,
        )
        assert current_trace_hub() is None


# ---------------------------------------------------------------------------
# Summary, export and the CLI
# ---------------------------------------------------------------------------
def test_summarize_accounts_for_the_kill_and_recovery():
    stats = summarize(traced_events("sim"))
    assert stats["kills"]["fired"] == 1
    assert stats["recovery"]["episodes"] >= 1
    assert stats["recovery"]["completed"] == stats["recovery"]["episodes"]
    assert stats["ops"]["total"] > 0
    assert stats["checkpoints"]["count"] >= 1
    table = render_summary(stats)
    assert "kills fired / skipped" in table


def test_chrome_export_pairs_op_spans():
    trace = to_chrome_trace(traced_events("sim"))
    rows = trace["traceEvents"]
    op_spans = [r for r in rows if r.get("cat") == "rma" and r["ph"] == "X"]
    assert op_spans and all(r["dur"] >= 0.0 for r in op_spans)
    kills = [r for r in rows if r.get("name") == "kill_fired"]
    assert len(kills) == 1 and kills[0]["ph"] == "i"
    # One process row per job, named via metadata events.
    names = [r for r in rows if r["ph"] == "M" and r["name"] == "process_name"]
    assert len(names) == len({e["job"] for e in traced_events("sim")})


def test_cli_summarize_diff_export_round_trip(tmp_path, capsys):
    events = traced_events("sim")
    left = str(tmp_path / "left.jsonl")
    right = str(tmp_path / "right.jsonl")
    write_trace(events, left)
    perturbed = [dict(event) for event in events]
    perturbed[5]["t"] = perturbed[5]["t"] + 1.0
    write_trace(perturbed, right)

    assert trace_main(["summarize", left]) == 0
    assert "| events" in capsys.readouterr().out

    assert trace_main(["diff", left, left]) == 0
    assert "identical" in capsys.readouterr().out
    assert trace_main(["diff", left, right]) == 1
    assert "event 5" in capsys.readouterr().out

    exported = str(tmp_path / "chrome.json")
    assert trace_main(["export", left, "--output", exported]) == 0
    assert json.load(open(exported))["traceEvents"]

    assert trace_main(["summarize", str(tmp_path / "missing.jsonl")]) == 2
    assert "TRACE:" in capsys.readouterr().err
