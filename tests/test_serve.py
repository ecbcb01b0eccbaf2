"""Tests for the serving workload and the chaos serving cell: shards, traffic,
SLO windows, the comparison."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.api.session import launch
from repro.backends.proc import proc_available
from repro.chaos import run_comparison, run_soak
from repro.chaos.__main__ import main as chaos_main, quick_spec
from repro.chaos.metrics import compute_metrics
from repro.chaos.report import (
    check_against_baseline,
    check_chaos_invariants,
    render_markdown,
    report_json,
)
from repro.chaos.soak import build_plan
from repro.errors import ChaosError, ServeError, StudyError
from repro.ft.inject import KillEvent, KillKind, KillPlan
from repro.registry import available, render_available
from repro.serve import (
    STATUS_OK,
    STATUS_UNSERVED,
    STATUSES,
    KvService,
    RequestGenerator,
    ShardMap,
    WindowTracker,
    load_requests,
    trace_lines,
    write_requests,
)
from repro.serve.service import _STATUS_NAMES
from repro.serve.slo import (
    SEGMENT_CHECKPOINT,
    SEGMENT_RECOVERY,
    SEGMENT_STEADY,
    SEGMENTS,
    build_slo_report,
    validate_request_row,
)
from repro.stats import latency_percentiles, percentile
from repro.study.workloads import make_workload
from repro.trace.events import load_trace
from repro.trace.tracer import tracing

pytestmark = pytest.mark.usefixtures("proc_hygiene")

PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)

TRAFFIC_SHAPE = dict(steps=10, nprocs=4, key_space=64, rate_per_step=4.0)


def _trace(seed: int, **shape) -> str:
    """Canonical serialization of one seeded trace (picklable helper)."""
    generator = RequestGenerator(seed=seed, **(shape or TRAFFIC_SHAPE))
    return "\n".join(trace_lines(generator.generate()))


#: The serving cell CI gates against ``tests/baselines/chaos_serve.json``.
SERVE_ARGS = ["--quick", "--workload", "kv_service", "--scenario", "single",
              "--rounds", "1", "--interval", "8", "--compression", "1000"]


def serving_spec(**overrides):
    """The quick serving cell: modest traffic for one round under one node kill."""
    return replace(
        quick_spec(), workload="kv_service", scenario="single", rounds=1, interval=8,
        compression=1000.0, **overrides,
    )


@pytest.fixture(scope="module")
def comparison():
    """The quick sim comparison every report-level test reads from."""
    return run_comparison(serving_spec())


def cell(results, recovery: str):
    return next(r for r in results if r.spec.recovery == recovery)


# ----------------------------------------------------------------------
# Shared percentile helper (repro.stats)
# ----------------------------------------------------------------------
def test_percentile_nearest_rank():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert percentile(xs, 50.0) == 2.0
    assert percentile(xs, 75.0) == 3.0
    assert percentile(xs, 100.0) == 4.0
    assert percentile(xs, 1.0) == 1.0


def test_percentile_rejects_empty_and_bad_quantile():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_latency_percentiles_empty_is_none_never_nan():
    assert latency_percentiles([]) is None


def test_latency_percentiles_single_sample():
    assert latency_percentiles([3.0]) == {"p50": 3.0, "p95": 3.0, "p99": 3.0}


def test_latency_percentiles_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        latency_percentiles([1.0, math.nan])


# ----------------------------------------------------------------------
# Shard placement
# ----------------------------------------------------------------------
def test_shard_map_locates_in_range():
    shards = ShardMap(nshards=8, slots=16)
    for key in range(500):
        owner, offset = shards.locate(key)
        assert 0 <= owner < 8 and 0 <= offset < 16
        assert shards.owner(key) == owner


def test_shard_map_scatters_hot_keys():
    # Zipf traffic concentrates on low key ids; the multiplicative hash must
    # spread them over several shards instead of melting the low-slot owner.
    shards = ShardMap(nshards=8, slots=16)
    owners = {shards.owner(key) for key in range(8)}
    assert len(owners) > 2


def test_shard_map_validation():
    with pytest.raises(ServeError):
        ShardMap(nshards=0, slots=16)
    with pytest.raises(ServeError):
        ShardMap(nshards=8, slots=16).locate(-1)


# ----------------------------------------------------------------------
# Traffic: seeded determinism across executors (satellite 3)
# ----------------------------------------------------------------------
def test_generator_identical_seeds_identical_traces():
    assert _trace(7) == _trace(7)


def test_generator_trace_identical_across_executors():
    serial = _trace(2026)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(_trace, [2026, 2026]))
    with ProcessPoolExecutor(max_workers=2) as pool:
        forked = list(pool.map(_trace, [2026, 2026]))
    assert threaded == [serial, serial]
    assert forked == [serial, serial]


def test_generator_disjoint_seeds_disjoint_traces():
    a = RequestGenerator(seed=1, **TRAFFIC_SHAPE).generate()
    b = RequestGenerator(seed=2, **TRAFFIC_SHAPE).generate()
    assert {r.frac for r in a}.isdisjoint({r.frac for r in b})


@pytest.mark.parametrize(
    ("shape", "digest"),
    [
        (
            dict(seed=5, **TRAFFIC_SHAPE),
            "f78f3337009c85d0e80949dcbe2afbe30600e3ba1d4d6ef3ac097233c83b6728",
        ),
        (
            dict(seed=11, steps=37, nprocs=5, key_space=1000, rate_per_step=13.5,
                 zipf_s=0.0, read_fraction=0.25),
            "70720c15c96b1ea5e923a8f3700f90d2d32f0bf2b16523092f8f2912fbe6607a",
        ),
    ],
)
def test_generator_trace_pinned(shape, digest):
    # Recorded when a request was still built per arrival in a Python loop:
    # the columns keep every frac, key, op and delta bit for bit.
    assert hashlib.sha256(_trace(**shape).encode()).hexdigest() == digest


def test_generator_admission_table_covers_trace():
    generator = RequestGenerator(seed=5, **TRAFFIC_SHAPE)
    requests = generator.generate()
    admitted = [
        rid
        for step in range(TRAFFIC_SHAPE["steps"])
        for frontend in range(TRAFFIC_SHAPE["nprocs"])
        for rid in requests.admitted(step, frontend)
    ]
    assert sorted(admitted) == list(range(len(requests)))  # each rid exactly once
    table = generator.by_step_frontend(requests)
    assert sum(len(v) for v in table.values()) == len(requests)
    for (step, frontend), batch in table.items():
        assert 0 <= step < TRAFFIC_SHAPE["steps"]
        assert 0 <= frontend < TRAFFIC_SHAPE["nprocs"]
        assert all(r.step == step and r.frontend == frontend for r in batch)
        assert [r.rid for r in batch] == sorted(r.rid for r in batch)
    assert [r.rid for r in requests] == list(range(len(requests)))
    assert requests[-1] == list(requests)[-1] and not requests.admitted(-1, 0)


def test_generator_validation():
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=0, nprocs=4, key_space=8)
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=4, nprocs=4, key_space=8, rate_per_step=0.0)
    with pytest.raises(ServeError):
        RequestGenerator(seed=1, steps=4, nprocs=4, key_space=8, read_fraction=1.5)


# ----------------------------------------------------------------------
# Registry (satellite 1)
# ----------------------------------------------------------------------
def _served(service: KvService, kernel=None) -> None:
    """One failure-free run of ``service`` (job and kernel gone on return)."""
    with launch(service.nprocs) as job:
        service.setup(job)
        job.run(kernel or service.kernel(), steps=service.steps)


def test_kernel_built_before_setup_records_the_run():
    service = KvService(nprocs=4, slots=8, key_space=32, steps=4)
    kernel = service.kernel()
    _served(service, kernel)
    status = service.records[1]
    assert len(status) and {_STATUS_NAMES[code] for code in status.tolist()} == {STATUS_OK}


def test_kv_service_memory_budget():
    # The trace is columns and the kernel's lists hold cached small ints and
    # shared tuples only; the records are two per-request columns.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        service = KvService(nprocs=8, steps=400, rate_per_step=40.0)
        built = tracemalloc.get_traced_memory()[0] - before
        _served(service)
        gc.collect()
        with_records = tracemalloc.get_traced_memory()[0]
        service.records = None
        gc.collect()
        records = with_records - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(service.requests) > 15_000
    assert built <= 2.0 * 2**20, f"KvService retains {built / 2**20:.2f} MiB"
    assert records <= 1.0 * 2**20, f"a run's records retain {records / 2**20:.2f} MiB"


def test_served_requests_memory_budget():
    # A finished serving cell keeps columns and references the service's
    # trace; the request dicts are built only when a writer reads ``rows``.
    spec = serving_spec(workload_params={"kv_service": {"steps": 100, "rate_per_step": 40.0}})
    tracemalloc.start()
    try:
        result = run_soak(spec)
        requests = result.served.slo["overall"]["requests"]
        gc.collect()
        with_result = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        retained = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert requests > 3_000
    assert retained <= 100 * requests, f"{retained / requests:.0f} B per request"


def test_kv_service_registered_as_workload():
    assert "kv_service" in available("workload")
    assert "kv_service" in render_available()
    service = make_workload("kv_service", nprocs=4, slots=8, key_space=32, steps=4)
    assert isinstance(service, KvService)


def test_make_workload_unknown_name_lists_registered():
    with pytest.raises(StudyError, match="kv_service"):
        make_workload("kv_disservice")


def test_a_serving_cell_checks_its_traffic_shape_when_it_builds_the_service():
    for params, message in (
        ({"rate_per_step": -1.0}, "rate_per_step"),
        ({"steps": 0}, "slots >= 1 and steps >= 1"),
        ({"slots": 0}, "slots >= 1 and steps >= 1"),
        ({"zipf_s": -0.5}, "zipf_s"),
        ({"read_fraction": 1.5}, "read_fraction"),
    ):
        with pytest.raises(ServeError, match=message):
            run_soak(serving_spec(workload_params={"kv_service": params}))


def test_cli_list_mentions_kv_service(capsys):
    assert chaos_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "kv_service" in out and "single" in out


# ----------------------------------------------------------------------
# Kill-plan construction
# ----------------------------------------------------------------------
def test_single_plan_is_identical_across_recovery_backend_and_store():
    plans = [
        build_plan(serving_spec(backend=b, recovery=r, store=s), ops_per_round=102,
                   steps_per_round=24)
        for b in ("sim", "vector")
        for r in ("global", "localized", "degraded")
        for s in ("memory", "multilevel")
    ]
    reference = [(e.after_ops, e.rank, e.kind) for e in plans[0]]
    assert reference == [(45, 5, KillKind.NODE_KILL)]  # int(0.45 * 102)
    assert all([(e.after_ops, e.rank, e.kind) for e in plan] == reference for plan in plans)


def test_the_soak_seed_seeds_the_traffic():
    spec = serving_spec()
    a, b = run_soak(spec), run_soak(replace(spec, seed=7))
    assert not np.array_equal(a.served.requests.frac, b.served.requests.frac)
    again = run_soak(replace(spec, seed=7))
    assert np.array_equal(b.served.requests.frac, again.served.requests.frac)


# ----------------------------------------------------------------------
# Window segmentation
# ----------------------------------------------------------------------
def test_window_tracker_segment_precedence():
    tracker = WindowTracker()
    tracker.checkpoint_windows.append((10.0, 12.0, 3, False))
    tracker.recovery_windows.append((11.0, 15.0))
    cases = {
        5.0: SEGMENT_STEADY,
        10.0: SEGMENT_CHECKPOINT,  # window edges are inclusive
        10.5: SEGMENT_CHECKPOINT,
        11.0: SEGMENT_RECOVERY,  # recovery wins overlap
        11.5: SEGMENT_RECOVERY,
        12.0: SEGMENT_RECOVERY,
        14.0: SEGMENT_RECOVERY,
        15.0: SEGMENT_RECOVERY,
        16.0: SEGMENT_STEADY,
    }
    codes = tracker.segment_codes(np.array(list(cases)))
    assert [SEGMENTS[code] for code in codes] == list(cases.values())


def test_segment_seconds_count_a_checkpoint_inside_recovery_once():
    # Recovery wins the overlap in time as it does for requests: the second
    # of checkpoint (10, 12) inside recovery (11, 15) is recovery time only.
    tracker = WindowTracker()
    tracker.checkpoint_windows.append((10.0, 12.0, 3, False))
    tracker.recovery_windows.append((11.0, 15.0))
    assert tracker.segment_seconds(20.0) == {
        SEGMENT_STEADY: 15.0, SEGMENT_CHECKPOINT: 1.0, SEGMENT_RECOVERY: 4.0,
    }
    # A global rollback re-checkpoints at the step it resumes at: a span wholly
    # inside a recovery window adds no checkpoint time.
    tracker.checkpoint_windows.append((13.0, 14.0, 4, False))
    tracker.recovery_windows.append((16.0, 17.0))
    assert tracker.segment_seconds(20.0) == {
        SEGMENT_STEADY: 14.0, SEGMENT_CHECKPOINT: 1.0, SEGMENT_RECOVERY: 5.0,
    }


def test_window_tracker_finish_closes_open_outage():
    events = [{"type": "failure_detected", "t": 42.0, "rank": 3, "step": 7}]
    tracker = WindowTracker.from_trace(events, 50.0)
    assert tracker.recovery_windows == [(42.0, 50.0)]


@pytest.mark.parametrize("recovery", ["global", "localized", "degraded"])
def test_windows_are_a_view_of_the_written_trace(tmp_path, recovery):
    spec = serving_spec(recovery=recovery)
    path = tmp_path / "trace.jsonl"
    with tracing(str(path)):
        result = run_soak(spec)
    mine = [e for e in load_trace(str(path)) if e["job"] == f"{spec.cell_key}#0"]
    tracker = WindowTracker.from_trace(mine, result.elapsed_s)
    windows = result.served.windows
    assert tracker == windows
    assert windows.checkpoint_windows and windows.recovery_windows
    completed = [e for e in mine if e["type"] == "request_completed"]
    assert [e["rid"] for e in completed] == list(range(result.served.slo["overall"]["requests"]))


def test_build_slo_report_empty_segments_are_none():
    tracker = WindowTracker()
    empty = np.zeros(0, dtype=np.uint8)
    report = build_slo_report(np.zeros(0), empty, empty, tracker, total_s=0.0)
    for segment in (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY, "overall"):
        assert report[segment]["latency_ms"] is None
        assert report[segment]["error_rate"] is None


# ----------------------------------------------------------------------
# Chaos metrics reuse the shared estimator (satellite 2)
# ----------------------------------------------------------------------
def test_chaos_metrics_mttr_percentiles():
    events = [
        {"type": "failure_detected", "t": 10.0},
        {"type": "service_restored", "t": 12.0},
        {"type": "failure_detected", "t": 20.0},
        {"type": "service_restored", "t": 26.0},
        {"type": "soak_completed", "t": 30.0},
    ]
    metrics = compute_metrics(events)
    assert metrics.mttr_p50_s == 2.0
    assert metrics.mttr_p99_s == 6.0


def test_chaos_metrics_mttr_percentiles_none_without_outages():
    metrics = compute_metrics([{"type": "soak_completed", "t": 30.0}])
    assert metrics.mttr_p50_s is None and metrics.mttr_p99_s is None


# ----------------------------------------------------------------------
# The serving runs: determinism, correctness, invariants
# ----------------------------------------------------------------------
def test_a_serving_cell_rerun_is_byte_identical():
    spec = serving_spec(recovery="localized")
    first, second = run_soak(spec), run_soak(spec)
    assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
        second.as_dict(), sort_keys=True
    )
    assert first.served.rows == second.served.rows


def test_a_kill_of_a_rank_and_its_buddy_aborts_the_cell(monkeypatch):
    # Rank 0 and its buddy (rank 2 with two ranks per node) die together:
    # no copy of rank 0's state survives, and the cell reports it, not raises.
    def rank_and_buddy(spec, *, ops_per_round, steps_per_round):
        return KillPlan([KillEvent(ops_per_round // 2, 0), KillEvent(ops_per_round // 2, 2)])

    monkeypatch.setattr("repro.chaos.soak.build_plan", rank_and_buddy)
    result = run_soak(serving_spec())
    assert result.aborted == "CatastrophicFailure" and result.digest is None
    assert result.recoveries == 0 and result.steps_executed < 24
    fired = [e["victims"] for e in result.events if e["type"] == "failure_initiated"]
    assert fired == [[0], [2]]
    assert f"| {result.spec.cell_key} [CatastrophicFailure] | steady |" in render_markdown(
        [result]
    )
    assert check_chaos_invariants([result]) == [
        f"{result.spec.cell_key}: serving cell aborted with CatastrophicFailure"
    ]


def test_a_serving_cell_runs_one_round(capsys):
    # The service admits requests in its first round only: a second round's
    # kills would strike after the last request.
    with pytest.raises(ChaosError, match="kv_service admits requests in its first round only"):
        replace(quick_spec(), workload="kv_service", scenario="single")
    with pytest.raises(SystemExit) as exit_:
        chaos_main(["--quick", "--workload", "kv_service"])
    assert exit_.value.code == 2 and "pass rounds=1" in capsys.readouterr().err


def test_comparison_fires_and_recovers(comparison):
    for result in comparison:
        assert result.aborted is None
        assert result.metrics.kills_fired == 1
        assert result.recoveries >= 1
        assert result.served.windows.recovery_windows


def test_comparison_invariants_hold(comparison):
    assert check_chaos_invariants(comparison) == []


def test_full_recovery_tables_match_failure_free(comparison):
    # Rollback and replay must restore the exact failure-free table — the
    # digest oracle the study workloads gate on, under serving traffic.
    params = serving_spec().workload_params["kv_service"]
    service = make_workload("kv_service", nprocs=8, seed=2026, **params)
    expected = service.digest(service.expected())
    assert cell(comparison, "global").digest == expected
    assert cell(comparison, "localized").digest == expected
    assert cell(comparison, "degraded").digest != expected


#: sha256 of each quick cell's rows, recorded while the records were a
#: ``rid -> (completion, status)`` dict: the record columns reproduce them.
#: The localized and degraded pins moved when the kill plan became the chaos
#: ``single`` scenario's (victim rank 1 -> 5); global's rows did not move.
ROWS_SHA256 = {
    "global": "7c1c63d7240deb2f3d509ac190fcda7f0af85092e810ebfd644fd35770bb04f7",
    "localized": "612ff81f998ea6c1cda0eaafd2bf2767e076aac901c542f9fde040c00a0f139d",
    "degraded": "c9226b33fa40dbd6781bec38075ce2d2d5a87bbe94ac63827a80ffcd00df126f",
}


def test_statuses_by_protocol(comparison):
    for recovery in ("global", "localized"):
        statuses = {row["status"] for row in cell(comparison, recovery).served.rows}
        assert statuses == {STATUS_OK}
    degraded = {row["status"] for row in cell(comparison, "degraded").served.rows}
    assert degraded == STATUSES  # ok, stale, dropped and never admitted
    for recovery, digest in ROWS_SHA256.items():
        rows = cell(comparison, recovery).served.rows
        assert [row["rid"] for row in rows] == list(range(len(rows)))
        for row in rows:
            assert (row["completion_t"] is None) == (row["status"] == STATUS_UNSERVED)
        encoded = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest, recovery


def test_localized_stalls_fewer_requests_than_global(comparison):
    touched_global = cell(comparison, "global").served.slo[SEGMENT_RECOVERY]["requests"]
    touched_localized = cell(comparison, "localized").served.slo[SEGMENT_RECOVERY]["requests"]
    assert 0 < touched_localized < touched_global


def test_checkpoint_windows_observed(comparison):
    for result in comparison:
        assert result.served.windows.checkpoint_windows
        for t0, t1, step, demand in result.served.windows.checkpoint_windows:
            assert 0.0 <= t0 <= t1
            assert isinstance(demand, bool)


# ----------------------------------------------------------------------
# Request log and report gates (satellite 5 machinery)
# ----------------------------------------------------------------------
def test_request_log_roundtrip(tmp_path, comparison):
    path = tmp_path / "requests.jsonl"
    count = write_requests(comparison, path)
    rows = load_requests(path)
    assert len(rows) == count == sum(len(r.served.rows) for r in comparison)
    assert {row["cell"] for row in rows} == {r.spec.cell_key for r in comparison}


def test_request_log_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"rid": 1}\n')
    with pytest.raises(ServeError, match="missing"):
        load_requests(path)
    for line in ("5", "[1]"):
        path.write_text(line + "\n")
        with pytest.raises(ServeError, match=r"bad.jsonl:1: .*must be a JSON object"):
            load_requests(path)
    row = {
        "rid": 0, "frontend": 0, "owner": 0, "step": 0, "op": "read", "key": 3,
        "arrival_t": 0.1, "completion_t": 0.2, "latency_s": 0.1,
        "status": "ok", "segment": "steady",
    }
    validate_request_row(row)
    with pytest.raises(ServeError, match="unknown op"):
        validate_request_row(dict(row, op="delete"))
    with pytest.raises(ServeError, match="unknown status"):
        validate_request_row(dict(row, status="lost"))
    with pytest.raises(ServeError, match="unknown segment"):
        validate_request_row(dict(row, segment="warmup"))
    with pytest.raises(ServeError, match="'rid' must be an integer"):
        validate_request_row(dict(row, rid=True))
    with pytest.raises(ServeError, match="'arrival_t' must be numeric"):
        validate_request_row(dict(row, arrival_t=False))
    path.write_text(json.dumps(dict(row, cell="sim/memory/global", rid=True)) + "\n")
    with pytest.raises(ServeError, match="bad.jsonl:1: .*'rid' must be an integer"):
        load_requests(path)


def test_markdown_covers_every_cell_and_segment(comparison):
    markdown = render_markdown(comparison)
    for result in comparison:
        assert result.spec.cell_key in markdown
    for segment in (SEGMENT_STEADY, SEGMENT_CHECKPOINT, SEGMENT_RECOVERY, "overall"):
        assert f"| {segment} |" in markdown


def test_baseline_gate_passes_against_itself(comparison):
    report = json.loads(report_json(comparison))
    assert check_against_baseline(report, report) == []


def test_baseline_gate_catches_p99_regression(comparison):
    report = json.loads(report_json(comparison))
    baseline = json.loads(report_json(comparison))
    key = "kv_service/single/sim/memory/global"
    report["cells"][key]["slo"]["overall"]["latency_ms"]["p99"] *= 3.0
    failures = check_against_baseline(report, baseline)
    assert any("p99" in failure for failure in failures)


def test_baseline_gate_catches_census_change(comparison):
    report = json.loads(report_json(comparison))
    baseline = json.loads(report_json(comparison))
    report["cells"]["kv_service/single/sim/memory/degraded"]["status_counts"]["ok"] -= 1
    failures = check_against_baseline(report, baseline)
    assert any("status_counts" in failure for failure in failures)


def _doctored(comparison, recovery: str, edit) -> list:
    """``comparison`` with ``edit(slo)`` applied to a copy of one cell's SLO."""
    doctored = []
    for result in comparison:
        if result.spec.recovery == recovery:
            slo = json.loads(json.dumps(result.served.slo))
            edit(slo)
            result = replace(result, served=replace(result.served, slo=slo))
        doctored.append(result)
    return doctored


def test_invariant_catches_slow_localized(comparison):
    # Force the localized recovery-window p99 above global's and make sure
    # the invariant trips.
    def slow(slo):
        slo[SEGMENT_RECOVERY]["latency_ms"]["p99"] = 1e9

    doctored = _doctored(comparison, "localized", slow)
    assert any("not strictly below" in v for v in check_chaos_invariants(doctored))


def test_invariant_catches_an_slo_that_differs_across_backends(comparison):
    # A proc copy of the localized cell whose overall p99 is 2x sim's.
    sim = cell(comparison, "localized")
    slo = json.loads(json.dumps(sim.served.slo))
    slo["overall"]["latency_ms"]["p99"] *= 2
    proc = replace(
        sim, spec=replace(sim.spec, backend="proc"), served=replace(sim.served, slo=slo)
    )
    assert check_chaos_invariants([*comparison, proc]) == [
        "kv_service/single/memory/localized: SLO report differs between sim and proc"
    ]


@pytest.mark.parametrize(
    ("recovery", "edit", "message"),
    [
        ("global", lambda slo: slo["overall"].update(errors=3),
         "3 request errors under global recovery"),
        ("degraded", lambda slo: slo["overall"].update(error_rate=0.0),
         "error rate is 0.0 but the excised shard's requests must surface"),
        ("degraded", lambda slo: slo[SEGMENT_RECOVERY]["latency_ms"].update(p99=1e9),
         "latency is not flat"),
    ],
    ids=["global-errors", "degraded-no-errors", "degraded-not-flat"],
)
def test_each_serving_invariant_fails_on_a_cell_edited_to_break_it(
    comparison, recovery, edit, message
):
    (violation,) = check_chaos_invariants(_doctored(comparison, recovery, edit))
    assert message in violation


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_quick_writes_artifacts(tmp_path, capsys):
    requests = tmp_path / "requests.jsonl"
    output = tmp_path / "serve.json"
    markdown = tmp_path / "serve.md"
    status = chaos_main([
        *SERVE_ARGS,
        "--requests", str(requests),
        "--output", str(output),
        "--markdown", str(markdown),
    ])
    assert status == 0
    assert "invariants hold" in capsys.readouterr().out
    assert load_requests(requests)
    document = json.loads(output.read_text())
    assert document["meta"]["engine"] == "repro.chaos"
    # Each cell records the traffic it served: the quick knobs over the defaults.
    assert {json.dumps(c["traffic"], sort_keys=True) for c in document["cells"].values()} == {
        json.dumps({"steps": 24, "rate_per_step": 5.0, "slots": 32, "key_space": 256,
                    "zipf_s": 1.1, "read_fraction": 0.5, "flops_per_request": 50.0},
                   sort_keys=True)
    }
    # Byte-identity oracle: recorded when the serving cell became a chaos cell.
    assert hashlib.sha256(output.read_bytes()).hexdigest() == (
        "68cf23c0b4e88b756fe89dde8c717b11a7a123c22f6a62fcc5e1882bb7c66bfb"
    )
    assert "| overall |" in markdown.read_text()


# ----------------------------------------------------------------------
# Cross-backend: the proc backend serves the identical rows
# ----------------------------------------------------------------------
@PROC_SKIP
@pytest.mark.parametrize("recovery", ["global", "localized", "degraded"])
def test_proc_backend_rows_identical_to_sim(comparison, recovery):
    sim = cell(comparison, recovery)
    proc = run_soak(serving_spec(backend="proc", recovery=recovery))
    assert proc.served.rows == sim.served.rows
    assert json.dumps(proc.served.slo, sort_keys=True) == json.dumps(
        sim.served.slo, sort_keys=True
    )
    assert proc.digest == sim.digest
