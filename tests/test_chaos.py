"""Tests for the chaos/soak engine: scenarios, the chaos log, metrics, comparisons."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backends.proc import proc_available
from repro.chaos import (
    SoakSpec,
    chaos_events,
    compute_metrics,
    load_events,
    make_scenario,
    run_comparison,
    run_soak,
    scaled_cost_model,
    write_events,
)
from repro.chaos.__main__ import main as chaos_main, quick_spec
from repro.chaos.metrics import EVENT_TYPES
from repro.chaos.report import (
    check_against_baseline,
    check_chaos_invariants,
    render_markdown,
    report_json,
)
from repro.chaos.soak import build_plan
from repro.errors import ChaosError, StudyError
from repro.ft.inject import KillPlan
from repro.registry import all_kinds, available, render_available
from repro.simulator.costs import cray_xe6_like
from repro.study.campaign import _trial_batches
from repro.study.model import IntervalModel
from repro.study.workloads import make_workload
from repro.trace.events import event_line, load_trace
from repro.trace.tracer import tracing

pytestmark = pytest.mark.usefixtures("proc_hygiene")

PROC_SKIP = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)

SHAPE = dict(nprocs=8, ops_per_round=400, steps_per_round=20, rounds=4)


def small_spec(**overrides) -> SoakSpec:
    """A seconds-long sim soak that still fires and resolves real outages."""
    defaults = dict(
        workload="stencil",
        scenario="poisson",
        rounds=3,
        interval=6,
        rate_per_round=1.0,
        seed=2026,
        workload_params={"stencil": {"n_local": 16, "iters": 24}},
    )
    defaults.update(overrides)
    return SoakSpec(**defaults)


def scrub(events: list[dict]) -> list[dict]:
    """Drop the two backend-identifying fields from an event stream.

    ``soak_started`` carries the backend name and ``failure_initiated`` the
    ``real`` flag (SIGKILL vs simulated fail-stop); everything else must be
    bit-identical between ``sim`` and ``proc``.
    """
    return [
        {k: v for k, v in e.items() if k not in ("backend", "real")} for e in events
    ]


# ----------------------------------------------------------------------
# Registry introspection
# ----------------------------------------------------------------------
def test_chaos_kinds_registered():
    assert available("scenario") == ("cascade", "correlated", "flaky", "poisson", "single")
    # The recovery axis has one name set, the registry's; the log one flavor.
    for kind in ("monitor", "countermeasure", "delivery"):
        with pytest.raises(KeyError, match="unknown component kind"):
            available(kind)


def test_render_available_lists_every_kind():
    text = render_available()
    assert all_kinds() == ("backend", "recovery", "scenario", "store", "workload")
    for line_start in ("scenarios:", "backends:", "stores:", "recoveries:", "workloads:"):
        assert any(line.startswith(line_start) for line in text.splitlines())
    for absent in ("monitors:", "countermeasures:", "deliveries:"):
        assert absent not in text


def test_make_scenario_rejects_unknown():
    with pytest.raises(ChaosError, match="poisson"):
        make_scenario("meteor-strike")


# ----------------------------------------------------------------------
# Seeded determinism: KillPlan.seeded and the scenario generators
# ----------------------------------------------------------------------
def test_killplan_seeded_deterministic():
    a = KillPlan.seeded(42, nprocs=8, max_ops=10_000, kills=4)
    b = KillPlan.seeded(42, nprocs=8, max_ops=10_000, kills=4)
    assert [(e.after_ops, e.rank, e.kind) for e in a] == [
        (e.after_ops, e.rank, e.kind) for e in b
    ]


def test_killplan_disjoint_seeds_disjoint_schedules():
    parent = np.random.SeedSequence(2026)
    left, right = parent.spawn(2)
    a = KillPlan.seeded(left, nprocs=8, max_ops=100_000, kills=5)
    b = KillPlan.seeded(right, nprocs=8, max_ops=100_000, kills=5)
    assert {e.after_ops for e in a}.isdisjoint({e.after_ops for e in b})


@pytest.mark.parametrize("name", ["poisson", "correlated", "cascade", "flaky", "single"])
def test_scenario_same_seed_same_plan(name):
    scenario = make_scenario(name, rate_per_round=1.5)
    plans = [
        scenario.plan(np.random.SeedSequence(7), **SHAPE) for _ in range(2)
    ]
    events = [[(e.after_ops, e.rank, e.kind) for e in p] for p in plans]
    assert events[0] == events[1]
    assert events[0], f"scenario {name} generated an empty plan at rate 1.5"


@pytest.mark.parametrize("name", ["poisson", "correlated", "cascade", "flaky", "single"])
def test_scenario_disjoint_seeds_differ(name):
    scenario = make_scenario(name, rate_per_round=1.5)
    left, right = np.random.SeedSequence(7).spawn(2)
    a = scenario.plan(left, **SHAPE)
    b = scenario.plan(right, **SHAPE)
    assert [(e.after_ops, e.rank) for e in a] != [(e.after_ops, e.rank) for e in b]


def test_correlated_scenario_kills_nodes():
    plan = make_scenario("correlated", rate_per_round=1.5).plan(
        np.random.SeedSequence(7), **SHAPE
    )
    assert all(e.kind.value == "node_kill" for e in plan)


def test_flaky_scenario_targets_one_victim():
    plan = make_scenario("flaky").plan(np.random.SeedSequence(7), **SHAPE)
    assert len({e.rank for e in plan}) == 1
    offsets = [e.after_ops for e in plan]
    assert offsets == sorted(offsets)


def test_single_scenario_places_one_node_kill_at_its_fraction():
    (event,) = make_scenario("single").plan(np.random.SeedSequence(7), **SHAPE)
    assert event.after_ops == int(0.45 * 1600) and event.kind.value == "node_kill"


def test_scenario_rejects_degenerate_shape():
    with pytest.raises(ChaosError, match="nprocs"):
        make_scenario("poisson").plan(
            np.random.SeedSequence(0),
            nprocs=1, ops_per_round=10, steps_per_round=2, rounds=1,
        )


# ----------------------------------------------------------------------
# Time compression
# ----------------------------------------------------------------------
def test_scaled_cost_model_preserves_relative_costs():
    base = cray_xe6_like()
    scaled = scaled_cost_model(base, compression=10_000.0)
    assert scaled.name == f"{base.name}-x10000"
    assert scaled.network_latency == pytest.approx(base.network_latency * 10_000)
    assert scaled.network_bandwidth == pytest.approx(base.network_bandwidth / 10_000)
    # Relative cost of any two latencies is untouched.
    assert scaled.network_latency / scaled.issue_overhead == pytest.approx(
        base.network_latency / base.issue_overhead
    )


def test_scaled_cost_model_rejects_nonpositive():
    with pytest.raises(ChaosError, match="positive"):
        scaled_cost_model(compression=0.0)


# ----------------------------------------------------------------------
# SoakSpec validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field,value", [
    ("workload", "nope"),
    ("backend", "nope"),
    ("store", "nope"),
    ("recovery", "nope"),
    ("scenario", "nope"),
])
def test_spec_rejects_unknown_names(field, value):
    with pytest.raises(ChaosError, match="nope") as info:
        SoakSpec(**{field: value})
    # The message lists the valid choices, the default among them.
    assert repr(getattr(SoakSpec(), field)) in str(info.value)


def test_spec_rejects_non_numeric_interval():
    with pytest.raises(ChaosError, match="interval"):
        SoakSpec(interval="auto")


def test_spec_cell_key_orders_axes():
    assert small_spec().cell_key == "stencil/poisson/sim/memory/global"


def test_workload_params_reach_only_the_workload_they_name():
    # kv has no ``n_local``/``iters``: stencil's entry is ignored, not passed on.
    kv = run_soak(small_spec(workload="kv", rounds=1))
    bare = run_soak(small_spec(workload="kv", rounds=1, workload_params={}))
    assert kv.digest is not None and kv.digest == bare.digest
    assert kv.events == bare.events and kv.plan == bare.plan


# ----------------------------------------------------------------------
# The soak driver and the event log
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_comparison():
    """One serial sim comparison shared by the report/invariant tests."""
    return run_comparison(small_spec())


def test_soak_events_well_formed():
    result = run_soak(small_spec())
    assert result.aborted is None
    assert result.metrics.kills_fired >= 1
    assert result.metrics.episodes_resolved >= 1
    times = [e["t"] for e in result.events]
    assert times == sorted(times), "events must be emitted in virtual-time order"
    assert {e["type"] for e in result.events} <= EVENT_TYPES
    assert result.events[0]["type"] == "soak_started"
    assert result.events[-1]["type"] == "soak_completed"
    assert result.metrics.rounds_completed == small_spec().rounds


def test_event_log_roundtrips_through_metrics(tmp_path):
    path = tmp_path / "soak.jsonl"
    result = run_soak(small_spec())
    write_events(result.events, str(path))
    loaded = load_events(str(path))
    assert loaded == result.events
    assert compute_metrics(loaded) == result.metrics


def test_load_events_validates_schema(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text('{"type": "soak_started", "t": 0}\nnot json\n')
    with pytest.raises(ChaosError, match="bad.jsonl:2"):
        load_events(str(bad_json))
    bad_type = tmp_path / "type.jsonl"
    bad_type.write_text('{"type": "meteor", "t": 0}\n')
    with pytest.raises(ChaosError, match="unknown event type"):
        load_events(str(bad_type))
    no_t = tmp_path / "t.jsonl"
    no_t.write_text('{"type": "soak_started"}\n')
    with pytest.raises(ChaosError, match="numeric 't'"):
        load_events(str(no_t))


def test_rerun_is_byte_identical():
    a = run_soak(small_spec())
    b = run_soak(small_spec())
    assert [event_line(e) for e in a.events] == [event_line(e) for e in b.events]
    assert a.digest == b.digest
    assert a.as_dict() == b.as_dict()


def test_chaos_log_is_a_view_of_the_written_trace(tmp_path):
    spec = quick_spec()
    path = tmp_path / "trace.jsonl"
    with tracing(str(path)):
        result = run_soak(spec)
    mine = [e for e in load_trace(str(path)) if e["job"] == f"{spec.cell_key}#0"]
    steps_per_round = result.events[0]["steps_per_round"]
    derived = chaos_events(mine, steps_per_round=steps_per_round)
    assert derived == [e for e in result.events if not e["type"].startswith("soak_")]
    assert any(e["type"] == "service_restored" for e in derived)


def test_excise_skips_kills_of_excised_rank():
    result = run_soak(
        small_spec(scenario="flaky", recovery="degraded", rate_per_round=1.0)
    )
    # The flaky victim dies once, is excised, and every later flap of the
    # same rank is a skipped event the monitor still accounts for.
    assert result.metrics.kills_fired == 1
    assert result.metrics.kills_skipped >= 1
    assert result.excised_ranks >= 1


@pytest.mark.parametrize("seed", [1, 4])
def test_excise_soak_that_would_excise_every_rank_aborts(seed):
    # Correlated node kills at 8 per round leave nobody to continue: the soak
    # ends with soak_aborted, not a bare "barrier requires a participant".
    result = run_soak(small_spec(
        scenario="correlated", recovery="degraded", rate_per_round=8.0, seed=seed
    ))
    assert result.aborted == "CatastrophicFailure" and result.digest is None
    assert [e["type"] for e in result.events[-2:]] == ["soak_aborted", "soak_completed"]
    assert result.events[-2]["error"] == "CatastrophicFailure"


def test_best_effort_soak_completes():
    # Under best-effort delivery a kill landing inside gsync's completion loop
    # suspends its victim while the kernel waits at the collective; the rank
    # is not resumed (its windows, and the local views it holds, are gone)
    # but sits out the step, and the boundary repair brings it back.
    result = run_soak(replace(quick_spec(), recovery="best_effort"))
    assert result.aborted is None and result.digest is not None
    assert result.metrics.kills_fired >= 1
    assert result.recoveries == 0
    assert result.steps_executed == quick_spec().rounds * result.events[0]["steps_per_round"]
    # The kill opens the outage and the repair that mends the rank closes it:
    # every outage closes, so MTTR is finite and the soak is up for all but
    # the spans from a kill to its repair.
    metrics = result.metrics
    assert metrics.mttr_s is not None and math.isfinite(metrics.mttr_s)
    assert metrics.episodes_resolved == metrics.episodes >= 1
    assert metrics.availability > 0.9


def test_best_effort_outage_runs_from_the_kill_to_the_repair():
    # Every op completes in the step-closing gsync, so the kill lands there,
    # after the victim's kernel turn: no step skips it, and the repair at the
    # step's end mends it.  The outage spans the kill to that repair, never zero.
    policy = repro.FaultTolerancePolicy(interval=2, recovery="best_effort")
    with tracing() as hub, repro.launch(4, ft=policy) as job:
        job.allocate("u", 10)
        repro.install_injector(job, KillPlan.single(rank=1, after_ops=22))

        def kernel(ctx, step):
            ctx.win("u").put_nb((ctx.rank + 1) % ctx.nranks, 0, [float(step)])

        job.run(kernel, steps=12)
    trace = hub.events()
    decided = [e["decision"] for e in trace if e["type"] == "qos_decision"]
    assert decided == ["repairs"]  # no step was suspended: the kill struck the gsync
    (kill,) = [e for e in trace if e["type"] == "kill_fired"]
    (repair,) = [e for e in trace if e["type"] == "qos_decision"]
    log = chaos_events(trace)
    assert [e["type"] for e in log] == [
        "failure_initiated", "failure_detected", "service_restored",
    ]
    assert log[1]["t"] == kill["t"] and log[2]["t"] == repair["t"] > kill["t"]
    assert log[2]["mttr_s"] == repair["t"] - kill["t"]
    assert compute_metrics(log).mttr_s > 0


def test_plan_is_identical_across_recoveries_and_stores():
    workload = make_workload("stencil", nprocs=8, n_local=16, iters=24)
    plans = [
        build_plan(
            small_spec(recovery=r, store=s),
            ops_per_round=400, steps_per_round=workload.steps,
        )
        for r, s in (("global", "memory"), ("localized", "disk"), ("degraded", "parity"))
    ]
    events = [[(e.after_ops, e.rank, e.kind) for e in p] for p in plans]
    assert events[0] == events[1] == events[2]


# ----------------------------------------------------------------------
# The comparison grid: the paper's availability / MTTR trade-off
# ----------------------------------------------------------------------
def test_comparison_invariants_hold_on_sim(sim_comparison):
    assert check_chaos_invariants(sim_comparison) == []
    by_rule = {r.spec.recovery: r for r in sim_comparison}
    assert by_rule["localized"].metrics.mttr_s < by_rule["global"].metrics.mttr_s
    assert (
        by_rule["degraded"].metrics.availability
        > by_rule["global"].metrics.availability
    )
    assert (
        by_rule["degraded"].metrics.availability
        > by_rule["localized"].metrics.availability
    )


def test_comparison_cells_face_identical_schedules(sim_comparison):
    plans = {tuple(map(tuple, r.plan)) for r in sim_comparison}
    assert len(plans) == 1


def test_report_roundtrip_and_baseline_gate(sim_comparison):
    report = json.loads(report_json(sim_comparison))
    assert check_against_baseline(report, report) == []
    doctored = json.loads(report_json(sim_comparison))
    key = next(iter(doctored["cells"]))
    doctored["cells"][key]["metrics"]["kills_fired"] += 1
    assert any("kills_fired" in f for f in check_against_baseline(report, doctored))


def test_render_markdown_shows_every_cell(sim_comparison):
    text = render_markdown(sim_comparison)
    for result in sim_comparison:
        assert result.spec.recovery in text
    assert "MTTR predicted" in text


# ----------------------------------------------------------------------
# The quality trade-off: best-effort delivery against the exact rules
# ----------------------------------------------------------------------
#: The grid CI gates against ``tests/baselines/chaos_kv.json``.
KV_GRID = ["--quick", "--workload", "kv", "--recoveries", "global,localized,best_effort",
           "--stores", "memory,multilevel"]


@pytest.fixture(scope="module")
def kv_grid():
    """The kv trade-off grid on sim: three rules × two stores, one kill plan."""
    return run_comparison(
        replace(quick_spec(), workload="kv"),
        recoveries=("global", "localized", "best_effort"),
        stores=("memory", "multilevel"),
    )


def _cells(results):
    return {(r.spec.store, r.spec.recovery): r for r in results}


def test_kv_trade_off_grid_passes_every_invariant_on_sim(kv_grid):
    assert check_chaos_invariants(kv_grid) == []
    cells = _cells(kv_grid)
    for store in ("memory", "multilevel"):
        exact, tolerant = cells[store, "global"], cells[store, "best_effort"]
        assert exact.quality == cells[store, "localized"].quality == 1.0
        assert exact.tolerated_ops == exact.repairs == 0
        assert 0.0 < tolerant.quality < 1.0
        assert tolerant.tolerated_ops > 0 and tolerant.repairs == tolerant.metrics.kills_fired
        assert tolerant.recoveries == 0 and tolerant.elapsed_s < exact.elapsed_s
    for recovery in ("global", "localized", "best_effort"):
        layered = cells["multilevel", recovery]
        assert 0 < layered.multilevel_moved_bytes < layered.multilevel_full_bytes
        assert cells["memory", recovery].multilevel_full_bytes == 0
        assert layered.checkpoint_bytes > 0


@pytest.mark.parametrize(
    ("cell", "edit", "message"),
    [
        (("memory", "global"), lambda c: {"quality": 0.5},
         "memory/global: global recovery scored quality 0.5, expected exactly 1.0"),
        (("multilevel", "localized"), lambda c: {"quality": 0.99},
         "localized recovery scored quality 0.99"),
        (("memory", "best_effort"),
         lambda c: {"elapsed_s": c["memory", "global"].elapsed_s},
         "kv/poisson/sim/memory: best_effort makespan"),
        (("multilevel", "best_effort"),
         lambda c: {"multilevel_moved_bytes": c["multilevel", "best_effort"]
                    .multilevel_full_bytes},
         "multilevel/best_effort: incremental captures moved"),
    ],
    ids=["global-quality", "localized-quality", "best-effort-makespan", "incremental-bytes"],
)
def test_each_trade_off_invariant_fails_on_a_result_edited_to_break_it(
    kv_grid, cell, edit, message
):
    cells = _cells(kv_grid)
    broken = [
        replace(r, **edit(cells)) if key == cell else r for key, r in cells.items()
    ]
    (violation,) = check_chaos_invariants(broken)
    assert message in violation


@pytest.mark.parametrize(("field", "value"), [("digest", "0" * 64), ("tolerated_ops", 99)])
def test_cells_differing_only_in_backend_must_agree(kv_grid, field, value):
    twins = [replace(r, spec=replace(r.spec, backend="proc")) for r in kv_grid]
    assert check_chaos_invariants(kv_grid + twins) == []
    twins[2] = replace(twins[2], **{field: value})
    (violation,) = check_chaos_invariants(kv_grid + twins)
    assert violation.startswith(
        f"kv/poisson/memory/best_effort: {field} differs between sim "
    )


def test_report_gates_the_trade_off_columns_exactly(kv_grid):
    report = json.loads(report_json(kv_grid))
    for field in ("quality", "tolerated_ops", "repairs", "checkpoint_bytes",
                  "multilevel_moved_bytes", "multilevel_full_bytes"):
        doctored = json.loads(report_json(kv_grid))
        cell = doctored["cells"]["kv/poisson/sim/multilevel/best_effort"]
        cell[field] += 1
        (failure,) = check_against_baseline(report, doctored)
        assert failure.startswith(f"kv/poisson/sim/multilevel/best_effort: {field} changed")
    text = render_markdown(kv_grid)
    assert "| quality | makespan |" in text and "| 0.9802 |" in text


@pytest.mark.parametrize("workload", ["stencil", "kv", "allreduce"])
def test_best_effort_mttr_prediction_is_within_a_fifth_of_observed(workload):
    # The kill lands at a completion inside a step's sync: the outage is the
    # rest of that sync's flush plus the lone restore, not a whole step.
    result = run_soak(replace(quick_spec(), workload=workload, recovery="best_effort"))
    assert result.metrics.kills_fired >= 1
    ratio = result.predicted_mttr_s / result.metrics.mttr_s
    assert 1 / 1.2 <= ratio <= 1.2


@PROC_SKIP
def test_kv_trade_off_grid_on_sim_and_proc_passes_its_checked_in_baseline(capsys):
    baseline = Path(__file__).resolve().parent / "baselines" / "chaos_kv.json"
    argv = [*KV_GRID, "--backends", "sim,proc", "--check-baseline", str(baseline)]
    assert chaos_main(argv) == 0
    out = capsys.readouterr().out
    assert "invariants hold" in out and "baseline check passed" in out


def test_rollback_prices_reexecution(sim_comparison):
    # A global rollback must re-execute all lost work; the observed MTTR is
    # therefore bounded below by one step of virtual time.
    rollback = next(r for r in sim_comparison if r.spec.recovery == "global")
    steps = make_workload("stencil", nprocs=8, n_local=16, iters=24).steps
    assert rollback.metrics.mttr_s > rollback.round_seconds / steps


@PROC_SKIP
def test_sim_and_proc_soaks_are_identical():
    spec = small_spec(seed=7)
    sim = run_soak(spec)
    proc = run_soak(replace(spec, backend="proc"))
    assert sim.metrics.kills_fired >= 1
    assert scrub(sim.events) == scrub(proc.events)
    assert sim.metrics == proc.metrics
    assert sim.digest == proc.digest
    assert sim.plan == proc.plan


# ----------------------------------------------------------------------
# Analytic predictions
# ----------------------------------------------------------------------
def test_predicted_mttr_ordering():
    model = IntervalModel(
        cost_model=cray_xe6_like(),
        nprocs=8,
        bytes_per_rank=1 << 16,
        store="memory",
        rates_per_level={0: 1e-3},
    )
    kwargs = dict(step_seconds=0.5, interval_steps=8)
    degraded = model.predicted_mttr_seconds("degraded", **kwargs)
    localized = model.predicted_mttr_seconds("localized", **kwargs)
    global_ = model.predicted_mttr_seconds("global", **kwargs)
    assert degraded < localized < global_
    assert (
        model.predicted_availability("degraded", **kwargs)
        > model.predicted_availability("global", **kwargs)
    )
    with pytest.raises(StudyError, match="degraded"):
        model.predicted_mttr_seconds("nope", **kwargs)


def test_soak_result_carries_predictions(sim_comparison):
    for result in sim_comparison:
        assert result.predicted_mttr_s > 0
        assert 0 < result.predicted_availability <= 1


# ----------------------------------------------------------------------
# The session observer seam
# ----------------------------------------------------------------------
def test_session_observer_hooks():
    seen: list[tuple] = []

    class Recorder(repro.SessionObserver):
        def on_step_completed(self, step, t):
            seen.append(("step", step))

        def on_failure_detected(self, rank, step, t):
            seen.append(("detected", rank))

        def on_recovery_completed(self, resume_step, t):
            seen.append(("recovered", resume_step))

    with repro.launch(4, ft=repro.FaultTolerancePolicy(interval=4)) as job:
        job.allocate("u", 10)
        repro.install_injector(job, KillPlan.single(rank=1, after_ops=30))

        def kernel(ctx, step):
            w = ctx.win("u")
            w[(ctx.rank + 1) % ctx.nranks, 0] = float(step)
            yield ctx.gsync()

        job.add_observer(Recorder())
        job.run(kernel, steps=12)

    kinds = [k for k, _ in seen]
    # Re-executed steps after the rollback notify again, so the completion
    # count exceeds the step count but every step completes at least once.
    assert kinds.count("step") >= 12
    assert {s for k, s in seen if k == "step"} == set(range(12))
    assert ("detected", 1) in seen
    assert "recovered" in kinds
    assert kinds.index("detected") < kinds.index("recovered")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_chaos_cli_list(capsys):
    assert chaos_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "scenarios:" in out
    assert "countermeasures:" not in out and "monitors:" not in out
    assert len(out.splitlines()) == 5


def test_chaos_cli_help_lists_the_default_recoveries(capsys):
    with pytest.raises(SystemExit):
        chaos_main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--recoveries" in out and "default global,localized,degraded" in out
    for gone in ("--monitor", "--countermeasures", "--delivery"):
        assert gone not in out


def test_chaos_cli_quick(tmp_path, capsys):
    events = tmp_path / "soak.jsonl"
    output = tmp_path / "soak.json"
    code = chaos_main([
        "--quick", "--events", str(events), "--output", str(output),
    ])
    assert code == 0
    assert "invariants hold" in capsys.readouterr().out
    assert load_events(str(events))  # schema-valid JSONL
    report = json.loads(output.read_text())
    assert report["meta"]["engine"] == "repro.chaos"
    # Byte-identity oracle: re-recorded when the cells took the recovery
    # registry's names and the "monitor" key went, and when every cell gained
    # its quality/tolerated/repairs/bytes keys; nothing else moved.
    assert hashlib.sha256(output.read_bytes()).hexdigest() == (
        "9cab36e74a5714459886f6bf8e967685674c808640a0855a313cd1e22bb58873"
    )
    assert len(report["cells"]) == 3


@pytest.mark.parametrize("workload", ["kv", "allreduce"])
def test_chaos_cli_quick_runs_every_workload(workload, capsys):
    # The quick preset's stencil parameters apply to the stencil only.
    assert chaos_main(["--quick", "--workload", workload]) == 0
    assert "invariants hold" in capsys.readouterr().out


def test_study_cli_list(capsys):
    from repro.study.__main__ import main as study_main

    assert study_main(["--list"]) == 0
    assert "workloads:" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Campaign dispatch chunking (the executor fix rides with this PR)
# ----------------------------------------------------------------------
def test_trial_batches_cover_every_trial_in_order():
    from repro.study import CampaignSpec

    spec = CampaignSpec(trials=5)
    cells = ["c0", "c1", "c2"]
    baselines = [{"b": i} for i in range(3)]
    for workers in (1, 2, 4, 16):
        batches = _trial_batches(spec, cells, baselines, workers)
        per_cell: dict[str, list[int]] = {c: [] for c in cells}
        for _, cell, _, start, stop in batches:
            assert start < stop <= spec.trials
            per_cell[cell].extend(range(start, stop))
        assert all(per_cell[c] == list(range(5)) for c in cells)
        # Batches preserve sweep order: cells in order, ranges ascending.
        order = [cell for _, cell, _, _, _ in batches]
        assert order == sorted(order, key=cells.index)
