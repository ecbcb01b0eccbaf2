"""Tests for the resilience-study engine: workloads, model, auto interval, campaigns."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import repro
from repro.errors import CampaignError, PolicyError, ProcessFailedError, StudyError
from repro.ft.inject import KillEvent, KillPlan
from repro.registry import available
from repro.simulator.costs import cray_xe6_like, ethernet_cluster_like
from repro.study import (
    WORKLOADS,
    CampaignSpec,
    HeatStencil,
    IntervalModel,
    KvUpdate,
    RingAllreduce,
    check_against_baseline,
    check_invariants,
    make_workload,
    optimal_interval_seconds,
    predicted_overhead,
    render_markdown,
    report_json,
    run_campaign,
)
from repro.study.campaign import _Cell, _trial_seed
from repro.study.model import checkpoint_seconds, restart_seconds, system_failure_rate


# ----------------------------------------------------------------------
# Registry introspection
# ----------------------------------------------------------------------
def test_available_lists_every_seam():
    assert available("workload") == ("allreduce", "kv", "kv_service", "stencil")
    assert available("store") == ("disk", "memory", "multilevel", "parity")
    assert available("recovery") == ("best_effort", "degraded", "global", "localized")
    expected_backends = (
        ("proc", "sim", "vector") if repro.proc_available() else ("sim", "vector")
    )
    assert available("backend") == expected_backends


def test_available_rejects_unknown_kind():
    with pytest.raises(KeyError, match="registered kinds"):
        available("flux-capacitor")


def test_policy_error_listings_come_from_available():
    for kind, kwargs in (
        ("store", {"store": "nope"}),
        ("recovery", {"recovery": "nope"}),
    ):
        with pytest.raises(PolicyError) as err:
            repro.FaultTolerancePolicy(**kwargs)
        for name in available(kind):
            assert repr(name) in str(err.value)


def test_unknown_workload_lists_catalog():
    with pytest.raises(StudyError) as err:
        make_workload("nope")
    for name in available("workload"):
        assert repr(name) in str(err.value)


# ----------------------------------------------------------------------
# Workload catalog
# ----------------------------------------------------------------------
def test_catalog_covers_the_three_examples():
    available("workload")  # imports every builtin catalog module (repro.serve)
    assert set(WORKLOADS) == {"stencil", "allreduce", "kv", "kv_service"}


def test_workload_digest_is_bit_exact():
    wl = HeatStencil(n_local=8, iters=10)
    a = wl.run()
    b = wl.run()
    assert a.digest == b.digest
    assert np.array_equal(a.result, b.result)
    # One ulp of difference must change the digest.
    perturbed = a.result.copy()
    perturbed[0] = np.nextafter(perturbed[0], np.inf)
    assert wl.digest(perturbed) != a.digest


def test_workload_parameterization_changes_shape():
    small = RingAllreduce(nprocs=4, chunk=4)
    assert small.steps == 6
    run = small.run()
    assert run.result.shape == (4, 16)
    assert np.allclose(run.result, small.expected()[None, :])


def test_kv_workload_matches_local_replay():
    wl = KvUpdate(nprocs=4, slots=8, updates_per_step=4, steps=6, seed=3)
    run = wl.run(ft=repro.FaultTolerancePolicy(interval=None, demand_threshold_bytes=256))
    assert np.array_equal(run.result, wl.expected())


def test_workload_recovers_bit_identical_under_injected_failure():
    wl = HeatStencil(n_local=8, iters=20)
    base = wl.run()
    schedule = KillPlan.single(2, time=base.report.elapsed * 0.5)
    recovered = wl.run(ft=repro.FaultTolerancePolicy(interval=5), failures=schedule)
    assert recovered.report.recoveries >= 1
    assert recovered.digest == base.digest


def _rank_and_buddy(after_ops: int) -> KillPlan:
    """Kill rank 0 and its buddy (rank 2 with two ranks per node) at once."""
    return KillPlan([KillEvent(after_ops, 0), KillEvent(after_ops, 2)])


def test_an_unrecoverable_run_is_aborted_with_its_report_so_far():
    wl = HeatStencil(n_local=8, iters=20)
    run = wl.run(ft=repro.FaultTolerancePolicy(interval=5), failures=_rank_and_buddy(100))
    assert run.aborted == "CatastrophicFailure"
    assert run.result is None and run.digest is None
    assert run.report.recoveries == 0 and 0 < run.report.steps_executed < wl.steps
    assert run.report.checkpoints >= 1 and run.bytes_per_rank == (8 + 2) * 8


def test_a_failure_during_set_up_aborts_a_protected_run():
    # The window allocation's barrier observes it, before any checkpoint.
    schedule = KillPlan.single(3, time=1e-9)
    run = HeatStencil(n_local=8, iters=20).run(
        ft=repro.FaultTolerancePolicy(interval=5), failures=schedule
    )
    assert run.aborted == "ProcessFailedError" and run.digest is None
    assert run.report.steps_executed == 0 and run.report.checkpoints == 0


def test_an_unprotected_run_still_raises_the_failure():
    with pytest.raises(ProcessFailedError):
        HeatStencil(n_local=8, iters=20).run(failures=_rank_and_buddy(100))


def test_workload_validation():
    with pytest.raises(StudyError):
        HeatStencil(nprocs=1)
    with pytest.raises(StudyError):
        HeatStencil(n_local=0)
    with pytest.raises(StudyError):
        KvUpdate(steps=0)


def test_bytes_per_rank_matches_window_arithmetic():
    assert HeatStencil(n_local=16, iters=4).run().bytes_per_rank == (16 + 2) * 8
    assert RingAllreduce(nprocs=4, chunk=8).run().bytes_per_rank == 4 * 8 * 8


# ----------------------------------------------------------------------
# Analytic model
# ----------------------------------------------------------------------
def test_system_failure_rate_sums_levels():
    assert system_failure_rate({1: 0.5, 2: 0.25}) == 0.75
    assert system_failure_rate({}) == 0.0
    with pytest.raises(StudyError):
        system_failure_rate({1: -1.0})


def test_checkpoint_cost_orders_stores_as_the_paper_does():
    costs = cray_xe6_like()
    kwargs = dict(bytes_per_rank=1 << 20, nprocs=64, cost_model=costs)
    memory = checkpoint_seconds("memory", **kwargs)
    disk = checkpoint_seconds("disk", **kwargs)
    parity = checkpoint_seconds("parity", **kwargs)
    # Diskless checkpointing beats the PFS spill (Figure 10d), and parity
    # places less data than the full buddy copy.
    assert memory < disk
    assert parity < memory
    with pytest.raises(StudyError, match="memory"):
        checkpoint_seconds("nope", **kwargs)


def test_restart_cost_is_positive_and_store_dependent():
    costs = cray_xe6_like()
    kwargs = dict(bytes_per_rank=1 << 20, nprocs=64, cost_model=costs)
    assert 0 < restart_seconds("memory", **kwargs) < restart_seconds("disk", **kwargs)


def test_daly_interval_midpoint_behavior():
    # Classic sanity: tau grows with MTBF, shrinks with cheap checkpoints.
    assert optimal_interval_seconds(1.0, 10_000.0) < optimal_interval_seconds(
        4.0, 10_000.0
    )
    assert optimal_interval_seconds(1.0, 100.0) < optimal_interval_seconds(
        1.0, 10_000.0
    )
    # Degenerate regimes.
    assert math.isinf(optimal_interval_seconds(1.0, math.inf))
    assert optimal_interval_seconds(50.0, 10.0) == 10.0  # C >= 2M -> tau = M
    # Young's first-order term dominates for C << M.
    c, m = 1.0, 1e6
    assert optimal_interval_seconds(c, m) == pytest.approx(
        math.sqrt(2 * c * m), rel=0.01
    )


def test_predicted_overhead_has_a_minimum_at_the_optimum():
    c, r, m = 0.5, 0.2, 1000.0
    tau_opt = optimal_interval_seconds(c, m)
    at_opt = predicted_overhead(tau_opt, checkpoint_s=c, restart_s=r, mtbf_s=m)
    for factor in (0.2, 0.5, 2.0, 5.0):
        other = predicted_overhead(
            tau_opt * factor, checkpoint_s=c, restart_s=r, mtbf_s=m
        )
        assert at_opt <= other


def test_interval_model_resolves_steps_and_curves():
    model = IntervalModel(
        cost_model=cray_xe6_like(),
        nprocs=8,
        bytes_per_rank=1 << 16,
        store="memory",
        rates_per_level={1: 100.0},
    )
    steps = model.optimal_interval_steps(1e-5, max_steps=100)
    assert steps is not None and 1 <= steps <= 100
    curve = [model.predicted_overhead(s, 1e-5) for s in (1, steps, 100)]
    assert len(curve) == 3
    assert curve[1] == min(curve)  # the resolved interval is (near) the minimum
    # Failure-free: no periodic checkpoints at all.
    free = IntervalModel(
        cost_model=cray_xe6_like(), nprocs=8, bytes_per_rank=1 << 16, store="memory"
    )
    assert free.optimal_interval_steps(1e-5) is None


def test_interval_model_reacts_to_the_machine():
    # A slower machine (expensive checkpoints) stretches the interval.
    fast = IntervalModel(
        cost_model=cray_xe6_like(), nprocs=8, bytes_per_rank=1 << 20,
        store="disk", rates_per_level={1: 10.0},
    )
    slow = IntervalModel(
        cost_model=ethernet_cluster_like(), nprocs=8, bytes_per_rank=1 << 20,
        store="disk", rates_per_level={1: 10.0},
    )
    assert slow.optimal_interval_seconds() > fast.optimal_interval_seconds()


# ----------------------------------------------------------------------
# interval="auto" through the session
# ----------------------------------------------------------------------
def test_policy_validates_interval_strings_and_rates():
    repro.FaultTolerancePolicy(interval="auto")  # fine
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(interval="sometimes")
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(interval=0)
    with pytest.raises(PolicyError):
        repro.FaultTolerancePolicy(interval="auto", failure_rates={1: -0.5})


def test_auto_interval_resolves_through_the_model():
    wl = HeatStencil(n_local=16, iters=24)
    base = wl.run()
    rate = 2.0 / base.report.elapsed
    run = wl.run(
        ft=repro.FaultTolerancePolicy(interval="auto", failure_rates={1: rate})
    )
    assert run.resolved_interval is not None
    assert 1 <= run.resolved_interval <= 24
    # Periodic checkpoints actually happened at that cadence.
    assert run.report.checkpoints >= 24 // run.resolved_interval
    assert run.digest == base.digest


def test_auto_interval_failure_free_means_no_periodic_checkpoints():
    wl = HeatStencil(n_local=8, iters=12)
    run = wl.run(ft=repro.FaultTolerancePolicy(interval="auto"))
    assert run.resolved_interval is None
    assert run.report.checkpoints == 1  # only the phase-opening checkpoint


def test_auto_interval_estimates_rates_from_schedule_when_undeclared():
    wl = HeatStencil(n_local=16, iters=24)
    base = wl.run()
    schedule = KillPlan.single(3, time=base.report.elapsed * 0.6)
    run = wl.run(ft=repro.FaultTolerancePolicy(interval="auto"), failures=schedule)
    assert run.resolved_interval is not None
    assert run.report.recoveries >= 1
    assert run.digest == base.digest


def test_auto_interval_recovers_bit_identical_with_localized_replay():
    wl = HeatStencil(n_local=16, iters=24)
    base = wl.run()
    rate = {1: 2.0 / base.report.elapsed}
    schedule = KillPlan.single(3, time=base.report.elapsed * 0.6)
    glob = wl.run(
        ft=repro.FaultTolerancePolicy(
            interval="auto", failure_rates=rate, recovery="global"
        ),
        failures=schedule,
    )
    loc = wl.run(
        ft=repro.FaultTolerancePolicy(
            interval="auto", failure_rates=rate, recovery="localized"
        ),
        failures=schedule,
    )
    assert glob.digest == base.digest == loc.digest
    restored_g = glob.report.metrics.total("ft.restored_bytes")
    restored_l = loc.report.metrics.total("ft.restored_bytes")
    assert 0 < restored_l < restored_g


def test_repeated_node_failure_during_replay_stays_bit_identical():
    """Regression test: a failure striking during (or right after) a localized
    replay used to desynchronize the log's step marks from its actions, so the
    *next* localized recovery restored the survivor snapshot one boundary too
    early and double-applied survivor work."""
    wl = HeatStencil(n_local=16, iters=36)
    base = wl.run()
    e = base.report.elapsed
    schedule = KillPlan(
        [
            KillEvent(time=0.16 * e, element=(1, 2)),
            KillEvent(time=0.70 * e, element=(1, 0)),
            KillEvent(time=0.74 * e, element=(1, 0)),
        ]
    )
    run = wl.run(
        ft=repro.FaultTolerancePolicy(interval=6, recovery="localized"),
        failures=schedule,
    )
    assert run.report.recoveries >= 3
    assert run.digest == base.digest


# ----------------------------------------------------------------------
# Job context manager (session lifecycle)
# ----------------------------------------------------------------------
def test_job_context_manager_closes_on_exit():
    with repro.launch(4) as job:
        assert not job.closed
    assert job.closed
    job.close()  # idempotent


# ----------------------------------------------------------------------
# Campaign engine
# ----------------------------------------------------------------------
TINY = CampaignSpec(
    workloads=("stencil",),
    recoveries=("global", "localized"),
    mean_failures=(2.0,),
    intervals=("auto", 6),
    trials=3,
    seed=42,
    workload_params={"stencil": {"n_local": 8, "iters": 18}},
)


def test_campaign_spec_validation():
    with pytest.raises(CampaignError):
        CampaignSpec(workloads=())
    with pytest.raises(CampaignError):
        CampaignSpec(workloads=("nope",))
    with pytest.raises(CampaignError):
        CampaignSpec(trials=0)
    with pytest.raises(CampaignError):
        CampaignSpec(intervals=("sometimes",))
    with pytest.raises(CampaignError):
        CampaignSpec(mean_failures=(-1.0,))


def test_trial_seeds_ignore_recovery_and_separate_trials():
    cell_g = _Cell("stencil", "sim", "memory", "global", 2.0, 6, (0, 0, 0, 0, 0))
    cell_l = _Cell("stencil", "sim", "memory", "localized", 2.0, 6, (0, 0, 0, 0, 0))
    spec = TINY
    # Paired protocols face identical fault loads...
    assert _trial_seed(spec, cell_g, 0) == _trial_seed(spec, cell_l, 0)
    # ...but trials (and campaign seeds) are independent streams.
    assert _trial_seed(spec, cell_g, 0) != _trial_seed(spec, cell_g, 1)
    other = CampaignSpec(**{**TINY.__dict__, "seed": 43})
    assert _trial_seed(spec, cell_g, 0) != _trial_seed(other, cell_g, 0)


def test_campaign_report_is_byte_identical_across_reruns_and_executors():
    serial = run_campaign(TINY, executor="serial")
    again = run_campaign(TINY, executor="serial")
    processes = run_campaign(TINY, executor="process", max_workers=2)
    assert report_json(serial) == report_json(again) == report_json(processes)


def test_campaign_different_seeds_draw_disjoint_schedules():
    other = CampaignSpec(**{**TINY.__dict__, "seed": 7})
    a = run_campaign(TINY, executor="serial")
    b = run_campaign(other, executor="serial")

    def event_times(report):
        times = set()
        for cell in report["cells"].values():
            for trial in cell["trials"]:
                times.update(t for t, _level, _idx in trial["events"])
        return times

    times_a, times_b = event_times(a), event_times(b)
    assert times_a and times_b
    assert not (times_a & times_b)


def test_campaign_invariants_and_rendering():
    report = run_campaign(TINY)
    assert check_invariants(report) == []
    md = render_markdown(report)
    assert md.count("\n") == 2 + len(report["cells"])
    assert "auto→" in md
    # Every cell recovered something and stayed bit-identical when it survived.
    for cell in report["cells"].values():
        assert cell["survival_rate"] > 0
        assert cell["bit_identical_rate"] == 1.0
        assert cell["predicted_overhead"] > 0
    # Self-comparison passes the baseline gate; a mutated baseline fails it.
    assert check_against_baseline(report, report) == []
    import copy

    mutated = copy.deepcopy(report)
    key = next(iter(mutated["cells"]))
    mutated["cells"][key]["survival_rate"] = -1.0
    assert any("survival_rate" in f for f in check_against_baseline(report, mutated))
    missing = copy.deepcopy(report)
    missing["cells"]["ghost/sim/memory/global/mf=2/int=6"] = mutated["cells"][key]
    assert any("missing" in f for f in check_against_baseline(report, missing))


def test_campaign_cli_smoke(tmp_path, capsys):
    from repro.study.__main__ import main

    out = tmp_path / "report.json"
    md = tmp_path / "report.md"
    status = main(
        [
            "--workloads", "stencil",
            "--recoveries", "global,localized",
            "--rates", "1",
            "--intervals", "auto,6",
            "--trials", "2",
            "--executor", "serial",
            "--output", str(out),
            "--markdown", str(md),
        ]
    )
    assert status == 0
    assert out.exists() and md.exists()
    # Byte-identity oracle: recorded before the repro.experiment refactor.
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "106820e57a8b9098b5948879f8fad0b58454d43ca2e2ebfd52fa122297d2622f"
    )
    printed = capsys.readouterr().out
    assert "| workload |" in printed
    assert "invariants hold" in printed
