"""Recovery protocol strategies: global rollback, localized replay, degraded mode."""

import numpy as np
import pytest

import repro
from heat_stencil_ft import run_stencil
from kv_update_ft import run_kv
from repro.errors import CatastrophicFailure, RecoveryError
from repro.ft import (
    ContinueDegraded,
    GlobalRollback,
    LocalizedReplay,
    build_ft_stack,
    make_protocol,
)
from repro.rma import RmaRuntime
from repro.simulator import Cluster, FailureSchedule
from ring_allreduce_ft import run_allreduce


def _runtime(nprocs=8, procs_per_node=2, schedule=None, backend=None):
    cluster = Cluster.simple(nprocs, procs_per_node=procs_per_node, failure_schedule=schedule)
    return RmaRuntime(cluster, backend=backend)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_make_protocol_resolves_names_and_instances():
    assert isinstance(make_protocol(None), GlobalRollback)
    assert isinstance(make_protocol("global"), GlobalRollback)
    assert isinstance(make_protocol("localized"), LocalizedReplay)
    assert isinstance(make_protocol("degraded"), ContinueDegraded)
    custom = LocalizedReplay()
    assert make_protocol(custom) is custom
    with pytest.raises(RecoveryError, match=r"'degraded'.*'global'.*'localized'"):
        make_protocol("optimistic")


# ---------------------------------------------------------------------------
# Localized replay — bit-identical to global rollback on all three examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "vector"])
def test_stencil_localized_replay_bit_identical(backend):
    baseline = run_stencil(nprocs=8, n_local=8, iters=24, ckpt_interval=6)
    schedule = FailureSchedule.single_rank(3, baseline.elapsed * 0.55)
    rolled = run_stencil(
        nprocs=8, n_local=8, iters=24, ckpt_interval=6,
        failure_schedule=schedule, backend=backend, recovery="global",
    )
    localized = run_stencil(
        nprocs=8, n_local=8, iters=24, ckpt_interval=6,
        failure_schedule=schedule, backend=backend, recovery="localized",
    )
    assert localized.recoveries == 1
    assert np.array_equal(rolled.field, localized.field)
    assert np.array_equal(baseline.field, localized.field)


@pytest.mark.parametrize("backend", ["sim", "vector"])
def test_allreduce_localized_replay_bit_identical(backend):
    # Combining accumulates: the M-flag case a naive log re-application
    # would double-apply on survivors.
    baseline = run_allreduce(nprocs=8)
    schedule = FailureSchedule.ranks(
        {3: 0.35 * baseline.elapsed, 6: 0.7 * baseline.elapsed}
    )
    rolled = run_allreduce(
        nprocs=8, failure_schedule=schedule, backend=backend, recovery="global"
    )
    localized = run_allreduce(
        nprocs=8, failure_schedule=schedule, backend=backend, recovery="localized"
    )
    assert localized.recoveries >= 1
    assert np.array_equal(rolled.vectors, localized.vectors)
    assert np.array_equal(baseline.vectors, localized.vectors)


@pytest.mark.parametrize("backend", ["sim", "vector"])
def test_kv_localized_replay_bit_identical(backend):
    # Blocking lock-protected atomics complete mid-step: the crash leaves a
    # partially-committed batch the replay must suppress exactly.
    baseline = run_kv(nprocs=8, steps=16, seed=11)
    schedule = FailureSchedule.ranks(
        {1: 0.3 * baseline.elapsed, 4: 0.75 * baseline.elapsed}
    )
    rolled = run_kv(
        nprocs=8, steps=16, seed=11, failure_schedule=schedule,
        backend=backend, recovery="global",
    )
    localized = run_kv(
        nprocs=8, steps=16, seed=11, failure_schedule=schedule,
        backend=backend, recovery="localized",
    )
    assert localized.recoveries >= 1
    assert np.array_equal(rolled.table, localized.table)
    assert np.array_equal(baseline.table, localized.table)


@pytest.mark.parametrize("store", ["memory", "disk", "parity"])
def test_localized_replay_restores_strictly_fewer_bytes(store):
    from repro.study.workloads import HeatStencil

    workload = HeatStencil(nprocs=8, n_local=16, iters=24)

    def run(recovery, schedule=None):
        policy = repro.FaultTolerancePolicy(interval=6, store=store, recovery=recovery)
        with repro.launch(
            8, topology=repro.Topology(procs_per_node=2), ft=policy,
            failures=schedule, sync_each_step=False,
        ) as job:
            workload.setup(job)
            report = job.run(workload.kernel(), steps=workload.steps)
            field = job.gather("u", part=slice(1, 17))
        return field, report

    free_field, free = run("global")
    schedule = FailureSchedule.single_rank(3, free.elapsed * 0.55)
    rolled_field, rolled = run("global", schedule)
    localized_field, localized = run("localized", schedule)
    assert rolled.recoveries == localized.recoveries == 1
    assert np.array_equal(free_field, rolled_field)
    assert np.array_equal(free_field, localized_field)
    restored_global = rolled.metrics.total("ft.restored_bytes")
    restored_localized = localized.metrics.total("ft.restored_bytes")
    assert 0 < restored_localized < restored_global
    # Exactly the failed rank's windows moved, not all eight ranks'.
    assert restored_localized == restored_global / 8


def test_localized_restores_only_failed_ranks_low_level():
    runtime = _runtime()
    stack = build_ft_stack(runtime, recovery="localized")
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 10.0 + rank
    stack.checkpointer.checkpoint(tag=0)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 20.0 + rank  # survivor progress
    stack.log.mark_step()
    runtime.cluster.fail_rank(5)
    runtime.observe_failures()
    outcome = stack.recovery.recover()
    assert outcome.kind == "replay" and outcome.tag == 0
    assert outcome.restored_bytes == 4 * 8  # one rank's window, not eight
    # Survivors kept their post-checkpoint local progress...
    for rank in range(8):
        if rank != 5:
            assert np.array_equal(runtime.local(rank, "w"), np.full(4, 20.0 + rank))
    # ...while the failed rank is back at the checkpoint (its local progress
    # was never logged; the session-level replay re-executes it).
    assert np.array_equal(runtime.local(5, "w"), np.full(4, 15.0))
    metrics = runtime.cluster.metrics
    assert metrics.get("ft.localized_recoveries") == 1
    assert metrics.get("ft.recovery_fallbacks") == 0


def test_localized_falls_back_to_global_rollback_when_copies_lost():
    # A rank dying together with its buddy cannot be served by the newest
    # (memory) version: localized recovery must fall back to the coordinated
    # checkpoint path, which here is catastrophic too — but the fallback is
    # recorded before that surfaces.
    runtime = _runtime()
    stack = build_ft_stack(runtime, recovery="localized")
    runtime.win_allocate("w", 4)
    stack.checkpointer.checkpoint(tag=0)
    victim = 0
    buddy = stack.checkpointer.buddies[victim]
    runtime.cluster.fail_rank(victim)
    runtime.cluster.fail_rank(buddy)
    runtime.observe_failures()
    with pytest.raises(CatastrophicFailure):
        stack.recovery.recover()
    assert runtime.cluster.metrics.get("ft.recovery_fallbacks") == 1


def test_localized_with_disk_store_survives_rank_and_buddy_loss():
    from heat_stencil_ft import run_stencil as rs

    baseline = rs(nprocs=8, n_local=8, iters=20, ckpt_interval=5, store="disk")
    # Node 1 hosts ranks 2 and 3 — a whole-node loss, including a buddy pair
    # boundary; the disk spill serves both replacements.
    schedule = FailureSchedule.element(level=1, index=1, time=baseline.elapsed * 0.6)
    localized = rs(
        nprocs=8, n_local=8, iters=20, ckpt_interval=5, store="disk",
        failure_schedule=schedule, recovery="localized",
    )
    assert localized.recoveries >= 1
    assert np.array_equal(baseline.field, localized.field)


# ---------------------------------------------------------------------------
# Degraded continuation — shrunk membership, best-effort semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "vector"])
def test_degraded_stencil_finishes_with_excised_ranks(backend):
    baseline = run_stencil(nprocs=8, n_local=8, iters=24, ckpt_interval=6)
    schedule = FailureSchedule.single_rank(3, baseline.elapsed * 0.5)
    degraded = run_stencil(
        nprocs=8, n_local=8, iters=24, ckpt_interval=6,
        failure_schedule=schedule, backend=backend, recovery="degraded",
    )
    # The job finished every step on the shrunk membership; the surviving
    # field is finite but not bit-identical (no rollback happened).
    assert degraded.iterations_executed == 24
    assert np.isfinite(degraded.field).all()
    assert not np.array_equal(baseline.field, degraded.field)


def test_degraded_drop_semantics_low_level():
    runtime = _runtime()
    stack = build_ft_stack(runtime, recovery="degraded")
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 1.0 + rank
    stack.checkpointer.checkpoint(tag=0)
    runtime.cluster.fail_rank(2)
    runtime.observe_failures()
    outcome = stack.recovery.recover()
    assert outcome.kind == "degraded" and outcome.failed == (2,)
    assert runtime.excised == frozenset({2})
    # Operations targeting the excised rank are dropped, not raised.
    runtime.put(1, 2, "w", 0, np.full(4, 9.0))
    assert np.array_equal(runtime.local(2, "w"), np.zeros(4))  # put was dropped
    assert np.array_equal(runtime.get(1, 2, "w", 0, 4), np.zeros(4))
    assert runtime.fetch_and_op(1, 2, "w", 0, 5.0) == 0.0
    runtime.lock(1, 2)
    runtime.unlock(1, 2)
    assert runtime.cluster.metrics.get("ft.dropped_ops") >= 2
    # Collectives proceed over the shrunk membership.
    runtime.gsync()
    # Survivors keep communicating normally.
    runtime.put(0, 1, "w", 0, np.full(4, 7.0))
    assert np.array_equal(runtime.local(1, "w"), np.full(4, 7.0))
    # A later checkpoint over the shrunk membership is legal — and the
    # excised rank is neither snapshotted nor used as a copy holder.
    version = stack.checkpointer.checkpoint(tag=1)
    store = stack.store
    assert 2 not in version.local and not store.available(version, 2)
    assert 2 not in version.buddy_of
    owners = [owner for owner, buddy in stack.checkpointer.buddies.items() if buddy == 2]
    assert owners
    for owner in owners:  # nobody holds a copy in excised memory
        assert store.fetch(version, owner).source == "local"
        store.drop_rank(owner)
        assert not store.available(version, owner)
    # Recovering again with no new failure is an error, not a loop.
    with pytest.raises(RecoveryError):
        stack.recovery.recover()


def test_degraded_successive_failures_shrink_further():
    baseline = run_stencil(nprocs=8, n_local=8, iters=24, ckpt_interval=6)
    t = baseline.elapsed
    schedule = FailureSchedule.ranks({2: t * 0.3, 6: t * 0.6})
    degraded = run_stencil(
        nprocs=8, n_local=8, iters=24, ckpt_interval=6,
        failure_schedule=schedule, recovery="degraded",
    )
    assert degraded.iterations_executed == 24
    assert degraded.recoveries == 2


# ---------------------------------------------------------------------------
# Job lifecycle — close/uninstall fully detach the stack
# ---------------------------------------------------------------------------


def test_job_context_manager_closes_and_is_idempotent():
    policy = repro.FaultTolerancePolicy(interval=5)
    with repro.launch(4, ft=policy) as job:
        job.allocate("u", 8)
        job.run(lambda ctx, step: None, steps=3)
        assert not job.closed
        assert len(job.runtime.interceptors) == 2
    assert job.closed
    # The stack is fully detached: interceptors gone, recovery refuses.
    assert len(job.runtime.interceptors) == 0
    with pytest.raises(RecoveryError, match="uninstalled"):
        job.ft.recovery.recover()
    # close() after the context exit is a no-op, as is a second close().
    job.close()
    job.close()
    assert job.closed


def test_ft_stack_uninstall_detaches_recovery_manager():
    runtime = _runtime(nprocs=4)
    stack = build_ft_stack(runtime, demand_threshold_bytes=64)
    assert len(runtime.interceptors) == 2
    stack.uninstall(runtime)
    assert len(runtime.interceptors) == 0
    assert stack.recovery.runtime is None and stack.recovery.checkpointer is None
    with pytest.raises(RecoveryError, match="uninstalled"):
        stack.recovery.recover()
    with pytest.raises(RecoveryError, match="uninstalled"):
        _ = stack.recovery.store
    stack.uninstall(runtime)  # idempotent


def test_report_describe_mentions_excised_ranks():
    baseline = run_stencil(nprocs=6, n_local=8, iters=12, ckpt_interval=4)
    schedule = FailureSchedule.single_rank(2, baseline.elapsed * 0.5)
    policy = repro.FaultTolerancePolicy(interval=4, recovery="degraded")
    with repro.launch(
        6, topology=repro.Topology(procs_per_node=2), ft=policy, failures=schedule,
        sync_each_step=False,
    ) as job:
        job.allocate("u", 10)
        from repro.study.workloads import HeatStencil

        kernel = HeatStencil(nprocs=6, n_local=8, iters=12).kernel()
        report = job.run(kernel, steps=12)
    assert report.excised_ranks == 1
    assert "1 ranks excised" in report.describe()
