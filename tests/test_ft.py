"""Fault-tolerance subsystem: buddies, checkpointing, recovery, e2e stencil."""

import numpy as np
import pytest

import repro
from heat_stencil_ft import run_stencil
from repro.errors import (
    CatastrophicFailure,
    CheckpointError,
    EpochError,
    PlacementError,
    ProcessFailedError,
    RecoveryError,
    TopologyError,
)
from repro.ft import (
    ActionLog,
    CoordinatedCheckpointer,
    FaultInjector,
    KillEvent,
    KillPlan,
    MemoryStore,
    RecoveryManager,
    buddy_assignment,
    exponential_schedule,
    group_spread,
    t_aware_groups,
)
from repro.rma import RmaRuntime
from repro.simulator import Cluster
from repro.simulator.placement import block_placement
from repro.simulator.topology import FailureDomainHierarchy
from repro.study.workloads import make_workload


def _placement(nprocs=8, procs_per_node=2):
    fdh = FailureDomainHierarchy.flat(nprocs // procs_per_node)
    return block_placement(fdh, nprocs, procs_per_node)


# ---------------------------------------------------------------------------
# Topology-aware groups and buddies
# ---------------------------------------------------------------------------


def test_buddy_assignment_crosses_failure_domains():
    placement = _placement()
    buddies = buddy_assignment(placement, level=1)
    assert sorted(buddies) == list(range(8))
    for rank, buddy in buddies.items():
        assert placement.node(rank) != placement.node(buddy)


def test_buddy_assignment_is_deterministic():
    placement = _placement()
    assert buddy_assignment(placement) == buddy_assignment(placement)


def test_buddy_assignment_needs_two_domains():
    fdh = FailureDomainHierarchy.flat(1)
    placement = block_placement(fdh, 4, 4)
    with pytest.raises(TopologyError):
        buddy_assignment(placement, level=1)


def test_an_interceptor_whose_attach_raises_leaves_the_chain_as_it_was():
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=4))  # one node: no buddy domain
    with pytest.raises(TopologyError):
        rt.add_interceptor(CoordinatedCheckpointer())
    assert list(rt.interceptors) == []
    assert rt.interceptors.on_rank_failed is None
    assert rt.interceptors.on_window_create is None


def test_t_aware_groups_spread_over_distinct_domains():
    placement = _placement(nprocs=8, procs_per_node=2)
    groups = t_aware_groups(placement, group_size=4, level=1)
    assert sorted(r for g in groups for r in g) == list(range(8))
    for group in groups:
        assert group_spread(placement, group, level=1) == len(group)


def test_t_aware_groups_validate_sizes():
    placement = _placement(nprocs=8, procs_per_node=2)  # 4 nodes
    with pytest.raises(PlacementError):
        t_aware_groups(placement, group_size=3)  # does not divide 8
    with pytest.raises(PlacementError):
        t_aware_groups(placement, group_size=8)  # only 4 domains


# ---------------------------------------------------------------------------
# Checkpoint store and coordinated checkpointer
# ---------------------------------------------------------------------------


def _ft_runtime(nprocs=8, schedule=None, **ck_kwargs):
    runtime = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2))
    if schedule is not None:
        runtime.add_interceptor(FaultInjector(schedule))
    checkpointer = CoordinatedCheckpointer(**ck_kwargs)
    if ck_kwargs.get("log") is not None:
        runtime.add_interceptor(ck_kwargs["log"])
    runtime.add_interceptor(checkpointer)
    return runtime, checkpointer, RecoveryManager(runtime, checkpointer)


def test_checkpoint_keeps_local_and_buddy_copies():
    runtime, checkpointer, _ = _ft_runtime()
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = rank
    version = checkpointer.checkpoint(tag=17)
    store = checkpointer.store
    assert version.tag == 17
    for rank in range(8):
        payload = store.fetch(version, rank)
        assert payload.source == "local" and payload.peers == ()
        assert np.array_equal(payload.windows["w"], np.full(4, rank))
        # With the rank's own memory gone, the buddy's copy serves the same bytes.
        version.lost = {rank}
        payload = store.fetch(version, rank)
        assert payload.source == "buddy" and payload.peers == (checkpointer.buddies[rank],)
        assert np.array_equal(payload.windows["w"], np.full(4, rank))
        version.lost = set()
    assert store.nbytes() == 8 * 2 * 4 * 8


def test_checkpoint_refused_while_lock_held_or_rank_dead():
    runtime, checkpointer, _ = _ft_runtime()
    runtime.win_allocate("w", 4)
    runtime.lock(0, 1)
    with pytest.raises(EpochError):
        checkpointer.checkpoint()
    runtime.unlock(0, 1)
    runtime.cluster.fail_rank(2)
    with pytest.raises(CheckpointError):
        checkpointer.checkpoint()


def test_store_evicts_oldest_beyond_keep_versions():
    runtime, checkpointer, _ = _ft_runtime(
        store=MemoryStore(keep_versions=2)
    )
    runtime.win_allocate("w", 4)
    for tag in range(3):
        checkpointer.checkpoint(tag=tag)
    assert len(checkpointer.store) == 2
    assert [v.tag for v in checkpointer.store.versions] == [1, 2]


def test_failure_drops_exactly_the_copies_in_dead_memory():
    runtime, checkpointer, _ = _ft_runtime()
    runtime.win_allocate("w", 4)
    checkpointer.checkpoint()
    victim = 3
    holder = next(r for r, b in checkpointer.buddies.items() if b == victim)
    runtime.cluster.fail_rank(victim)
    runtime.observe_failures()
    store = checkpointer.store
    version = store.latest()
    assert version.lost == {victim}
    # The victim's own (local) copy is gone; its buddy copy survives.
    assert store.fetch(version, victim).source == "buddy"
    # Whoever checkpointed *into* the victim fell back to its local copy.
    assert store.fetch(version, holder).source == "local"
    # Exactly two copies were in the victim's memory: its own and the holder's.
    assert store.nbytes() == (2 * 8 - 2) * 4 * 8
    store.drop_rank(holder)
    assert not store.available(version, holder)


def test_recovery_restores_dead_rank_from_buddy_copy():
    runtime, checkpointer, recovery = _ft_runtime()
    window = runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 10.0 + rank
    checkpointer.checkpoint(tag="stable")
    for rank in range(8):
        runtime.local(rank, "w")[:] = -1.0  # post-checkpoint progress
    runtime.cluster.fail_rank(5)
    with pytest.raises(ProcessFailedError):
        runtime.put(4, 5, "w", 0, [0.0])
    outcome = recovery.recover()
    assert outcome.tag == "stable"
    # Coordinated rollback: every rank is back at the checkpoint.
    for rank in range(8):
        assert np.array_equal(window.local(rank), np.full(4, 10.0 + rank))
    assert runtime.cluster.is_alive(5)
    assert runtime.cluster.metrics.get("ft.recoveries") == 1


def test_recovery_without_checkpoint_or_failure_raises():
    runtime, _, recovery = _ft_runtime()
    runtime.win_allocate("w", 4)
    with pytest.raises(RecoveryError):
        recovery.recover()  # nobody failed
    runtime.cluster.fail_rank(0)
    with pytest.raises(RecoveryError):
        recovery.recover()  # no checkpoint exists


def test_losing_rank_and_its_buddy_is_catastrophic():
    runtime, checkpointer, recovery = _ft_runtime()
    runtime.win_allocate("w", 4)
    checkpointer.checkpoint()
    victim = 0
    buddy = checkpointer.buddies[victim]
    runtime.cluster.fail_rank(victim)
    runtime.cluster.fail_rank(buddy)
    runtime.observe_failures()
    with pytest.raises(CatastrophicFailure):
        recovery.recover()


def test_catastrophe_names_the_newest_tag_and_the_ranks_it_cannot_serve():
    # Rank 0 and its buddy 2 die: 2's copy survives on its own buddy, so only
    # rank 0 is unserved by the newest version.
    runtime, checkpointer, recovery = _ft_runtime()
    runtime.win_allocate("w", 4)
    checkpointer.checkpoint(tag=0)
    assert checkpointer.buddies[0] == 2
    runtime.cluster.fail_rank(0)
    runtime.cluster.fail_rank(2)
    runtime.observe_failures()
    with pytest.raises(
        CatastrophicFailure,
        match=r"^ranks \[0, 2\] failed .*the newest \(tag 0\) has none for ranks \[0\];",
    ):
        recovery.recover()


def test_action_log_drives_demand_checkpoints():
    log = ActionLog()
    runtime, checkpointer, _ = _ft_runtime(log=log, demand_threshold_bytes=64)
    runtime.win_allocate("w", 16)
    checkpointer.checkpoint(tag="initial")
    assert checkpointer.maybe_checkpoint(tag="early") is None
    for _ in range(2):  # 2 puts x 4 elements x 8 bytes = 64 bytes logged
        runtime.put(0, 1, "w", 0, np.zeros(4))
    assert log.bytes_logged[0] == 64
    version = checkpointer.maybe_checkpoint(tag="demand")
    assert version is not None and version.tag == "demand"
    # Taking the checkpoint truncated the log.
    assert log.max_logged_bytes() == 0
    assert runtime.cluster.metrics.get("ft.demand_checkpoints") == 1


def test_rollback_releases_survivors_post_checkpoint_locks():
    runtime, checkpointer, recovery = _ft_runtime()
    runtime.win_allocate("w", 4)
    checkpointer.checkpoint(tag=0)
    runtime.lock(1, 2)  # survivor acquires a lock *after* the checkpoint
    runtime.cluster.fail_rank(0)
    with pytest.raises(ProcessFailedError):
        runtime.put(3, 0, "w", 0, [1.0])
    recovery.recover()
    # The rollback undid the lock: re-acquiring must not raise, and a
    # fresh checkpoint is legal again.
    assert not runtime.counters.of(1).held_locks
    runtime.lock(1, 2)
    runtime.unlock(1, 2)
    checkpointer.checkpoint(tag=1)


def test_failure_during_checkpoint_commits_nothing():
    # Measure, on a failure-free twin, when the copy phase of the checkpoint
    # happens, then schedule a failure inside that interval: the closing
    # barrier observes it and the aborted checkpoint must not be committed.
    runtime, checkpointer, _ = _ft_runtime(nprocs=4)
    runtime.win_allocate("w", 256)
    runtime.put(0, 1, "w", 0, np.ones(8))
    t_start = runtime.cluster.elapsed()
    checkpointer.checkpoint()
    t_end = runtime.cluster.elapsed()
    opening_barrier = runtime.cluster.costs.barrier(4)
    t_fail = t_start + opening_barrier + (t_end - t_start - opening_barrier) * 0.5

    log = ActionLog()
    runtime, checkpointer, _ = _ft_runtime(
        nprocs=4, schedule=KillPlan.single(2, time=t_fail), log=log
    )
    runtime.win_allocate("w", 256)
    runtime.put(0, 1, "w", 0, np.ones(8))
    logged_before = log.max_logged_bytes()
    assert logged_before > 0
    with pytest.raises(ProcessFailedError):
        checkpointer.checkpoint()
    assert len(checkpointer.store) == 0  # nothing half-written was published
    assert log.max_logged_bytes() == logged_before  # log survives the abort


def test_recovery_truncates_the_action_log():
    log = ActionLog()
    runtime, checkpointer, recovery = _ft_runtime(log=log, demand_threshold_bytes=10**9)
    runtime.win_allocate("w", 8)
    checkpointer.checkpoint(tag=0)
    runtime.put(0, 1, "w", 0, np.ones(4))
    assert log.max_logged_bytes() > 0
    runtime.cluster.fail_rank(3)
    recovery.recover()
    # Rolled-back actions must not linger: the restored checkpoint was taken
    # with a freshly truncated log.
    assert log.max_logged_bytes() == 0 and not log.actions and not log.step_marks


# ---------------------------------------------------------------------------
# End-to-end: stencil under failures finishes bit-identical (acceptance)
# ---------------------------------------------------------------------------


def test_stencil_recovers_single_rank_failure_bit_identical():
    baseline = run_stencil(nprocs=6, n_local=8, iters=30, ckpt_interval=5)
    assert baseline.recoveries == 0
    schedule = KillPlan.single(3, time=baseline.elapsed * 0.5)
    recovered = run_stencil(
        nprocs=6, n_local=8, iters=30, ckpt_interval=5, failures=schedule
    )
    assert recovered.recoveries == 1
    assert np.array_equal(baseline.field, recovered.field)
    # Recovery re-executes rolled-back iterations and costs virtual time.
    assert recovered.iterations_executed > baseline.iterations_executed
    assert recovered.elapsed > baseline.elapsed


def test_stencil_recovers_whole_node_failure_bit_identical():
    baseline = run_stencil(nprocs=8, n_local=8, iters=30, ckpt_interval=5)
    # Node 1 hosts ranks 2 and 3; both die at once mid-run.
    schedule = KillPlan([KillEvent(time=baseline.elapsed * 0.6, element=(1, 1))])
    recovered = run_stencil(
        nprocs=8, n_local=8, iters=30, ckpt_interval=5, failures=schedule
    )
    assert recovered.recoveries == 1
    assert np.array_equal(baseline.field, recovered.field)


def _rack_stencil(*, buddy_level: int, failures: KillPlan | None = None):
    """16 ranks, 2 per node, 2 nodes per rack, 4 racks (a level-2 hierarchy)."""
    fdh = FailureDomainHierarchy(("node", "rack"), (2,), 4)
    workload = make_workload("stencil", nprocs=16, n_local=8, iters=12)
    policy = repro.FaultTolerancePolicy(interval=3, store="memory", buddy_level=buddy_level)
    topology = repro.Topology(procs_per_node=2, fdh=fdh)
    with repro.launch(16, topology=topology, ft=policy, failures=failures) as job:
        workload.setup(job)
        report = job.run(workload.kernel(), steps=workload.steps)
        return workload.collect(job), report


def test_rack_failure_needs_rack_level_buddies():
    # §5: a buddy copy survives the failure of every domain below the level
    # it is spread at.  Rack 1 (nodes 2-3, ranks 4-7) failing at once is
    # survived with buddies on another rack, and fatal with buddies that only
    # cross node boundaries (ranks 4 and 5 keep theirs on 6 and 7, same rack).
    baseline, report = _rack_stencil(buddy_level=2)
    rack = KillPlan([KillEvent(time=report.elapsed * 0.6, element=(2, 1))])
    recovered, survived = _rack_stencil(buddy_level=2, failures=rack)
    assert survived.recoveries == 1
    assert np.array_equal(baseline, recovered)
    with pytest.raises(CatastrophicFailure, match=r"ranks \[4, 5, 6, 7\] failed"):
        _rack_stencil(buddy_level=1, failures=rack)


def test_stencil_survives_failures_in_rapid_succession():
    # The second failure can fire *during* recovery from the first; the
    # driver's retry loop must absorb it and still finish bit-identical.
    baseline = run_stencil(nprocs=6, n_local=8, iters=30, ckpt_interval=5)
    t = baseline.elapsed * 0.5
    schedule = KillPlan([KillEvent(time=t, rank=1), KillEvent(time=t + 1e-7, rank=4)])
    recovered = run_stencil(
        nprocs=6, n_local=8, iters=30, ckpt_interval=5, failures=schedule
    )
    assert recovered.recoveries >= 1
    assert np.array_equal(baseline.field, recovered.field)


def test_stencil_survives_exponential_failure_schedule():
    baseline = run_stencil(nprocs=8, n_local=16, iters=40, ckpt_interval=8)
    schedule = exponential_schedule(
        horizon=baseline.elapsed,
        rates_per_level={1: 2.0 / baseline.elapsed},
        max_index_per_level={1: 4},
        seed=7,
    )
    assert len(schedule) > 0
    recovered = run_stencil(
        nprocs=8, n_local=16, iters=40, ckpt_interval=8, failures=schedule
    )
    assert recovered.recoveries >= 1
    assert np.array_equal(baseline.field, recovered.field)
