"""QoS subsystem: best-effort delivery, multi-level checkpointing, latency percentiles.

The quality/speed comparison of the recovery rules is a chaos grid
(``tests/test_chaos.py``).
"""

import numpy as np
import pytest

from repro import launch
from repro.api.policy import FaultTolerancePolicy
from repro.api.session import SessionObserver
from repro.errors import CheckpointError, PolicyError, RecoveryError
from repro.ft import KillPlan, build_ft_stack, make_store
from repro.ft.recovery import BestEffort, make_protocol
from repro.ft.stores import MultiLevelStore, _merged
from repro.rma import RmaRuntime
from repro.simulator import Cluster
from repro.simulator.costs import cray_xe6_like
from repro.stats import latency_percentiles
from repro.study.model import IntervalModel, level_capture_seconds
from repro.study.workloads import make_workload
from repro.trace import Tracer, summarize, tracing


def _runtime(nprocs=8, procs_per_node=2):
    return RmaRuntime(Cluster.simple(nprocs, procs_per_node=procs_per_node))


# ---------------------------------------------------------------------------
# Delivery decisions — counted once, in the job's metrics and on the trace bus
# ---------------------------------------------------------------------------


def test_delivery_count_rejects_unknown_events():
    with pytest.raises(RecoveryError, match="unknown qos event"):
        BestEffort().count("dropped_everything", 0)


def test_best_effort_qos_totals_equal_the_trace_rollup():
    workload = make_workload("kv", nprocs=8, slots=16, updates_per_step=4, steps=12)
    with tracing() as hub:
        run = workload.run(
            ft=FaultTolerancePolicy(interval=3, recovery=BestEffort()),
            failures=KillPlan.seeded(0, nprocs=8, max_ops=60, kills=1, min_ops=30),
        )
    totals = run.report.metrics.totals
    counted = {
        name.removeprefix("qos."): int(value)
        for name, value in totals.items()
        if name.startswith("qos.")
    }
    assert counted and sum(counted.values()) > 0
    assert counted == summarize(hub.events())["qos"]


def test_delivery_mode_binds_to_exactly_one_job():
    mode = BestEffort()
    first = _runtime()
    mode.bind(first, None)
    mode.bind(first, None)  # same job again is fine
    with pytest.raises(RecoveryError, match="construct a fresh instance"):
        mode.bind(_runtime(), None)


def test_best_effort_is_a_recovery_rule():
    rule = make_protocol("best_effort")
    assert isinstance(rule, BestEffort) and rule.tolerates_failures
    assert not rule.needs_log
    # The recovery procedure never asks it for a plan.
    with pytest.raises(RecoveryError, match="nothing to plan"):
        rule.plan(None, [0], frozenset())
    with pytest.raises(
        PolicyError, match="'best_effort', 'degraded', 'global', 'localized'"
    ):
        FaultTolerancePolicy(recovery="at_most_once")


def test_best_effort_entropy_is_deterministic():
    a, b = BestEffort(), BestEffort()
    coords = [(0, 4, 0), (3, 4, 1), (7, 9, 5)]
    assert [a._entropy(*c) for c in coords] == [b._entropy(*c) for c in coords]
    assert all(0.0 <= a._entropy(*c) < 1.0 for c in coords)


def test_a_stale_read_is_charged_one_local_copy_of_its_slice():
    # A read toward a suspended rank is resolved by the rule and never sent: a
    # dropped read costs its origin what issuing it costs, a read served stale
    # from the checkpoint replica that plus one local copy of the slice.
    with launch(4, ft=FaultTolerancePolicy(interval=1, recovery="best_effort")) as job:
        job.allocate("w", 8)
        for rank in range(4):
            job.local(rank, "w")[:] = np.arange(8.0) + 10 * rank
        job.run(lambda ctx, step: None, steps=1)  # the checkpoint stale reads serve
        job.cluster.fail_rank(1)
        clock, metrics = job.cluster.clock(0), job.cluster.metrics
        copy = job.cluster.costs.local_copy(4 * 8)
        charged = {}
        for _ in range(16):
            before, stale_reads = clock.now, metrics.get("qos.stale_reads")
            data = job.contexts[0].get(1, "w", 2, 4)
            stale = metrics.get("qos.stale_reads") > stale_reads
            assert data.tolist() == ([12.0, 13.0, 14.0, 15.0] if stale else [0.0] * 4)
            charged.setdefault(stale, []).append(clock.now - before)
    assert set(charged) == {False, True}  # half the reads are served stale
    dropped = charged[False][0]
    assert charged[False] == pytest.approx([dropped] * len(charged[False]), rel=1e-9)
    assert charged[True] == pytest.approx([dropped + copy] * len(charged[True]), rel=1e-9)


def _ring_gsync_run(failures=None):
    def kernel(ctx, step):
        ctx.win("w")[(ctx.rank + 1) % ctx.nranks, 0] = float(step)
        yield ctx.gsync()

    tracer = Tracer()
    ft = FaultTolerancePolicy(interval=3, recovery="best_effort")
    with launch(6, ft=ft, failures=failures, trace=tracer) as job:
        job.allocate("w", 8)
        report = job.run(kernel, steps=10)
    checkpoints = [e for e in tracer.events if e["type"] == "checkpoint_committed"]
    return report, checkpoints


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_tolerated_failure_inside_a_checkpoint_is_repaired_and_retried(fraction):
    # A failure firing inside a checkpoint's barriers is a suspension under
    # best-effort delivery: the rank is repaired in place and the checkpoint
    # retried — no rollback, and the checkpoint count of a failure-free run.
    clean, checkpoints = _ring_gsync_run()
    assert clean.checkpoints == len(checkpoints) == 4
    window = checkpoints[2]
    t_kill = window["t_start"] + fraction * (window["t_end"] - window["t_start"])
    report, _ = _ring_gsync_run(KillPlan.single(3, time=t_kill))
    assert report.recoveries == 0
    assert report.metrics.total("qos.repairs") == 1
    assert report.checkpoints == 4


def test_a_repaired_rank_logs_afresh_toward_the_next_demand_checkpoint():
    # Rank 0 logs 512 B a step, the others 8 B: rank 0 alone trips the 2,048 B
    # demand threshold every 4 steps.  Killed in step 7, it is repaired at step
    # 8 with a new (empty) log, so the next demand checkpoint waits for 4 more
    # steps of its volume; counting the dead process's 1,536 B would move it to
    # step 8 and add one.
    def kernel(ctx, step):
        count = 64 if ctx.rank == 0 else 1
        ctx.win("w").put_nb((ctx.rank + 1) % ctx.nranks, 0, np.full(count, float(step)))
        ctx.compute(100.0)

    class Checkpoints(SessionObserver):
        def __init__(self):
            self.demand_steps = []

        def on_checkpoint(self, step, t_start, t_end, demand):
            if demand:
                self.demand_steps.append(step)

    ft = FaultTolerancePolicy(
        interval=None, recovery="best_effort", demand_threshold_bytes=2048
    )
    seen = Checkpoints()
    with launch(4, ft=ft, failures=KillPlan.single(0, after_ops=30)) as job:
        job.add_observer(seen)
        job.allocate("w", 64)
        report = job.run(kernel, steps=24)
    assert report.metrics.total("qos.repairs") == 1
    assert seen.demand_steps == [4, 12, 16, 20]
    assert report.demand_checkpoints == 4


# ---------------------------------------------------------------------------
# Order statistics — the all-equal edge (empty/single/NaN live in test_serve)
# ---------------------------------------------------------------------------


def test_latency_percentiles_all_equal_samples():
    assert latency_percentiles([2.5] * 40) == {"p50": 2.5, "p95": 2.5, "p99": 2.5}


# ---------------------------------------------------------------------------
# ActionLog dirty-region tracking
# ---------------------------------------------------------------------------


def test_action_log_merges_dirty_regions_and_truncate_clears():
    rt = _runtime()
    stack = build_ft_stack(rt, store="memory")
    log = stack.log
    rt.win_allocate("w", 64)
    rt.put(0, 1, "w", 4, np.ones(4))
    rt.put(0, 1, "w", 6, np.ones(4))  # overlaps [4,8) -> merges to (4, 6)
    rt.put(2, 1, "w", 32, np.ones(2))  # disjoint span
    rt.flush_all(0)
    rt.flush_all(2)
    assert _merged(log._dirty[(1, "w")]) == [(4, 6), (32, 2)]
    log.truncate()
    assert log._dirty == {}
    stack.uninstall(rt)


# ---------------------------------------------------------------------------
# MultiLevelStore — construction, incremental capture, recovery reach
# ---------------------------------------------------------------------------


def test_multilevel_store_registered_and_validated():
    store = make_store("multilevel")
    assert isinstance(store, MultiLevelStore)
    assert [
        (lvl.kind, lvl.every) for lvl in store.levels
    ] == list(MultiLevelStore.DEFAULT_LEVELS)
    with pytest.raises(CheckpointError, match="level kind"):
        MultiLevelStore(levels=(("tape", 2),))
    with pytest.raises(CheckpointError, match="cadence"):
        MultiLevelStore(levels=(("parity", 0),))


def test_multilevel_incremental_capture_moves_only_dirty_bytes():
    rt = _runtime()
    stack = build_ft_stack(rt, store=MultiLevelStore(levels=(("parity", 1),)))
    rt.win_allocate("w", 64)
    for r in range(8):
        rt.local(r, "w")[:] = float(r)
    stack.checkpointer.checkpoint(tag=0)  # first capture seeds full mirrors
    m = rt.cluster.metrics
    full_image = 8 * 64 * 8
    assert m.get("ft.multilevel_moved_bytes") == full_image
    assert m.get("ft.multilevel_full_bytes") == full_image
    rt.put(0, 1, "w", 8, np.full(4, 99.0))
    rt.flush_all(0)
    stack.checkpointer.checkpoint(tag=1)
    assert m.get("ft.multilevel_moved_bytes") == full_image + 4 * 8
    # Direct local writes bypass the action log; the content-diff backstop
    # still ships them, keeping the mirror bit-exact.
    rt.local(5, "w")[3] = -7.0
    stack.checkpointer.checkpoint(tag=2)
    assert m.get("ft.multilevel_moved_bytes") == full_image + 4 * 8 + 8
    stack.uninstall(rt)


def test_multilevel_upper_level_survives_rank_and_buddy_loss():
    rt = _runtime()
    stack = build_ft_stack(rt, store="multilevel")
    store = stack.store
    rt.win_allocate("w", 16)
    for r in range(8):
        rt.local(r, "w")[:] = 10.0 + r
    stack.checkpointer.checkpoint(tag=0)
    buddy = store.buddies[0]
    rt.cluster.fail_rank(0)
    rt.cluster.fail_rank(buddy)
    rt.observe_failures()
    version = store.latest()
    assert store.available(version, 0)
    payload = store.fetch(version, 0)
    assert payload.source == "multilevel-parity"
    outcome = stack.recovery.recover()
    assert outcome.tag == 0
    for r in range(8):
        assert np.array_equal(rt.local(r, "w"), np.full(16, 10.0 + r))
    stack.uninstall(rt)


def _prepare_only(stack, tag):
    """A checkpoint whose closing barrier never came: placed, never committed."""
    rt = stack.checkpointer.runtime
    return stack.store.prepare(
        tag=tag,
        windows=rt.windows.all(),
        ranks=range(rt.nprocs),
        counter_states=rt.counters.snapshot(),
    )


def test_multilevel_aborted_capture_keeps_the_committed_upper_levels():
    # Tags 0-2 commit (the parity level captures v1, the disk level v0); the
    # fourth checkpoint's prepare is a capture slot for both levels and never
    # commits.  Losing rank 0 with its buddy must still roll back to tag 1
    # from the parity mirror.
    rt = _runtime()
    stack = build_ft_stack(rt, store="multilevel")
    rt.win_allocate("w", 4)
    for tag in range(3):
        for r in range(8):
            rt.local(r, "w")[:] = 10.0 * tag + r
        stack.checkpointer.checkpoint(tag=tag)
    for r in range(8):
        rt.local(r, "w")[:] = 99.0
    _prepare_only(stack, tag=3)
    assert [lvl.captured_version for lvl in stack.store.levels] == [1, 0]
    rt.cluster.fail_rank(0)
    rt.cluster.fail_rank(stack.checkpointer.buddies[0])
    rt.observe_failures()
    assert stack.store.fetch(stack.store.latest_usable(list(range(8))), 0).source == (
        "multilevel-parity"
    )
    outcome = stack.recovery.recover()
    assert (outcome.kind, outcome.tag) == ("rollback", 1)
    for r in range(8):
        assert np.array_equal(rt.local(r, "w"), np.full(4, 10.0 + r))


def test_multilevel_retried_capture_ships_the_spans_the_aborted_one_saw():
    # The aborted capture must not swallow the dirty spans of the base
    # checkpoints since each level's last capture: the retry that commits
    # ships what the capture ships when nothing aborts.
    shipped = []
    for abort in (False, True):
        rt = _runtime()
        stack = build_ft_stack(rt, store="multilevel")
        rt.win_allocate("w", 64)
        stack.checkpointer.checkpoint(tag=0)
        for tag in (1, 2, 3):
            rt.put(tag % 8, (tag + 1) % 8, "w", 8 * tag, np.ones(4))
            if tag == 3 and abort:
                _prepare_only(stack, tag=tag)
            before = rt.cluster.metrics.get("ft.multilevel_moved_bytes")
            stack.checkpointer.checkpoint(tag=tag)
        shipped.append(rt.cluster.metrics.get("ft.multilevel_moved_bytes") - before)
        assert [lvl.captures for lvl in stack.store.levels] == [3, 2]
    assert shipped[0] == shipped[1] > 0


def test_multilevel_archive_extends_restore_reach_past_eviction():
    rt = _runtime()
    stack = build_ft_stack(
        rt, store=MultiLevelStore(keep_versions=1, levels=(("disk", 4),))
    )
    store = stack.store
    rt.win_allocate("w", 8)
    for r in range(8):
        rt.local(r, "w")[:] = 1.0
    stack.checkpointer.checkpoint(tag="captured")
    for r in range(8):
        rt.local(r, "w")[:] = 2.0
    stack.checkpointer.checkpoint(tag="live")  # evicts v0 into the archive
    assert [v.tag for v in store.versions] == ["live"]
    assert list(store.archived) == [0]
    buddy = store.buddies[2]
    rt.cluster.fail_rank(2)
    rt.cluster.fail_rank(buddy)
    rt.observe_failures()
    usable = store.latest_usable(list(range(8)))
    assert usable is not None and usable.tag == "captured"
    payload = store.fetch(usable, 2)
    assert payload.source == "multilevel-disk"
    assert np.array_equal(payload.windows["w"], np.full(8, 1.0))
    stack.uninstall(rt)


# ---------------------------------------------------------------------------
# Interval model — per-level pricing and cadences
# ---------------------------------------------------------------------------


def test_level_capture_seconds_prices_kinds_and_validates():
    costs = cray_xe6_like()
    parity = level_capture_seconds(
        "parity", bytes_per_rank=1 << 20, nprocs=8, cost_model=costs
    )
    disk = level_capture_seconds(
        "disk", bytes_per_rank=1 << 20, nprocs=8, cost_model=costs
    )
    assert 0 < parity < disk  # shared-PFS writes cost more than neighbor copies
    dirty = level_capture_seconds(
        "parity", bytes_per_rank=1 << 20, nprocs=8, cost_model=costs,
        dirty_fraction=0.25,
    )
    assert dirty < parity
    with pytest.raises(Exception):
        level_capture_seconds(
            "tape", bytes_per_rank=1 << 20, nprocs=8, cost_model=costs
        )
    with pytest.raises(Exception):
        level_capture_seconds(
            "parity", bytes_per_rank=1 << 20, nprocs=8, cost_model=costs,
            dirty_fraction=0.0,
        )


def test_multilevel_intervals_assign_rates_in_fdh_order():
    model = IntervalModel(
        cost_model=cray_xe6_like(),
        nprocs=8,
        bytes_per_rank=1 << 20,
        store="multilevel",
        rates_per_level={1: 1e-3, 2: 1e-5},
    )
    cadences = model.multilevel_intervals(("parity", "disk"))
    assert len(cadences) == 2
    # The frequent node-level rate is absorbed by the base store; the parity
    # level guards the rarer blade-level rate, the disk level the remainder.
    assert cadences[0] is not None and cadences[0] >= 1
    # Rarer upper-level failures mean (weakly) sparser captures.
    assert cadences[1] is None or cadences[1] >= cadences[0]


def test_multilevel_intervals_failure_free_is_none():
    model = IntervalModel(
        cost_model=cray_xe6_like(),
        nprocs=8,
        bytes_per_rank=1 << 20,
        store="multilevel",
        rates_per_level={},
    )
    assert model.multilevel_intervals(("parity", "disk")) == [None, None]
