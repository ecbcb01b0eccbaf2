"""RmaRuntime semantics: dispatch, costs, epochs/counters, failure surfacing."""

import pickle

import numpy as np
import pytest

import repro
from repro.chaos import scaled_cost_model
from repro.errors import LockError, ProcessFailedError, SimulationError, SynchronizationError
from repro.ft import FaultInjector, KillPlan
from repro.rma import AccumulateOp, OrderRecorder, RmaInterceptor, RmaRuntime
from repro.simulator import Cluster
from repro.simulator.costs import cray_xe6_like, ethernet_cluster_like


@pytest.fixture
def recorder():
    return OrderRecorder()


@pytest.fixture
def runtime(recorder):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    rt.add_interceptor(recorder)
    rt.win_allocate("w", 8)
    return rt


def test_put_get_round_trip(runtime):
    runtime.put(0, 3, "w", 2, [1.0, 2.0, 3.0])
    assert np.array_equal(runtime.get(1, 3, "w", 2, 3), [1.0, 2.0, 3.0])


def test_accumulate_combines_into_target(runtime):
    runtime.put(0, 1, "w", 0, [10.0, 10.0])
    runtime.accumulate(0, 1, "w", 0, [1.0, 2.0], op=AccumulateOp.SUM)
    assert np.array_equal(runtime.local(1, "w")[:2], [11.0, 12.0])


def test_fetch_and_op_returns_previous_value(runtime):
    runtime.put(0, 2, "w", 5, [7.0])
    assert runtime.fetch_and_op(1, 2, "w", 5, 3.0) == 7.0
    assert runtime.local(2, "w")[5] == 10.0


def test_compare_and_swap_swaps_only_on_match(runtime):
    runtime.put(0, 2, "w", 0, [5.0])
    assert runtime.compare_and_swap(1, 2, "w", 0, compare=5.0, value=9.0) == 5.0
    assert runtime.local(2, "w")[0] == 9.0
    assert runtime.compare_and_swap(1, 2, "w", 0, compare=5.0, value=1.0) == 9.0
    assert runtime.local(2, "w")[0] == 9.0


def test_flush_closes_epoch_and_bumps_gc(runtime, recorder):
    assert runtime.counters.of(0).epoch_of_target[1] == 0
    action = runtime.put(0, 1, "w", 0, [1.0])
    assert action.EC == 0 and action.GC == 0
    runtime.flush(0, 1)
    assert runtime.counters.of(0).epoch_of_target[1] == 1
    assert runtime.counters.of(0).gc == 1
    later = runtime.put(0, 1, "w", 0, [2.0])
    assert later.EC == 1 and later.GC == 1
    # co holds between the two epochs (§2.3).
    assert recorder.consistency_order(action, later)
    assert not recorder.consistency_order(later, action)


def test_lock_fetch_increments_sc_and_unlock_closes_epoch(runtime):
    a = runtime.lock(0, 2)
    b_sc = runtime.counters.of(2).sc_local
    assert a.counters.sc == 1 and b_sc == 1
    with pytest.raises(LockError):
        runtime.lock(0, 2)  # double lock on the same structure
    epoch_before = runtime.counters.of(0).epoch_of_target[2]
    runtime.unlock(0, 2)
    assert runtime.counters.of(0).epoch_of_target[2] == epoch_before + 1
    with pytest.raises(LockError):
        runtime.unlock(0, 2)
    # The next locker fetches the incremented counter.
    assert runtime.lock(1, 2).counters.sc == 2


def test_gsync_bumps_gnc_everywhere_and_closes_all_epochs(runtime):
    runtime.put(0, 1, "w", 0, [1.0])
    runtime.put(2, 3, "w", 0, [1.0])
    runtime.gsync()
    assert all(runtime.counters.of(r).gnc == 1 for r in range(4))
    assert runtime.counters.of(0).epoch_of_target[1] == 1
    assert runtime.counters.of(2).epoch_of_target[3] == 1
    assert sum(runtime.counters.of(0).pending_ops.values()) == 0


def test_epoch_and_counter_snapshots_are_independent_of_later_mutation(runtime):
    runtime.lock(0, 1)
    runtime.put(0, 1, "w", 0, [1.0])
    counters = runtime.counters.snapshot()
    held = dict(counters[0].held_locks)
    assert held and counters[0].lc == 1 and counters[0].sc_held[1] == 1
    runtime.unlock(0, 1)  # closes the epoch, drops the lock: mutates the live state
    runtime.put(0, 2, "w", 0, [1.0])
    assert counters[0].epoch_of_target[1] == 0 and 2 not in counters[0].epoch_of_target
    assert counters[0].held_locks == held and counters[0].lc == 1
    runtime.counters.restore(counters)
    own = runtime.counters.of(0)
    assert own.epoch_of_target[1] == 0 and own.held_locks == held
    # The restored maps are still auto-creating: an unseen target starts at 0.
    assert own.epoch_of_target[3] == 0 and own.sc_held[3] == 0
    runtime.put_nb(0, 3, "w", 0, [1.0])  # counts towards the open 0 -> 3 epoch
    own.close_epoch(1)  # ... and mutating the restored state
    assert 3 not in counters[0].pending_ops  # leaves the snapshot alone
    assert counters[0].epoch_of_target[1] == 0 and own.epoch_of_target[1] == 1


def test_gsync_builds_its_records_only_for_a_reader(runtime):
    syncs = runtime.gsync()  # the fixture's recorder reads them
    assert [(s.src, s.GNC) for s in syncs] == [(r, 1) for r in range(4)]
    bare = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    bare.win_allocate("w", 8)
    assert bare.gsync() == []
    assert all(bare.counters.of(r).gnc == 1 for r in range(4))


def _charged(flops):
    """A 4-rank, 200-step job charging ``flops(rank)`` per step: its makespan and
    the types of every clock's time fields."""

    def kernel(ctx, step):
        ctx.compute(flops(ctx.rank))
        yield ctx.gsync()

    with repro.launch(4) as job:
        job.allocate("w", 1)
        job.run(kernel, steps=200)
        clocks = [job.cluster.clock(rank) for rank in range(4)]
        return job.cluster.elapsed(), {type(c.now) for c in clocks} | {
            type(c.busy) for c in clocks
        }


@pytest.mark.parametrize("scalar", [float, np.float32, np.int64, np.float64])
def test_a_numpy_compute_charge_leaves_every_clock_a_python_float(scalar):
    """A numpy ``flops`` used to make the clock a numpy scalar: a ``float32`` one
    ended this job at 0.0021058558, ``float64`` ones kept the float's value."""
    elapsed, types = _charged(lambda rank: scalar(1000 + rank))
    assert types == {float}
    assert type(elapsed) is float and elapsed == 0.0021058547203550897


def test_a_negative_compute_charge_raises_and_moves_no_clock(runtime):
    clock = runtime.cluster.clock(0)
    before = (clock.now, clock.ticks, clock.busy)
    with pytest.raises(SimulationError, match="negative"):
        runtime.compute(0, -1.0)
    assert (clock.now, clock.ticks, clock.busy) == before
    runtime.compute(0, 1.0)
    assert (clock.ticks, clock.busy) == (before[1] + 1, before[2] + runtime._flop_time)


def test_gsync_while_holding_a_lock_is_illegal(runtime):
    runtime.lock(0, 1)
    with pytest.raises(SynchronizationError):
        runtime.gsync()


def test_actions_advance_the_origin_clock(runtime):
    before = runtime.cluster.now(0)
    runtime.put(0, 1, "w", 0, np.zeros(4))
    assert runtime.cluster.now(0) > before
    assert runtime.cluster.now(2) == runtime.cluster.now(3)  # untouched ranks


@pytest.mark.parametrize(
    "field, value",
    [
        ("network_latency", -1e-6),  # parent: raised at the first charge, deep in a run
        ("lock_latency", float("nan")),
        ("flop_time", float("inf")),
        ("log_bookkeeping", "fast"),
        ("network_bandwidth", 0.0),
        ("memory_bandwidth", -1.0),
        ("pfs_bandwidth", float("inf")),
    ],
)
def test_cost_model_rejects_an_invalid_field_at_construction(field, value):
    with pytest.raises(SimulationError, match=rf"CostModel\.{field} must be a finite"):
        cray_xe6_like().with_overrides(**{field: value})


def test_cost_model_presets_build_and_price_lookups_equal_calls():
    models = [
        cray_xe6_like(),
        ethernet_cluster_like(),
        scaled_cost_model(compression=10_000.0),
        cray_xe6_like().with_overrides(issue_overhead=0),  # a zero time is valid
    ]
    for model in models:
        for nbytes in (0, 8, 4096):
            for atomic in (False, True):
                price = model.transfer_prices[nbytes, atomic]
                assert price == model.remote_transfer(nbytes, atomic=atomic)
            assert model.log_prices[nbytes] == model.log_bookkeeping + model.local_copy(nbytes)
        clone = pickle.loads(pickle.dumps(model))  # the price tables stay behind
        assert clone == model and "transfer_prices" not in vars(clone)
        assert clone.transfer_prices[8, True] == model.transfer_prices[8, True]


def test_scheduled_failure_surfaces_as_process_failed_error():
    rt = RmaRuntime(Cluster.simple(4))
    rt.add_interceptor(FaultInjector(KillPlan.single(2, time=0.0)))
    with pytest.raises(ProcessFailedError):
        rt.win_allocate("w", 4)


def test_direct_fail_rank_is_observed_and_propagated():
    rt = RmaRuntime(Cluster.simple(4))
    rt.win_allocate("w", 4)

    class Spy(RmaInterceptor):
        def __init__(self):
            self.failed, self.respawned = [], []

        def on_rank_failed(self, rank):
            self.failed.append(rank)

        def on_respawn(self, rank):
            self.respawned.append(rank)

    spy = Spy()
    rt.add_interceptor(spy)
    rt.cluster.fail_rank(3)
    with pytest.raises(ProcessFailedError):
        rt.put(0, 3, "w", 0, [1.0])
    assert spy.failed == [3]
    assert rt.windows.get("w").is_invalidated(3)
    # A second observation does not re-fire the hook.
    with pytest.raises(ProcessFailedError):
        rt.get(1, 3, "w", 0, 1)
    assert spy.failed == [3]
    rt.cluster.respawn_rank(3)
    rt.notify_respawn(3)
    assert spy.respawned == [3]


def test_failed_origin_cannot_issue_actions():
    rt = RmaRuntime(Cluster.simple(4))
    rt.win_allocate("w", 4)
    rt.cluster.fail_rank(1)
    with pytest.raises(ProcessFailedError):
        rt.put(1, 0, "w", 0, [1.0])


def test_gsync_observes_scheduled_failures():
    # Rank 2 dies at t=1s (virtual), long after window allocation completes.
    rt = RmaRuntime(Cluster.simple(4))
    rt.add_interceptor(FaultInjector(KillPlan.single(2, time=1.0)))
    rt.win_allocate("w", 4)
    rt.cluster.advance(0, 2.0)  # push virtual time past the failure
    with pytest.raises(ProcessFailedError):
        rt.gsync()


def test_put_payload_is_decoupled_from_caller_buffer(runtime):
    buf = np.array([1.0, 2.0])
    action = runtime.put(0, 1, "w", 0, buf)
    buf[0] = 99.0  # caller reuses its buffer after the put
    assert np.array_equal(action.data, [1.0, 2.0])  # recorded history is stable
    assert np.array_equal(runtime.local(1, "w")[:2], [1.0, 2.0])


def test_metrics_track_operations(runtime):
    runtime.put(0, 1, "w", 0, [1.0, 2.0])
    runtime.get(1, 0, "w", 0, 2)
    runtime.gsync()
    metrics = runtime.cluster.metrics
    assert metrics.get("rma.put") == 1
    assert metrics.get("rma.get") == 1
    assert metrics.get("rma.gsyncs") == 1
    assert metrics.get("rma.bytes_moved") == 32


def _sync_state(rt) -> tuple:
    """Everything a sync may move: counters (epochs among them), clocks and ``rma.*``."""
    clocks = [(c.now, c.ticks) for c in rt._clock_of]
    metrics = {k: v for k, v in rt.cluster.metrics.snapshot().totals.items() if "rma." in k}
    return rt.counters.snapshot(), clocks, metrics


@pytest.mark.parametrize("trg", [-1, 8, 1.5])
@pytest.mark.parametrize("call", ["lock", "unlock", "flush"])
def test_a_sync_toward_no_rank_raises_before_anything_moves(call, trg):
    # parent: lock(-1) locked rank 7, flush(99) keyed epoch 99, lock(1.5) a bare TypeError
    with repro.launch(8) as job:
        job.allocate("w", 4)
        ctx, rt = job.contexts[0], job.runtime
        ctx.put(1, "w", 0, [1.0])
        ctx.lock(2)
        before = _sync_state(rt)
        with pytest.raises(SynchronizationError, match=rf"got {trg!r} \(origin rank 0\)"):
            getattr(ctx, call)(trg)
        assert _sync_state(rt) == before
        ctx.unlock(2)


def test_a_numpy_integer_sync_target_is_a_rank():
    with repro.launch(8) as job:
        job.allocate("w", 4)
        ctx, rt = job.contexts[0], job.runtime
        ctx.lock(np.int64(3))
        ctx.unlock(np.int32(3))
        ctx.flush(np.uint8(5))
        assert rt.counters.of(3).sc_local == 1 and rt.counters.of(0).gc == 1
        assert set(rt.counters.of(0).epoch_of_target) == {3, 5}
        assert all(type(trg) is int for trg in rt.counters.of(0).epoch_of_target)
