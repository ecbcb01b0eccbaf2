"""Eq. (1)'s stamps, pinned: the (EC, GC, SC, GNC) every issued action carries.

Canonical traces carry no counters and ``ReplayCursor`` matches actions
without them, so these literals are what holds the counters' bookkeeping —
which sync closes which epoch, and whether its stamp is taken before or after
— to one exact sequence, across a coordinated rollback and a localized replay.
"""

import pytest

import repro
from repro.backends.proc import proc_available
from repro.ft import build_ft_stack
from repro.rma import RmaRuntime, SyncAction
from repro.simulator import Cluster, FailureSchedule

BACKENDS = ["sim"] + (["proc"] if proc_available() else [])

#: Mid step 4 (0-based): rank 2 dies while rank 0 holds its lock.
KILL_AT = 1.15e-4

#: ``"KIND src>trg EC,GC,SC,GNC"`` per issued action, ``*`` for "every target":
#: the failure-free steps 0-3 and step 4 up to the kill ...
PREFIX = (
    "PUT 0>1 0,0,0,0", "FLUSH 0>1 0,1,0,0", "PUT 0>2 0,1,0,0", "FLUSH_ALL 0>* 0,2,0,0",
    "LOCK 0>2 1,2,1,0", "FETCH_AND_OP 0>2 1,2,1,0", "UNLOCK 0>2 1,2,1,0",
    "LOCK 1>0 0,0,1,0", "FETCH_AND_OP 1>0 0,0,1,0", "UNLOCK 1>0 0,0,1,0", "PUT 1>3 0,0,0,0",
    "FLUSH 1>3 0,1,0,0", "GSYNC 0>* 0,2,0,1", "GSYNC 1>* 0,1,0,1", "GSYNC 2>* 0,0,0,1",
    "GSYNC 3>* 0,0,0,1", "PUT 0>1 3,2,0,1", "FLUSH 0>1 3,3,0,1", "PUT 0>2 3,3,1,1",
    "FLUSH_ALL 0>* 0,4,0,1", "LOCK 0>2 4,4,2,1", "FETCH_AND_OP 0>2 4,4,2,1",
    "UNLOCK 0>2 4,4,2,1", "LOCK 1>0 2,1,2,1", "FETCH_AND_OP 1>0 2,1,2,1",
    "UNLOCK 1>0 2,1,2,1", "PUT 1>3 2,1,0,1", "FLUSH 1>3 2,2,0,1", "GSYNC 0>* 0,4,0,2",
    "GSYNC 1>* 0,2,0,2", "GSYNC 2>* 0,0,0,2", "GSYNC 3>* 0,0,0,2", "PUT 0>1 6,4,0,2",
    "FLUSH 0>1 6,5,0,2", "PUT 0>2 6,5,2,2", "FLUSH_ALL 0>* 0,6,0,2", "LOCK 0>2 7,6,3,2",
    "FETCH_AND_OP 0>2 7,6,3,2", "UNLOCK 0>2 7,6,3,2", "LOCK 1>0 4,2,3,2",
    "FETCH_AND_OP 1>0 4,2,3,2", "UNLOCK 1>0 4,2,3,2", "PUT 1>3 4,2,0,2",
    "FLUSH 1>3 4,3,0,2", "GSYNC 0>* 0,6,0,3", "GSYNC 1>* 0,3,0,3", "GSYNC 2>* 0,0,0,3",
    "GSYNC 3>* 0,0,0,3", "PUT 0>1 9,6,0,3", "FLUSH 0>1 9,7,0,3", "PUT 0>2 9,7,3,3",
    "FLUSH_ALL 0>* 0,8,0,3", "LOCK 0>2 10,8,4,3", "FETCH_AND_OP 0>2 10,8,4,3",
    "UNLOCK 0>2 10,8,4,3", "LOCK 1>0 6,3,4,3", "FETCH_AND_OP 1>0 6,3,4,3",
    "UNLOCK 1>0 6,3,4,3", "PUT 1>3 6,3,0,3", "FLUSH 1>3 6,4,0,3", "GSYNC 0>* 0,8,0,4",
    "GSYNC 1>* 0,4,0,4", "GSYNC 2>* 0,0,0,4", "GSYNC 3>* 0,0,0,4", "PUT 0>1 12,8,0,4",
    "FLUSH 0>1 12,9,0,4", "PUT 0>2 12,9,4,4", "FLUSH_ALL 0>* 0,10,0,4",
    "LOCK 0>2 13,10,5,4", "FETCH_AND_OP 0>2 13,10,5,4",
)
#: ... then steps 4-5 again, after a coordinated rollback to step 4's checkpoint ...
GLOBAL = (
    "PUT 0>1 12,8,0,4", "FLUSH 0>1 12,9,0,4", "PUT 0>2 12,9,4,4", "FLUSH_ALL 0>* 0,10,0,4",
    "LOCK 0>2 13,10,5,4", "FETCH_AND_OP 0>2 13,10,5,4", "UNLOCK 0>2 13,10,5,4",
    "LOCK 1>0 8,4,5,4", "FETCH_AND_OP 1>0 8,4,5,4", "UNLOCK 1>0 8,4,5,4", "PUT 1>3 8,4,0,4",
    "FLUSH 1>3 8,5,0,4", "GSYNC 0>* 0,10,0,5", "GSYNC 1>* 0,5,0,5", "GSYNC 2>* 0,0,0,5",
    "GSYNC 3>* 0,0,0,5", "PUT 0>1 15,10,0,5", "FLUSH 0>1 15,11,0,5", "PUT 0>2 15,11,5,5",
    "FLUSH_ALL 0>* 0,12,0,5", "LOCK 0>2 16,12,6,5", "FETCH_AND_OP 0>2 16,12,6,5",
    "UNLOCK 0>2 16,12,6,5", "LOCK 1>0 10,5,6,5", "FETCH_AND_OP 1>0 10,5,6,5",
    "UNLOCK 1>0 10,5,6,5", "PUT 1>3 10,5,0,5", "FLUSH 1>3 10,6,0,5", "GSYNC 0>* 0,12,0,6",
    "GSYNC 1>* 0,6,0,6", "GSYNC 2>* 0,0,0,6", "GSYNC 3>* 0,0,0,6",
)
#: ... or after a localized replay: rank 2 restarts from its checkpointed record; the
#: survivors' records stay at the crash point until the re-execution reaches it
#: (rank 0's syncs up to its fetch-and-op move nothing), from where every stamp is
#: the coordinated rollback's.
LOCALIZED = (
    "PUT 0>1 14,10,0,4", "FLUSH 0>1 14,10,0,4", "PUT 0>2 13,10,5,4",
    "FLUSH_ALL 0>* 0,10,0,4", "LOCK 0>2 13,10,5,4", "FETCH_AND_OP 0>2 13,10,5,4",
    "UNLOCK 0>2 13,10,5,4", "LOCK 1>0 8,4,5,4", "FETCH_AND_OP 1>0 8,4,5,4",
    "UNLOCK 1>0 8,4,5,4", "PUT 1>3 8,4,0,4", "FLUSH 1>3 8,5,0,4", "GSYNC 0>* 0,10,0,5",
    "GSYNC 1>* 0,5,0,5", "GSYNC 2>* 0,0,0,5", "GSYNC 3>* 0,0,0,5", "PUT 0>1 15,10,0,5",
    "FLUSH 0>1 15,11,0,5", "PUT 0>2 15,11,5,5", "FLUSH_ALL 0>* 0,12,0,5",
    "LOCK 0>2 16,12,6,5", "FETCH_AND_OP 0>2 16,12,6,5", "UNLOCK 0>2 16,12,6,5",
    "LOCK 1>0 10,5,6,5", "FETCH_AND_OP 1>0 10,5,6,5", "UNLOCK 1>0 10,5,6,5",
    "PUT 1>3 10,5,0,5", "FLUSH 1>3 10,6,0,5", "GSYNC 0>* 0,12,0,6", "GSYNC 1>* 0,6,0,6",
    "GSYNC 2>* 0,0,0,6", "GSYNC 3>* 0,0,0,6",
)


def _kernel(ctx, step):
    w, rank = ctx.win("w"), ctx.rank
    if rank == 0:
        w.put_nb(1, 0, [float(step)])
        ctx.flush(1)
        w.put_nb(2, 1, [1.0])
        ctx.flush_all()
        ctx.lock(2)
        ctx.fetch_and_op(2, "w", 2, 1.0)
        ctx.unlock(2)
    elif rank == 1:
        ctx.lock(0)
        ctx.fetch_and_op(0, "w", 3, 1.0)
        ctx.unlock(0)
        w.put_nb(3, 0, [2.0])
        ctx.flush(3)
    yield ctx.gsync()
    ctx.compute(1000.0)


def _stamps(monkeypatch, recovery, backend):
    """Run :func:`_kernel` for six steps with one kill; every issued action's stamp.

    Every record the runtime issues is made by ``_new_object`` (a communication
    action, a lock, an unlock) or by ``SyncAction.issued`` (the other syncs) and
    stamped once, right there: the records are kept in issue order, without
    forcing any call off its path, and their stamps read after the run.
    """
    seen = []

    def note(action):
        seen.append(action)
        return action

    issued = SyncAction.issued.__func__
    monkeypatch.setattr("repro.rma.runtime._new_object", lambda cls: note(object.__new__(cls)))
    monkeypatch.setattr(
        SyncAction, "issued", classmethod(lambda cls, *a: note(issued(cls, *a)))
    )
    with repro.launch(
        4, ft=repro.FaultTolerancePolicy(interval=2, recovery=recovery),
        failures=FailureSchedule.single_rank(2, KILL_AT), sync_each_step=False,
        backend=backend,
    ) as job:
        job.allocate("w", 4)
        assert job.run(_kernel, steps=6).recoveries == 1
    return [
        f"{action.kind.name} {action.src}>{'*' if action.trg is None else action.trg} "
        + ",".join(map(str, action.counters))
        for action in seen
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("recovery, tail", [("global", GLOBAL), ("localized", LOCALIZED)])
def test_every_stamp_of_a_killed_run_is_pinned(monkeypatch, recovery, tail, backend):
    assert _stamps(monkeypatch, recovery, backend) == list(PREFIX + tail)


def test_past_the_crash_point_a_localized_replay_stamps_as_the_rollback():
    """From rank 0's unlock on — the first sync past the crash point — every
    stamp of the localized run is the coordinated rollback's."""
    resumed = LOCALIZED.index("UNLOCK 0>2 13,10,5,4") + 1
    assert LOCALIZED[resumed:] == GLOBAL[GLOBAL.index("LOCK 1>0 8,4,5,4"):]


def test_a_dropped_unlock_stamps_the_epoch_it_closes():
    """Toward a suspended rank the unlock drops, but its stamp is the delivered
    one's: the epoch it closes (EC 0), not the one it opens."""
    stamps = []
    for kill in (False, True):
        rt = RmaRuntime(Cluster.simple(4, procs_per_node=2))
        rt.win_allocate("w", 4)
        build_ft_stack(rt, recovery="best_effort")
        rt.lock(0, 2)
        rt.put_nb(0, 2, "w", 0, [1.0])
        if kill:
            rt.cluster.fail_rank(2)
            rt.observe_failures()
        stamps.append(rt.unlock(0, 2).counters)
        assert rt.counters.of(0).epoch_of_target[2] == 1
    assert stamps[0] == stamps[1] and stamps[1].ec == 0
