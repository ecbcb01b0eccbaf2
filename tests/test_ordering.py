"""The happened-before helpers of ``OrderRecorder`` (§2.3, Definition 1).

``build_hb_graph`` / ``happens_before`` / ``concurrent_hb`` /
``checkpoint_is_rma_consistent`` on small recorded programs: po along one
rank, so through a lock chain on one ``(target, structure)``, the global
order of a gsync generation, and one consistent plus one inconsistent
checkpoint marker set.
"""

import pytest

from repro.rma import OrderRecorder, RmaRuntime, SyncAction, SyncKind
from repro.simulator import Cluster


@pytest.fixture
def recorder():
    return OrderRecorder()


@pytest.fixture
def runtime(recorder):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    rt.add_interceptor(recorder)
    rt.win_allocate("w", 8)
    return rt


def test_program_order_is_hb_along_one_rank_and_never_backwards(runtime, recorder):
    first = runtime.put(0, 1, "w", 0, [1.0])
    flush = runtime.flush(0, 1)
    last = runtime.put(0, 2, "w", 0, [2.0])
    hb = recorder.happens_before
    assert hb(first, flush) and hb(flush, last)
    assert hb(first, last)  # transitive
    assert not hb(last, first) and not hb(flush, first)
    assert not recorder.concurrent_hb(first, last)


def test_lock_chain_orders_ranks_on_one_target_structure(runtime, recorder):
    before = runtime.put(0, 3, "w", 0, [1.0])
    runtime.lock(0, 2, "s")
    inside = runtime.put(0, 2, "w", 0, [1.0])
    release = runtime.unlock(0, 2, "s")
    acquire = runtime.lock(1, 2, "s")
    after = runtime.put(1, 2, "w", 1, [2.0])
    runtime.unlock(1, 2, "s")
    hb = recorder.happens_before
    assert hb(release, acquire)  # so
    assert hb(before, after) and hb(inside, after)  # po ; so ; po
    assert not hb(after, before) and not hb(acquire, release)
    assert not recorder.concurrent_hb(inside, after)


def test_locks_on_different_structures_or_targets_do_not_synchronize(runtime, recorder):
    runtime.lock(0, 2, "a")
    left = runtime.put(0, 2, "w", 0, [1.0])
    runtime.unlock(0, 2, "a")
    runtime.lock(1, 2, "b")  # same target, other structure
    right = runtime.put(1, 2, "w", 1, [2.0])
    runtime.unlock(1, 2, "b")
    runtime.lock(3, 1, "a")  # same structure name, other target
    other = runtime.put(3, 1, "w", 0, [3.0])
    runtime.unlock(3, 1, "a")
    for a, b in ((left, right), (left, other), (right, other)):
        assert not recorder.happens_before(a, b) and not recorder.happens_before(b, a)
        assert recorder.concurrent_hb(a, b)


def test_gsync_generation_orders_everything_before_it_before_everything_after(
    runtime, recorder
):
    pre = [runtime.put(r, (r + 1) % 4, "w", 0, [float(r)]) for r in range(4)]
    syncs = runtime.gsync()
    post = [runtime.put(r, (r + 2) % 4, "w", 1, [float(r)]) for r in range(4)]
    for a in pre:
        for b in post:
            assert recorder.happens_before(a, b)
            assert not recorder.happens_before(b, a)
    # Members of one generation are mutually ordered (the collective hub).
    assert recorder.happens_before(syncs[0], syncs[3])
    assert recorder.happens_before(syncs[3], syncs[0])
    # Two pre-gsync puts of different ranks stay unordered.
    assert recorder.concurrent_hb(pre[0], pre[1])


def test_two_ranks_without_synchronization_are_concurrent(runtime, recorder):
    a = runtime.put(0, 1, "w", 0, [1.0])
    b = runtime.put(2, 3, "w", 0, [2.0])
    runtime.flush(0, 1)
    runtime.flush(2, 3)
    assert recorder.concurrent_hb(a, b) and recorder.concurrent_hb(b, a)
    assert not recorder.happens_before(a, b) and not recorder.happens_before(b, a)


def test_event_absent_from_the_recorder_is_neither_ordered_nor_not_concurrent(
    runtime, recorder
):
    recorded = runtime.put(0, 1, "w", 0, [1.0])
    stranger = SyncAction.issued(SyncKind.FLUSH, 0, 1, (0, 0, 0, 0))
    assert not recorder.happens_before(recorded, stranger)
    assert not recorder.happens_before(stranger, recorded)
    assert recorder.concurrent_hb(recorded, stranger)


def test_hb_graph_has_one_node_per_event_and_po_so_gsync_successors():
    rec = OrderRecorder()

    def sync(kind, src, trg=None, structure=None, gnc=0):
        action = SyncAction.issued(kind, src, trg, (0, 0, 0, gnc), structure)
        rec.record(action)
        return action

    l0 = sync(SyncKind.LOCK, 0, 1, "s")
    u0 = sync(SyncKind.UNLOCK, 0, 1, "s")
    l2 = sync(SyncKind.LOCK, 2, 1, "s")
    g0 = sync(SyncKind.GSYNC, 0, gnc=1)
    g2 = sync(SyncKind.GSYNC, 2, gnc=1)
    graph = rec.build_hb_graph()
    assert set(graph) == {e.seq for e in rec.events} and len(graph) == 5
    assert set(graph[l0.seq]) == {u0.seq}  # po and so coincide
    assert set(graph[u0.seq]) == {l2.seq, g0.seq}  # so to the next locker, po to gsync
    assert set(graph[l2.seq]) == {g2.seq}
    assert set(graph[g0.seq]) == {g2.seq} and set(graph[g2.seq]) == {g0.seq}


def test_checkpoint_markers_rma_consistency_per_definition_1(runtime, recorder):
    runtime.put(0, 1, "w", 0, [1.0])
    first = runtime.gsync()
    runtime.put(1, 2, "w", 0, [2.0])
    second = runtime.gsync()
    # One generation's gsync actions: mutually hb, same GNC — consistent.
    assert recorder.checkpoint_is_rma_consistent(first)
    assert recorder.checkpoint_is_rma_consistent(second)
    # Rank 0 checkpointing at generation 1 and rank 1 at generation 2: the
    # first marker is cohb-before the second — not a consistent cut.
    assert not recorder.checkpoint_is_rma_consistent([first[0], second[1]])
    assert not recorder.checkpoint_is_rma_consistent([second[1], first[0]])
    assert not recorder.checkpoint_is_rma_consistent([*first[:3], second[3]])
    # Unordered markers (no sync between the two ranks) are consistent even
    # though nothing relates them; so is the empty and the singleton set.
    a = runtime.lock(0, 1, "x")
    b = runtime.lock(2, 3, "y")
    assert recorder.checkpoint_is_rma_consistent([a, b])
    assert recorder.checkpoint_is_rma_consistent([])
    assert recorder.checkpoint_is_rma_consistent([a])
