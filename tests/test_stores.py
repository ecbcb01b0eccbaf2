"""Checkpoint store strategies: registry, memory/disk/parity placement, eviction."""

import hashlib

import numpy as np
import pytest

import repro
from repro.errors import (
    CatastrophicFailure,
    CheckpointError,
    PolicyError,
    ProcessFailedError,
)
from repro.ft import (
    CoordinatedCheckpointer,
    DiskStore,
    GlobalRollback,
    KillPlan,
    MemoryStore,
    ParityStore,
    build_ft_stack,
    make_store,
)
from repro.rma import RmaInterceptor, RmaRuntime
from repro.simulator import Cluster


def _runtime(nprocs=8, procs_per_node=2):
    return RmaRuntime(Cluster.simple(nprocs, procs_per_node=procs_per_node))


def _stack(runtime, **kwargs):
    return build_ft_stack(runtime, **kwargs)


# ---------------------------------------------------------------------------
# Registry resolution — unknown names fail loudly, listing the choices
# ---------------------------------------------------------------------------


def test_make_store_resolves_names_and_instances():
    assert isinstance(make_store(None), MemoryStore)
    assert isinstance(make_store("memory"), MemoryStore)
    assert isinstance(make_store("disk"), DiskStore)
    assert isinstance(make_store("parity"), ParityStore)
    custom = MemoryStore(keep_versions=5)
    assert make_store(custom) is custom
    assert make_store(custom).keep_versions == 5  # instance config wins
    assert make_store("memory", keep_versions=3).keep_versions == 3


def test_make_store_unknown_name_lists_choices():
    with pytest.raises(CheckpointError, match=r"'disk'.*'memory'.*'parity'"):
        make_store("tape")
    with pytest.raises(CheckpointError, match="tape"):
        make_store("tape")


def test_policy_rejects_unknown_store_and_recovery_listing_choices():
    with pytest.raises(PolicyError, match=r"'disk'.*'memory'.*'parity'"):
        repro.FaultTolerancePolicy(store="tape")
    with pytest.raises(PolicyError, match=r"'degraded'.*'global'.*'localized'"):
        repro.FaultTolerancePolicy(recovery="optimistic")
    # Instances pass validation.
    repro.FaultTolerancePolicy(store=MemoryStore(), recovery=GlobalRollback())


def test_launch_rejects_unknown_backend_listing_choices():
    with pytest.raises(PolicyError, match=r"'sim'.*'vector'"):
        repro.launch(4, backend="warp-drive")


def test_default_store_has_one_name():
    assert "InMemoryCheckpointStore" not in repro.ft.__all__
    store = make_store(None, keep_versions=1)
    assert type(store) is MemoryStore and store.keep_versions == 1


# ---------------------------------------------------------------------------
# DiskStore — spill survives node loss (rank + buddy together)
# ---------------------------------------------------------------------------


def test_disk_store_round_trip_and_eviction(tmp_path):
    runtime = _runtime()
    store = DiskStore(keep_versions=2, directory=tmp_path / "ckpt")
    stack = _stack(runtime, store=store)
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 10.0 + rank
    for tag in range(3):
        stack.checkpointer.checkpoint(tag=tag)
    assert len(store) == 2 and [v.tag for v in store.versions] == [1, 2]
    # Evicted version's files are gone; retained versions are loadable.
    files = sorted(p.name for p in (tmp_path / "ckpt").iterdir())
    assert files and all(name.startswith(("v1_", "v2_")) for name in files)
    payload = store.fetch(store.latest(), 3)
    assert payload.source == "disk"
    assert np.array_equal(payload.windows["w"], np.full(4, 13.0))
    # Disk copies hold no job memory.
    assert store.nbytes() == 0


def test_disk_store_survives_rank_and_buddy_loss():
    # Losing a rank together with its buddy is the in-memory scheme's
    # catastrophic case; the disk spill recovers it.
    runtime = _runtime()
    stack = _stack(runtime, store="disk")
    recovery = stack.recovery
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 10.0 + rank
    stack.checkpointer.checkpoint(tag=0)
    runtime.cluster.fail_rank(0)
    runtime.cluster.fail_rank(1)
    runtime.observe_failures()
    outcome = recovery.recover()
    assert outcome.tag == 0
    for rank in range(8):
        assert np.array_equal(runtime.local(rank, "w"), np.full(4, 10.0 + rank))
    stack.uninstall(runtime)


def test_disk_store_close_removes_owned_scratch_directory():
    runtime = _runtime()
    stack = _stack(runtime, store="disk")
    store = stack.store
    runtime.win_allocate("w", 4)
    stack.checkpointer.checkpoint(tag=0)
    directory = store.directory
    assert directory is not None and directory.exists()
    stack.uninstall(runtime)  # closes the store
    assert not directory.exists()
    store.close()  # idempotent


def test_disk_store_scratch_removed_even_after_failed_restore():
    # Corrupting the spill makes the restore raise mid-recovery; teardown
    # must still remove the owned scratch directory (no tmpdir leak).
    runtime = _runtime()
    stack = _stack(runtime, store="disk")
    store = stack.store
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = float(rank)
    stack.checkpointer.checkpoint(tag=0)
    directory = store.directory
    assert directory is not None and directory.exists()
    for path in directory.glob("v*_r0_*.npy"):
        path.write_bytes(b"not a numpy file")
    runtime.cluster.fail_rank(0)
    runtime.cluster.fail_rank(1)  # buddy too: only the disk spill remains
    runtime.observe_failures()
    with pytest.raises(Exception):
        stack.recovery.recover()
    stack.uninstall(runtime)
    assert not directory.exists()


# ---------------------------------------------------------------------------
# ParityStore — 1 + 1/k overhead, XOR reconstruction, group-loss limits
# ---------------------------------------------------------------------------


def test_parity_store_reconstructs_failed_rank_bit_exact():
    runtime = _runtime()
    stack = _stack(runtime, store="parity")
    runtime.win_allocate("w", 16)
    rng = np.random.default_rng(3)
    expected = {}
    for rank in range(8):
        data = rng.normal(size=16)
        runtime.local(rank, "w")[:] = data
        expected[rank] = data.copy()
    stack.checkpointer.checkpoint(tag=0)
    victim = 2
    runtime.cluster.fail_rank(victim)
    runtime.observe_failures()  # drops the victim's local copy + its chunks
    version = stack.store.latest()
    assert version.lost == {victim} and not version.holds(victim)
    assert stack.store.available(version, victim)
    payload = stack.store.fetch(version, victim)
    assert payload.source == "parity" and payload.peers
    assert np.array_equal(payload.windows["w"], expected[victim])
    # Survivors still fetch locally.
    assert stack.store.fetch(version, 0).source == "local"


def test_parity_store_uses_less_memory_than_buddy_copies():
    results = {}
    for name in ("memory", "parity"):
        runtime = _runtime()
        stack = _stack(runtime, store=name, keep_versions=1)
        runtime.win_allocate("w", 64)
        stack.checkpointer.checkpoint(tag=0)
        results[name] = stack.store.nbytes()
    window_bytes = 8 * 64 * 8  # nprocs * elems * float64
    assert results["memory"] == 2 * window_bytes
    # Groups of 4 -> one quarter of a stripe per rank on top of the local copy.
    assert results["parity"] == window_bytes + window_bytes // 4
    assert results["parity"] < results["memory"]


def test_parity_store_two_failures_in_one_group_are_unrecoverable():
    runtime = _runtime()
    stack = _stack(runtime, store="parity")
    runtime.win_allocate("w", 4)
    stack.checkpointer.checkpoint(tag=0)
    store = stack.store
    group = store.groups[0]
    for victim in group[:2]:
        runtime.cluster.fail_rank(victim)
    runtime.observe_failures()
    assert not store.available(store.latest(), group[0])
    with pytest.raises(CatastrophicFailure):
        stack.recovery.recover()


@pytest.mark.parametrize("store", ["memory", "parity", "disk", "multilevel"])
def test_an_excised_rank_is_served_by_no_store(store):
    """A rank a degraded continuation excised before a checkpoint has no copy in
    it.  ``parity`` once answered otherwise: it reported the rank available and
    served all-zero windows labelled ``"parity"`` — the XOR of a stripe the rank
    never entered with its members' shares."""
    runtime = _runtime()
    stack = _stack(runtime, store=store, recovery="degraded")
    runtime.win_allocate("w", 4)
    for rank in range(8):
        runtime.local(rank, "w")[:] = 1.0 + rank
    stack.checkpointer.checkpoint(tag=0)
    runtime.cluster.fail_rank(2)
    runtime.observe_failures()
    assert stack.recovery.recover().kind == "degraded"
    version = stack.checkpointer.checkpoint(tag=1)
    assert not stack.store.available(version, 2)
    assert stack.store.fetch(version, 2) is None
    assert all(stack.store.available(version, rank) for rank in range(8) if rank != 2)
    stack.uninstall(runtime)


def test_parity_store_needs_enough_groups():
    # 2 ranks on 1 node: no t-aware grouping possible at node level.
    runtime = RmaRuntime(Cluster.simple(2, procs_per_node=2))
    checkpointer = CoordinatedCheckpointer(store="parity")
    with pytest.raises(CheckpointError, match="memory"):
        runtime.add_interceptor(checkpointer)


# ---------------------------------------------------------------------------
# Version eviction under demand checkpoints (keep_versions=1)
# ---------------------------------------------------------------------------


def test_recovery_after_oldest_version_evicted_by_demand_checkpoint():
    # keep_versions=1: every demand checkpoint evicts the previous version.
    # Recovery must restore the *surviving* (newest) version, not the
    # evicted one, and the log must have been truncated at its commit.
    runtime = _runtime()
    stack = _stack(runtime, keep_versions=1, demand_threshold_bytes=64)
    runtime.win_allocate("w", 16)
    stack.checkpointer.checkpoint(tag="initial")
    for rank in range(8):
        runtime.local(rank, "w")[:] = 1.0
    for _ in range(2):  # 2 x 4 elems x 8 bytes = 64 bytes logged at rank 0
        runtime.put(0, 1, "w", 0, np.full(4, 2.0))
    version = stack.checkpointer.maybe_checkpoint(tag="demand")
    assert version is not None and version.tag == "demand"
    assert len(stack.store) == 1  # the initial version was evicted
    assert stack.store.latest().tag == "demand"
    assert stack.log.max_logged_bytes() == 0
    runtime.cluster.fail_rank(5)
    with pytest.raises(ProcessFailedError):
        runtime.put(4, 5, "w", 0, [0.0])
    outcome = stack.recovery.recover()
    assert outcome.tag == "demand"
    # The restored state is the demand checkpoint's, not the initial zeros.
    state = np.array(runtime.local(5, "w"))
    assert np.array_equal(state, np.full(16, 1.0))
    assert np.array_equal(runtime.local(1, "w")[:4], np.full(4, 2.0))


def test_memory_store_keep_versions_validation():
    with pytest.raises(CheckpointError):
        MemoryStore(keep_versions=0)


def test_store_instance_cannot_be_reused_across_jobs():
    # Same contract as Backend.bind: a store holds one job's checkpoints.
    store = MemoryStore()
    runtime = _runtime()
    _stack(runtime, store=store)
    other = _runtime()
    with pytest.raises(CheckpointError, match="fresh instance"):
        _stack(other, store=store)
    # A policy carrying a store *instance* fails loudly on its second launch
    # instead of leaking the first job's versions into the second.
    policy = repro.FaultTolerancePolicy(interval=5, store=MemoryStore())
    with repro.launch(4, ft=policy):
        pass
    with pytest.raises(CheckpointError, match="fresh instance"):
        repro.launch(4, ft=policy)


def test_closed_disk_store_refuses_rebinding():
    runtime = _runtime()
    store = DiskStore()
    stack = _stack(runtime, store=store)
    runtime.win_allocate("w", 4)
    stack.checkpointer.checkpoint(tag=0)
    stack.uninstall(runtime)  # closes the store, scratch dir removed
    with pytest.raises(CheckpointError, match="closed"):
        store.bind(_runtime())


# ---------------------------------------------------------------------------
# Stores are interchangeable under the session API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("store", ["memory", "disk", "parity"])
def test_session_recovers_with_every_store(store):
    from heat_stencil_ft import run_stencil

    baseline = run_stencil(nprocs=8, n_local=8, iters=20, ckpt_interval=5, store=store)
    schedule = KillPlan.single(3, time=baseline.elapsed * 0.5)
    recovered = run_stencil(
        nprocs=8, n_local=8, iters=20, ckpt_interval=5, store=store,
        failures=schedule,
    )
    assert recovered.recoveries == 1
    assert np.array_equal(baseline.field, recovered.field)


# ---------------------------------------------------------------------------
# The placement funnel, pinned where it lives: every charge, byte and event
# ---------------------------------------------------------------------------
#: ``(store, local stores every other step) -> (sha256 of the on_checkpoint_stored
#: events (store, level, rank, nbytes, incremental) of checkpoints 4-11, their
#: number, per-rank byte counters over the run, every clock's (now, protocol,
#: waiting, ticks))`` of :func:`_accounting`, recorded before placements charged
#: clocks through ``CheckpointStore._account`` and compared bit for bit.
ACCOUNTING = {
    ("memory", False): (
        "1d3188e3831fa27e0b0489c4f39f96aaa7dd2a0ce55c96b4d939ce443e36b03c",
        128,
        {
            "ft.checkpoint_bytes": [
                12870912, 12870912, 12870912, 12870912,
                12870912, 12870912, 12870912, 12870912,
            ],
        },
        [
            (0.0018963110200881977, 0.0016249667705535895, 0.0002044581145286567, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.0002273356005668648, 62),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.001624973476076127, 0.0002044290572643283, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.0016249801815986639, 0.0002044000000000006, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
        ],
    ),
    ("memory", True): (
        "1d3188e3831fa27e0b0489c4f39f96aaa7dd2a0ce55c96b4d939ce443e36b03c",
        128,
        {
            "ft.checkpoint_bytes": [
                12870912, 12870912, 12870912, 12870912,
                12870912, 12870912, 12870912, 12870912,
            ],
        },
        [
            (0.0018963110200881977, 0.0016249667705535895, 0.0002044581145286567, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.0002273356005668648, 62),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.001624973476076127, 0.0002044290572643283, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
            (0.0018963110200881977, 0.0016249801815986639, 0.0002044000000000006, 86),
            (0.0018963110200881977, 0.001622548889160157, 0.00022733560056686474, 62),
        ],
    ),
    ("multilevel", False): (
        "9896cdde216f06e39778c6dc826f63e7a0470347ba728cf0f4a3ebe02d62fc8d",
        176,
        {
            "ft.checkpoint_bytes": [
                13954752, 13955984, 13954752, 13955456,
                13954752, 13954752, 13955720, 13954752,
            ],
            "ft.multilevel_moved_bytes": [
                1083840, 1085072, 1083840, 1084544,
                1083840, 1083840, 1084808, 1083840,
            ],
            "ft.multilevel_full_bytes": [
                5899168, 5899168, 5899168, 5899168,
                5899168, 5899168, 5899168, 5899168,
            ],
        },
        [
            (0.010194534100548417, 0.009922864757347112, 0.0002047832081953581, 97),
            (0.010194534100548417, 0.00992077196962039, 0.0002273356005668559, 73),
            (0.010194534100548417, 0.009920446875953677, 0.00022766069423356682, 73),
            (0.010194534100548417, 0.009923057230679195, 0.00020456838312148514, 97),
            (0.010194534100548417, 0.009920446875953677, 0.00022766069423356682, 73),
            (0.010194534100548417, 0.009920446875953677, 0.00022766069423356682, 73),
            (0.010194534100548417, 0.009923133599130317, 0.00020446966292857424, 97),
            (0.010194534100548417, 0.009920446875953677, 0.00022766069423356682, 73),
        ],
    ),
    ("multilevel", True): (
        "f11bbd25c5bd6f001de15d7971445305fc30b8d1a36a38ff41126c4136dba8a5",
        176,
        {
            "ft.checkpoint_bytes": [
                13954752, 13956016, 13954752, 13955488,
                13954752, 13954768, 13955720, 13954768,
            ],
            "ft.multilevel_moved_bytes": [
                1083840, 1085104, 1083840, 1084576,
                1083840, 1083856, 1084808, 1083856,
            ],
            "ft.multilevel_full_bytes": [
                5899168, 5899168, 5899168, 5899168,
                5899168, 5899168, 5899168, 5899168,
            ],
        },
        [
            (0.01019454254453976, 0.009922864757347112, 0.00020479165218670106, 97),
            (0.01019454254453976, 0.009920780413611732, 0.0002273356005668559, 73),
            (0.01019454254453976, 0.009920446875953677, 0.00022766913822490977, 73),
            (0.01019454254453976, 0.009923065674670538, 0.00020456838312148514, 97),
            (0.01019454254453976, 0.009920446875953677, 0.00022766913822490977, 73),
            (0.01019454254453976, 0.009920451097949347, 0.0002276649162292383, 73),
            (0.01019454254453976, 0.009923133599130317, 0.0002044781069199172, 97),
            (0.01019454254453976, 0.009920451097949347, 0.0002276649162292383, 73),
        ],
    ),
}


class _Placements(RmaInterceptor):
    """Appends every ``on_checkpoint_stored`` event to a list."""

    def __init__(self, events: list) -> None:
        self.events = events

    def on_checkpoint_stored(self, *event) -> None:
        self.events.append(event)


def _accounting(store: str, local_stores: bool) -> tuple:
    """12 checkpoints of 8 ranks on ``vector``: each rank puts into its ring
    neighbour's slab and every third into a second window, then a gsync; with
    ``local_stores`` a store the log never sees lands every other step."""
    rt = RmaRuntime(Cluster.simple(8, procs_per_node=2), backend="vector")
    stack = _stack(rt, store=store)
    rt.win_allocate("w", 64 * 1024)
    rt.win_allocate("v", 3000, np.float32)
    for rank in range(8):
        rt.local(rank, "w")[:] = rank + 1.0
    events = []
    rt.add_interceptor(_Placements(events))
    for tag in range(12):
        for rank in range(8):
            rt.put_nb(rank, (rank + 1) % 8, "w", 64 * tag, np.arange(64.0) + rank)
            if rank % 3 == 0:
                rt.put_nb(rank, (rank + 3) % 8, "v", 40 * tag + rank, np.ones(8 + rank))
        rt.gsync()
        if local_stores and tag % 2:
            rt.local(tag % 8, "w")[3 * tag] = -1.0 - tag
        if tag == 4:
            del events[:]  # the steady state: every slab placed, every level seeded
        stack.checkpointer.checkpoint(tag=tag)
    per_rank = rt.cluster.metrics.snapshot().per_rank
    names = ("ft.checkpoint_bytes", "ft.multilevel_moved_bytes", "ft.multilevel_full_bytes")
    counters = {n: [int(per_rank[n][r]) for r in range(8)] for n in names if n in per_rank}
    clocks = [(c.now, c.protocol, c.waiting, c.ticks) for c in map(rt.cluster.clock, range(8))]
    stack.uninstall(rt)
    return hashlib.sha256(repr(events).encode()).hexdigest(), len(events), counters, clocks


@pytest.mark.parametrize("store, local_stores", list(ACCOUNTING))
def test_placements_charge_count_and_notify_exactly_as_recorded(store, local_stores):
    digest, events, counters, clocks = _accounting(store, local_stores)
    want_digest, want_events, want_counters, want_clocks = ACCOUNTING[store, local_stores]
    assert counters == want_counters
    assert clocks == want_clocks  # float equality: each clock's additions keep their order
    assert (digest, events) == (want_digest, want_events)
