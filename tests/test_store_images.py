"""The checkpoint data path: the slab chain never clobbers, its change-sets never miss.

Stores are handed the *live* windows and place every member's row on one chain
per window: a rank-major image equal to live as of the newest placement, plus the
values later placements overwrote.  Retained versions and level mirrors are
handles on placements.  The property held here: whatever a store still serves
— every retained version, every level mirror at its ``captured_version`` — is
byte-identical to a copy the test took of the windows when that version
committed; and the chain holds one image per slab plus only what a handle
still needs.
"""

import os
import signal

import numpy as np
import pytest

import repro
from repro.backends.proc import proc_available
from repro.errors import ProcessFailedError
from repro.ft import DiskStore, MemoryStore, ParityStore, build_ft_stack
from repro.ft.recovery import respawn_ranks, restore_rank
from repro.ft.stores import MultiLevelStore
from repro.rma import AccumulateOp, RmaRuntime
from repro.simulator import Cluster

LEVELS = (("parity", 2), ("disk", 3))
STORES = {
    "memory": lambda keep: MemoryStore(keep),
    "parity": lambda keep: ParityStore(keep),
    "disk": lambda keep: DiskStore(keep),
    "multilevel-memory": lambda keep: MultiLevelStore(keep, levels=LEVELS),
    # one upper level each: the memory copies plus only a parity or only a disk level
    "multilevel-parity": lambda keep: MultiLevelStore(keep, levels=LEVELS[:1]),
    "multilevel-disk": lambda keep: MultiLevelStore(keep, levels=LEVELS[1:]),
}
BACKENDS = [
    "sim",
    "vector",
    pytest.param(
        "proc",
        marks=pytest.mark.skipif(
            not proc_available(), reason="proc backend needs fork + POSIX shared memory"
        ),
    ),
]
# Cheap on sim/vector, and where it matters on proc: no orphan workers, no
# leaked shared memory, no leaked ``repro-ckpt-*`` scratch directories.
pytestmark = pytest.mark.usefixtures("proc_hygiene")
SIZE = 64  # elements per window: a change-set above SIZE / 8 trips the dense rule


def _odd_values(dtype, rng):
    """Values a value-wise compare gets wrong, or a narrow dtype wraps on."""
    if np.issubdtype(dtype, np.floating):
        quiet = np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(np.float64)[0]
        return [-0.0, 0.0, np.nan, dtype.type(quiet), np.inf, dtype.type(rng.normal())]
    info = np.iinfo(dtype)
    return [info.min, info.max, 0, -1, int(rng.integers(-100, 100))]


class _Harness:
    """A runtime with an FT stack, the oracle of every commit, and the check."""

    def __init__(self, store, dtype, backend, nprocs=None, recovery=None):
        self.nprocs = nprocs or (4 if backend == "proc" else 8)
        self.rt = RmaRuntime(
            Cluster.simple(self.nprocs, procs_per_node=1 if backend == "proc" else 2),
            backend=backend,
        )
        self.stack = build_ft_stack(self.rt, store=store, recovery=recovery)
        self.store = store
        self.dtype = np.dtype(dtype)
        self.windows = []
        self.oracle = {}  # version number -> (rank, window) -> bytes at its commit

    def allocate(self, name):
        self.rt.win_allocate(name, SIZE, dtype=self.dtype)
        self.windows.append(name)

    def checkpoint(self, tag):
        version = self.stack.checkpointer.checkpoint(tag=tag)
        self.oracle[version.version] = {  # read as the checkpoint does: no stamp moves
            (rank, name): self.rt.windows.get(name).buffers[rank].tobytes()
            for rank in range(self.nprocs)
            for name in self.windows
        }
        self.check()
        return version

    def check(self):
        """Everything the store still serves equals the oracle of its version."""
        store = self.store
        served = list(store.versions) + list(getattr(store, "archived", {}).values())
        assert served
        for version in served:
            for rank in range(self.nprocs):
                payload = store.fetch(version, rank)
                if payload is None:
                    continue  # both copies lost with a failed rank: nothing served
                for name, data in payload.windows.items():
                    assert data.dtype == self.dtype
                    assert data.tobytes() == self.oracle[version.version][rank, name], (
                        f"v{version.version} rank {rank} window {name!r} "
                        f"served from {payload.source}"
                    )
        for lvl in getattr(store, "levels", ()):
            if lvl.captured_version not in self.oracle:
                continue  # captured by an aborted attempt: serves no version until the retry
            for rank, mirrors in lvl.mirrors.items():
                for name, mirror in mirrors.items():
                    want = self.oracle[lvl.captured_version][rank, name]
                    assert np.asarray(mirror).tobytes() == want, (lvl.kind, rank, name)
        self.check_stripes()

    def check_stripes(self):
        """Eq. 6 from real bytes: each parity group's stripe, XORed with all
        members but one, is that member's committed bytes; and the stripe's
        chunks whose holders still hold are what ``nbytes`` counts beyond
        the placements still held."""
        store = self.store
        if not isinstance(store, ParityStore):
            return
        k, held = len(store.groups[0]), 0
        for version in store.versions:
            for rank, windows in version.local.items():
                if version.holds(rank):
                    held += sum(np.asarray(h).nbytes for h in windows.values())
            for gidx, group in enumerate(store.groups):
                members = [m for m in group if m in version.local]
                holders = store._holders(gidx)
                for name in version.local[members[0]] if members else ():
                    shares = [np.asarray(version.local[m][name]) for m in members]
                    shares = [share.view(np.uint8) for share in shares]
                    stripe = np.bitwise_xor.reduce(shares)
                    for i, member in enumerate(members):
                        others = shares[:i] + shares[i + 1 :]
                        rebuilt = np.bitwise_xor.reduce([stripe, *others])
                        want = self.oracle[version.version][member, name]
                        assert rebuilt.tobytes() == want, (version.version, member, name)
                    chunks = np.array_split(stripe, k)
                    held += sum(c.nbytes for c, h in zip(chunks, holders) if version.holds(h))
        assert store.nbytes() == held

    def mutate(self, rng, *, dense_rank=None):
        """One step of seeded traffic: puts, accumulates and local-view stores."""
        rt, n, dtype = self.rt, self.nprocs, self.dtype
        for name in self.windows:
            for _ in range(3):
                src, trg = rng.choice(n, size=2, replace=False)
                count = int(rng.integers(1, 5))
                offset = int(rng.integers(0, SIZE - count))
                data = rng.integers(-50, 50, size=count).astype(dtype)
                if rng.random() < 0.5:
                    rt.put(int(src), int(trg), name, offset, data)
                else:
                    rt.accumulate(int(src), int(trg), name, offset, data, AccumulateOp.SUM)
            for _ in range(4):  # stores the completion stream never sees
                rank, at = int(rng.integers(n)), int(rng.integers(SIZE))
                odd = _odd_values(dtype, rng)
                rt.local(rank, name)[at] = odd[int(rng.integers(len(odd)))]
        if dense_rank is not None:
            image = rng.integers(-1000, 1000, size=SIZE).astype(dtype)
            rt.local(dense_rank, self.windows[0])[:] = image

    def kill(self, rank):
        rt = self.rt
        if rt.backend.name == "proc":
            os.kill(rt.backend.worker_pid(rank), signal.SIGKILL)
            assert rt.backend.wait_dead(rank)
        else:
            rt.cluster.fail_rank(rank)
        with pytest.raises(ProcessFailedError):
            rt.put((rank + 1) % self.nprocs, rank, self.windows[0], 0, [1])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("keep", [1, 2, 3])
@pytest.mark.parametrize("dtype", ["float64", "float32", "int64", "int16"])
@pytest.mark.parametrize("kind", list(STORES))
def test_served_images_equal_the_oracle_of_their_version(kind, dtype, keep, backend):
    rng = np.random.default_rng([keep, len(kind), np.dtype(dtype).itemsize])
    harness = _Harness(STORES[kind](keep), dtype, backend)
    rt, ckpt = harness.rt, harness.stack.checkpointer
    try:
        harness.allocate("w")
        for rank in range(harness.nprocs):
            rt.local(rank, "w")[:] = rng.integers(-9, 9, size=SIZE).astype(dtype)
        for step in range(14):
            if step == 4:
                harness.allocate("late")  # a window allocated mid-run
            harness.mutate(rng, dense_rank=step % harness.nprocs if step % 5 == 3 else None)
            if step in (2, 9):  # write, checkpoint, revert: changed twice, equal again
                kept = rt.local(1, "w")[7].copy()
                rt.local(1, "w")[7] = 77
                harness.checkpoint(("pre-revert", step))
                rt.local(1, "w")[7] = kept
            if step == 6:  # a failure between the barriers aborts; the retry commits
                real, calls = rt.cluster.barrier, []

                def barrier(real=real, calls=calls):
                    calls.append(None)
                    if len(calls) == 2:
                        raise ProcessFailedError(0, "injected between the barriers")
                    return real()

                rt.cluster.barrier = barrier
                try:
                    with pytest.raises(ProcessFailedError):
                        ckpt.checkpoint(tag="aborted")
                finally:
                    del rt.cluster.barrier
                harness.check()  # an uncommitted attempt clobbered nothing
                harness.mutate(rng)
            harness.checkpoint(step)
            if step == 10:  # lose a rank: its copies are dropped, the rest still serve
                harness.kill(2)
                harness.check()
                outcome = harness.stack.recovery.recover()
                rolled = harness.oracle[max(harness.oracle)]
                assert outcome.tag == 10
                for (rank, name), want in rolled.items():
                    assert rt.local(rank, name).tobytes() == want
                harness.check()
        assert len(harness.store.versions) == keep
    finally:
        harness.stack.uninstall(rt)
        rt.finalize()


@pytest.mark.parametrize("kind", ["memory", "parity", "multilevel-memory"])
def test_64_rank_rows_serve_the_oracle_through_excision_respawn_and_local_stores(kind):
    """The rows 8-rank runs never reach: 64 ranks on ``sim``, one rank excised by
    a degraded continuation, one killed and respawned (its own windows restored),
    a window allocated after the first checkpoint and local-view stores on odd
    steps, which make those rows untrusted.  Every version and level mirror
    still serves exactly the bytes of its commit."""
    rng = np.random.default_rng(64)
    harness = _Harness(STORES[kind](2), "float64", "sim", nprocs=64, recovery="degraded")
    rt, store = harness.rt, harness.store
    try:
        harness.allocate("w")
        for rank in range(harness.nprocs):
            rt.local(rank, "w")[:] = rng.integers(-9, 9, size=SIZE)
        for step in range(10):
            if step == 2:
                harness.allocate("late")
            members = [r for r in range(harness.nprocs) if r not in rt.excised]
            for name in harness.windows:
                for _ in range(12):
                    src, trg = (int(r) for r in rng.choice(members, size=2, replace=False))
                    count = int(rng.integers(1, 6))
                    offset = int(rng.integers(0, SIZE - count))
                    rt.put(src, trg, name, offset, rng.normal(size=count))
                for rank in rng.choice(members, size=4 * (step % 2), replace=False):
                    rt.local(int(rank), name)[int(rng.integers(SIZE))] = rng.normal()
            harness.checkpoint(step)
            if step == 3:  # a degraded continuation excises rank 17
                harness.kill(17)
                assert harness.stack.recovery.recover().kind == "degraded"
                assert 17 in rt.excised
                harness.check()
            if step == 6:  # rank 42 dies and comes back with only its own windows
                harness.kill(42)
                harness.check()
                version = store.latest_usable([42])
                respawn_ranks(rt, [42])
                restore_rank(rt, store, version, 42)
                for name in harness.windows:
                    want = harness.oracle[version.version][42, name]
                    assert rt.local(42, name).tobytes() == want
        assert not any(store.available(v, 17) for v in store.versions)
    finally:
        harness.stack.uninstall(rt)


# ---------------------------------------------------------------------------
# The level mirrors are bit-exact (a value-wise compare is not)
# ---------------------------------------------------------------------------


def _multilevel_job(step_of_store, value, steps=8):
    store = MultiLevelStore()
    policy = repro.FaultTolerancePolicy(interval=1, store=store)
    job = repro.launch(4, ft=policy)
    job.allocate("w", 8)

    def kernel(ctx, step):
        if step == step_of_store:
            ctx.local("w")[3] = value

    report = job.run(kernel, steps=steps)
    return job, store, report


def test_negative_zero_reaches_every_level_mirror():
    # -0.0 == 0.0 by value: the store of step 2 used to be invisible to the
    # capture diff, so a restore served from a mirror lost the sign bit.
    job, store, _ = _multilevel_job(2, -0.0)
    try:
        assert all(np.signbit(job.local(rank, "w")[3]) for rank in range(4))
        for lvl in store.levels:
            assert lvl.captures > 1
            for rank in range(4):
                assert np.signbit(np.asarray(lvl.mirrors[rank]["w"])[3]), (lvl.kind, rank)
        # Rank 0 and its buddy lost together: the mirror is what restores.
        version = store.latest()
        store.drop_rank(0)
        store.drop_rank(store.buddies[0])
        payload = store.fetch(version, 0)
        assert payload.source.startswith("multilevel-")
        assert payload.windows["w"].tobytes() == job.local(0, "w").tobytes()
    finally:
        job.close()


def test_nan_cell_is_shipped_once_not_at_every_capture():
    # NaN != NaN by value: the cell used to be re-shipped and re-priced at
    # every later capture although nothing changed.
    job, store, report = _multilevel_job(2, np.nan)
    try:
        quiet, _, plain = _multilevel_job(99, 0.0)
        quiet.close()
        moved = report.metrics.total("ft.multilevel_moved_bytes")
        baseline = plain.metrics.total("ft.multilevel_moved_bytes")
        # One 8-byte cell per rank, once per level — not once per capture.
        assert moved - baseline == 4 * 8 * len(store.levels)
        for lvl in store.levels:
            assert all(np.isnan(np.asarray(lvl.mirrors[rank]["w"])[3]) for rank in range(4))
    finally:
        job.close()


def test_complex_windows_checkpoint_through_the_byte_row_compare():
    # 16-byte elements have no same-width unsigned view.
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=1))
    store = MultiLevelStore(levels=(("parity", 1),))
    stack = build_ft_stack(rt, store=store)
    rt.win_allocate("z", 16, dtype=np.complex128)
    for tag in range(4):
        rt.local(tag, "z")[tag] = complex(-0.0, tag)
        stack.checkpointer.checkpoint(tag=tag)
        for rank in range(4):
            assert store.fetch(store.latest(), rank).windows["z"].tobytes() == (
                rt.local(rank, "z").tobytes()
            )
            mirror = np.asarray(store.levels[0].mirrors[rank]["z"])
            assert mirror.tobytes() == rt.local(rank, "z").tobytes()
    stack.uninstall(rt)


# ---------------------------------------------------------------------------
# Host memory: one image per slab, plus what later placements overwrote
# ---------------------------------------------------------------------------


def _holdings(store):
    """Per ``(rank, window)`` row of the store's chains: (row-sized arrays, elements
    of index records that fall in the row)."""
    for chain in store._chains.values():
        records = list(chain.undo.values())
        for row in range(chain.image.shape[0]):
            bounds = (row * chain.size, (row + 1) * chain.size)
            yield (
                1 + sum(row in whole for _, _, whole in records),
                sum(np.diff(changed.searchsorted(bounds))[0] for changed, _, _ in records),
            )


def test_trusted_put_only_slab_holds_one_image_plus_the_referenced_change_sets():
    nprocs, size, put = 8, 64 * 1024, 64  # ckpt_multilevel's shape: 512 KiB windows
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2))
    store = MultiLevelStore()
    stack = build_ft_stack(rt, store=store)
    rt.win_allocate("w", size)
    for rank in range(nprocs):
        rt.local(rank, "w")[:] = rank + 1.0
    for step in range(12):
        for rank in range(nprocs):
            rt.put(rank, (rank + 1) % nprocs, "w", step * put, np.full(put, step + 0.5))
        stack.checkpointer.checkpoint(tag=step)
        holdings = list(_holdings(store))
        assert len(holdings) == nprocs
        for arrays, elements in holdings:
            assert arrays == 1, f"step {step}: a slab holds {arrays} images"
            assert elements <= (store.keep_versions + 4) * put, f"step {step}: {elements}"
        for lvl in store.levels:
            held = [h for mirrors in lvl.mirrors.values() for h in mirrors.values()]
            assert len(held) == nprocs and not any(isinstance(h, np.ndarray) for h in held)
        # The modelled machine still holds two copies per version plus a mirror per level.
        want = (2 * len(store.versions) + len(store.levels)) * nprocs * size * 8
        assert store.nbytes() == want
    stack.uninstall(rt)


def test_partly_dense_window_keeps_whole_rows_only_for_its_dense_ranks():
    # 10 of 64 ranks rewrite their row through a local view every step — more
    # than 1/8 of the window's rows — while every rank's row takes one sparse
    # put.  Only the rewritten rows keep whole previous rows; the others keep
    # the referenced change-sets, as in a put-only window.
    nprocs, size, put = 64, 4096, 16
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2))
    store = MultiLevelStore()
    stack = build_ft_stack(rt, store=store)
    rt.win_allocate("w", size)
    dense = set(range(0, nprocs, 7))
    for step in range(12):
        for rank in range(nprocs):
            rt.put(rank, (rank + 1) % nprocs, "w", step * put, np.full(put, step + 0.5))
        for rank in dense:
            mine = rt.local(rank, "w")
            mine[:] = mine * 0.5 + step
        stack.checkpointer.checkpoint(tag=step)
        for row, (arrays, elements) in enumerate(_holdings(store)):
            if row in dense:
                assert arrays <= store.keep_versions + 1 + len(store.levels), (step, row)
                assert elements <= (store.keep_versions + 4) * put, (step, row, elements)
            else:
                assert arrays == 1, f"step {step}: sparse row {row} holds {arrays} rows"
                assert elements <= (store.keep_versions + 4) * put, (step, row, elements)
    stack.uninstall(rt)


@pytest.mark.parametrize(
    "levels",
    [None, (("parity", 3), ("disk", 10)), (("parity", 3),), (("disk", 3),)],
    ids=["2-4", "3-10", "parity-3", "disk-3"],
)
@pytest.mark.parametrize("keep", [1, 2, 3])
def test_dense_stencil_slab_holds_no_more_than_a_ring_plus_mirrors(keep, levels):
    store = MultiLevelStore(keep, levels=levels)
    harness = _Harness(store, "float64", "sim")
    try:
        harness.allocate("w")
        for step in range(24):
            for rank in range(harness.nprocs):  # the whole window, through a local view
                mine = harness.rt.local(rank, "w")
                mine[:] = np.roll(mine, 1) * 0.5 + step + rank
            harness.checkpoint(step)  # every version and mirror served still checks
            for arrays, _ in _holdings(store):
                assert arrays <= keep + 1 + len(store.levels), f"step {step}: {arrays}"
    finally:
        harness.stack.uninstall(harness.rt)
