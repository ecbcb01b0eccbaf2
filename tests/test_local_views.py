"""Local views have a lifetime, and the checkpoint stores rely on it.

A view handed out by ``ctx.local`` / ``w.local`` / ``Job.local`` /
``RmaRuntime.local`` is writable until the next job-step boundary, checkpoint
or buffer swap; afterwards a store through it raises.  Every hand-out (and
every write outside the completion stream) moves the window's raw-access stamp,
so a store takes the put log as a slab's whole change-set exactly while the
stamp stands still — and compares bytes once whenever it moved, a failure was
observed, or no log observes.  ``tests/conftest.py`` asserts byte equality with
live after every placement of the whole suite; the cases here pin *which* path
produced the bytes.
"""

import os
import signal

import numpy as np
import pytest

import repro
from repro.backends.proc import proc_available
from repro.errors import ProcessFailedError, WindowError
from repro.ft import build_ft_stack, stores
from repro.rma import RmaRuntime
from repro.simulator import Cluster

needs_proc = pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
)
BACKENDS = ["sim", "vector", pytest.param("proc", marks=needs_proc)]
STORES = ["memory", "parity", "multilevel"]
pytestmark = pytest.mark.usefixtures("proc_hygiene")
NPROCS, SIZE = 4, 64
READ_ONLY = "read-only"


@pytest.fixture
def compares(monkeypatch):
    """Positional-argument counts of every ``_differ`` call: 2 is a whole-slab
    compare of ``_retain``, 3 a level mirror's backstop."""
    calls, real = [], stores._differ
    monkeypatch.setattr(
        stores, "_differ", lambda *args: calls.append(len(args)) or real(*args)
    )
    return calls


class _Stack:
    """A raw runtime with an FT stack over one window, and the byte check."""

    def __init__(self, store, backend, **options):
        self.rt = RmaRuntime(Cluster.simple(NPROCS, procs_per_node=1), backend=backend)
        self.stack = build_ft_stack(self.rt, store=store, **options)
        self.rt.win_allocate("w", SIZE)
        for rank in range(NPROCS):
            self.rt.local(rank, "w")[:] = np.arange(SIZE) + 100.0 * rank
        self.tag = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stack.uninstall(self.rt)
        self.rt.finalize()

    def live(self, rank):
        return self.rt.window("w").read(rank, 0, SIZE).tobytes()  # leaves no stamp

    def puts(self):
        """One logged put into every rank, at an offset that moves per call."""
        self.tag += 1
        for rank in range(NPROCS):
            payload = np.array([self.tag, -0.0, np.nan]) * (rank + 1)
            self.rt.put(rank, (rank + 1) % NPROCS, "w", (5 * self.tag) % (SIZE - 3), payload)

    def checkpoint(self):
        """Checkpoint; everything the store serves for it equals live."""
        store = self.stack.store
        version = self.stack.checkpointer.checkpoint(tag=self.tag)
        for rank in range(NPROCS):
            assert store.fetch(version, rank).windows["w"].tobytes() == self.live(rank)
        for lvl in getattr(store, "levels", ()):
            if lvl.captured_version == version.version:
                for rank in range(NPROCS):
                    mirror = np.asarray(lvl.mirrors[rank]["w"])
                    assert mirror.tobytes() == self.live(rank), lvl.kind
        return version

    def kill(self, rank):
        rt = self.rt
        if rt.backend.name == "proc":
            os.kill(rt.backend.worker_pid(rank), signal.SIGKILL)
            assert rt.backend.wait_dead(rank)
        else:
            rt.cluster.fail_rank(rank)
        with pytest.raises(ProcessFailedError):
            rt.put((rank + 1) % NPROCS, rank, "w", 0, [1.0])


# ---------------------------------------------------------------------------
# The lifetime
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ft", [None, "memory"])
def test_view_kept_across_a_step_boundary_is_read_only_and_reacquiring_works(ft, backend):
    policy = repro.FaultTolerancePolicy(interval=1, store=ft) if ft else None
    kept, raised = {}, []

    def kernel(ctx, step):
        if step == 0:
            kept[ctx.rank] = ctx.local("w")
            kept[ctx.rank][0] = 10.0 + ctx.rank
        else:
            assert kept[ctx.rank][0] == 10.0 + ctx.rank  # still reads
            with pytest.raises(ValueError, match=READ_ONLY):
                kept[ctx.rank][1] = -1.0
            raised.append(ctx.rank)
            ctx.win("w").local[1] = 20.0 + ctx.rank  # a fresh view is writable

    with repro.launch(NPROCS, ft=policy, backend=backend) as job:
        job.allocate("w", 8)
        job.run(kernel, steps=2)
        assert raised == list(range(NPROCS))
        for rank in range(NPROCS):
            assert list(job.local(rank, "w")[:2]) == [10.0 + rank, 20.0 + rank]


@pytest.mark.parametrize("backend", BACKENDS)
def test_view_kept_across_a_direct_checkpoint_is_read_only(backend):
    with _Stack("memory", backend) as s:
        view = s.rt.local(1, "w")
        part = s.rt.local(2, "w")
        view[0] = part[0] = -0.0
        s.checkpoint()
        assert np.signbit(view[0]) and np.signbit(part[0])  # both still read
        for stale in (view, part):
            with pytest.raises(ValueError, match=READ_ONLY):
                stale[0] = 1.0
        s.rt.local(1, "w")[0] = 2.0
        s.checkpoint()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_settled_hand_out_behaves_as_the_checked_one(backend, compares, monkeypatch):
    """On a settled job ``w.local`` hands the row out without the liveness and
    range checks, and as the checked path does: the stamp moves once per view, the
    step boundary seals the view, and the next checkpoint compares the row (and
    only it)."""
    checked, real = [], RmaRuntime._require_alive
    monkeypatch.setattr(
        RmaRuntime, "_require_alive", lambda *a, **k: checked.append(a) or real(*a, **k)
    )
    kept, moved = [], []

    def kernel(ctx, step):
        ctx.put((ctx.rank + 1) % ctx.nranks, "w", 8 + step, [float(step)])
        if ctx.rank != 1:
            return
        window = ctx._runtime.window("w")
        if step == 1:
            before = window.stamps[1]
            kept.extend((ctx.win("w").local, ctx.win("w").local))
            moved.append(window.stamps[1] - before)
            kept[0][3] = 7.0
            assert np.shares_memory(kept[1], window.buffers[1]) and kept[1][3] == 7.0
        elif step == 2:
            for view in kept:
                with pytest.raises(ValueError, match=READ_ONLY):
                    view[3] = 8.0

    policy = repro.FaultTolerancePolicy(interval=1, store="memory")
    with repro.launch(NPROCS, ft=policy, backend=backend) as job:
        job.allocate("w", SIZE)
        job.run(kernel, steps=4)
        assert checked == [] and moved == [2]
        assert compares.count(2) == 1  # rank 1's row, at step 2's checkpoint
        version = job.ft.checkpointer.checkpoint(tag="final")
        image = job.ft.store.fetch(version, 1).windows["w"]
        assert image[3] == 7.0
        assert image.tobytes() == job.runtime.window("w").read(1, 0, SIZE).tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_unsettled_or_malformed_hand_out_takes_the_checked_path(backend):
    rt = RmaRuntime(Cluster.simple(NPROCS, procs_per_node=1), backend=backend)
    try:
        rt.win_allocate("w", 8)
        for rank, window in ((NPROCS, "w"), (-1, "w"), (0, "nowhere")):
            with pytest.raises(WindowError):
                rt.local(rank, window)
        rt.cluster.fail_rank(2)
        rt.observe_failures()
        with pytest.raises(ProcessFailedError):
            rt.local(2, "w")
        stamp = rt.window("w").stamps[1]
        rt.local(1, "w")[0] = 1.0  # a survivor's row, through the checks
        assert rt.window("w").stamps[1] == stamp + 1
    finally:
        rt.finalize()


@pytest.mark.parametrize("backend", BACKENDS)
def test_generator_kernel_view_survives_its_mid_step_gsync(backend):
    def kernel(ctx, step):
        mine = ctx.local("w")
        mine[0] = step
        ctx.put_nb((ctx.rank + 1) % ctx.nranks, "w", 2, [float(step)])
        yield ctx.gsync()
        mine[1] = mine[2] + 0.5  # same view, after the collective

    policy = repro.FaultTolerancePolicy(interval=1, store="multilevel")
    with repro.launch(NPROCS, ft=policy, backend=backend) as job:
        job.allocate("w", 8)
        job.run(kernel, steps=3)
        for rank in range(NPROCS):
            assert list(job.local(rank, "w")[:3]) == [2.0, 2.5, 2.0]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("swap", ["restore", "invalidate", "reallocate"])
def test_buffer_swap_seals_outstanding_views_on_every_backend(swap, backend):
    # sim/vector rebind the buffer (the old view wrote into a dead array), proc
    # fills in place (the same store landed in live memory): now all three raise.
    rt = RmaRuntime(Cluster.simple(NPROCS, procs_per_node=1), backend=backend)
    try:
        window = rt.win_allocate("w", 8)
        view, other = rt.local(1, "w"), rt.local(2, "w")
        view[0] = 3.0
        args = (1, np.full(8, 7.0)) if swap == "restore" else (1,)
        getattr(window, swap)(*args)
        with pytest.raises(ValueError, match=READ_ONLY):
            view[0] = 4.0
        other[0] = 5.0  # another rank's view is not this swap's business
        window.reallocate(1)
        assert rt.local(1, "w")[0] == 0.0 and rt.local(2, "w")[0] == 5.0
    finally:
        rt.finalize()


# ---------------------------------------------------------------------------
# The trust rule
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", STORES)
def test_put_only_interval_is_trusted(store, backend, compares):
    with _Stack(store, backend) as s:
        for _ in range(6):
            s.puts()
            s.checkpoint()
        assert compares == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize(
    "before, after",
    [(0.0, -0.0), (-0.0, 0.0), (np.nan, -np.nan), (-np.nan, np.nan)],
    ids=["-0.0", "+0.0", "-nan", "+nan"],
)
def test_mid_interval_local_store_is_caught_by_the_stamp(
    before, after, store, backend, compares
):
    def kernel(ctx, step):
        ctx.put((ctx.rank + 1) % ctx.nranks, "w", 8 + step, [float(step)])
        if step == 3 and ctx.rank == 1:
            ctx.local("w")[3] = after  # equal by value, or unequal to itself

    policy = repro.FaultTolerancePolicy(interval=1, store=store)
    with repro.launch(NPROCS, ft=policy, backend=backend) as job:
        job.allocate("w", SIZE)
        for rank in range(NPROCS):
            job.local(rank, "w")[3] = before
        job.run(kernel, steps=6)
        # One whole-slab compare in six checkpoints: rank 1's, right after step 3.
        assert compares.count(2) == 1
        version = job.ft.checkpointer.checkpoint(tag="final")
        for rank in range(NPROCS):
            image = job.ft.store.fetch(version, rank).windows["w"]
            assert image.tobytes() == job.runtime.window("w").read(rank, 0, SIZE).tobytes()
            assert np.signbit(image[3]) == np.signbit(after if rank == 1 else before)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("recovery", ["global", "localized"])
def test_failure_untrusts_every_slab_once_then_trust_returns(
    recovery, store, backend, compares
):
    with _Stack(store, backend, recovery=recovery) as s:
        for _ in range(3):
            s.puts()
            s.checkpoint()
        assert compares == []
        s.puts()  # post-checkpoint work the recovery rolls back or replays
        s.kill(2)
        s.stack.recovery.recover()
        s.tag -= 1
        s.puts()  # the deterministic re-execution: rolled-back work, or the replay's twin
        s.checkpoint()
        # Survivors of a localized recovery were never restored: their stamps
        # stand, and only the observed failure makes the store compare them.
        assert compares.count(2) == NPROCS
        del compares[:]
        for _ in range(4):  # covers a capture of every default level
            s.puts()
            s.checkpoint()
        assert compares == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", STORES)
def test_aborted_checkpoint_then_more_puts_stays_byte_exact(store, backend, compares):
    with _Stack(store, backend) as s:
        s.puts()
        s.checkpoint()
        s.puts()
        real, calls = s.rt.cluster.barrier, []

        def barrier():
            calls.append(None)
            if len(calls) == 2:
                raise ProcessFailedError(0, "injected between the barriers")
            return real()

        s.rt.cluster.barrier = barrier
        try:
            with pytest.raises(ProcessFailedError):
                s.stack.checkpointer.checkpoint(tag="aborted")
        finally:
            del s.rt.cluster.barrier
        # Placed, never committed, the log not truncated: the retry's spans
        # are a superset of what changed since the aborted placement.
        for _ in range(4):
            s.puts()
            s.checkpoint()
        assert compares == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("store", STORES)
def test_stack_without_an_action_log_never_trusts(store, backend, compares):
    with _Stack(store, backend) as s:
        s.rt.remove_interceptor(s.stack.log)  # the store now sees an unregistered log
        s.checkpoint()
        for done in range(1, 4):
            s.puts()
            s.checkpoint()
            assert compares.count(2) == done * NPROCS


@pytest.mark.parametrize("backend", BACKENDS)
def test_gather_moves_no_stamp_and_the_next_run_still_trusts_the_log(backend, compares):
    def kernel(ctx, step):
        ctx.put((ctx.rank + 1) % ctx.nranks, "w", step, [step + 0.5])

    policy = repro.FaultTolerancePolicy(interval=1, store="memory")
    with repro.launch(NPROCS, ft=policy, backend=backend) as job:
        job.allocate("w", SIZE)
        job.run(kernel, steps=2)
        window = job.runtime.window("w")
        stamps = list(window.stamps)
        whole, part = job.gather("w"), job.gather("w", slice(1, 3))
        assert window.stamps == stamps  # nothing was handed out
        rows = [window.read(rank, 0, SIZE) for rank in range(NPROCS)]
        assert whole.tobytes() == np.concatenate(rows).tobytes()
        assert part.tobytes() == np.concatenate([row[1:3] for row in rows]).tobytes()
        del compares[:]
        job.run(kernel, steps=2)
        assert compares.count(2) == 0  # a view hand-out would cost one compare per rank


def test_log_that_is_not_registered_on_the_runtime_is_not_trusted(compares):
    from repro.ft import ActionLog, CoordinatedCheckpointer

    rt = RmaRuntime(Cluster.simple(NPROCS, procs_per_node=1))
    checkpointer = CoordinatedCheckpointer(log=ActionLog())  # never add_interceptor'ed
    rt.add_interceptor(checkpointer)
    rt.win_allocate("w", SIZE)
    for tag in range(3):
        rt.put(0, 1, "w", tag, [tag + 1.0])
        version = checkpointer.checkpoint(tag=tag)
        assert np.asarray(version.local[1]["w"])[tag] == tag + 1.0
    assert compares.count(2) == 2 * NPROCS


# ---------------------------------------------------------------------------
# Shared-memory teardown
# ---------------------------------------------------------------------------
@needs_proc
def test_draining_parked_segments_is_reentrant():
    from repro.backends import proc

    windows = [proc.SharedWindow(name, 8, np.float64, 2) for name in "ab"]
    views = [window.local(0) for window in windows]
    parked_before = list(proc._deferred_closes)
    for window in windows:
        window.detach()  # seals, but the views the test holds still pin the mappings
    parked = [seg for seg in proc._deferred_closes if seg not in parked_before]
    assert len(parked) == 2
    proc._drain_deferred_closes()
    assert [seg for seg in proc._deferred_closes if seg in parked] == parked  # still pinned
    del views
    # A close that drains again (a finalizer running inside it) used to make
    # the outer drain remove a segment twice: ValueError out of a teardown.
    first_close = parked[0].close
    parked[0].close = lambda: (proc._drain_deferred_closes(), first_close())[1]
    proc._drain_deferred_closes()
    proc._drain_deferred_closes()
    assert not [seg for seg in proc._deferred_closes if seg in parked]
