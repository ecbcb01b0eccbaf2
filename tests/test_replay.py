"""Localized replay: only the restoring ranks re-execute, survivors wait.

Two kernels pin the cursor's rules on ``sim`` and ``proc``: a halo exchange
whose neighbours' puts complete at a mid-step gsync the restoring rank's
update then reads (the walk must apply a survivor's put by the gsync that
completed it, and no earlier), and ranks overwriting one slot of rank 1
under its lock with ``REPLACE``, a survivor before rank 1 and, every other
step, one after it (the walk must apply a survivor's overwrite in the order
the log completed it, around the restoring rank's own; rank 1 folds each
step's last value into a running sum).  Every kill offset must finish
bit-identical to the failure-free run.

A third kernel reads its right neighbour, folds the value into its own slot
in place and puts the result to its left neighbour with ``put_nb``, which
completes at the step-closing gsync.  A kill inside that gsync finds every
kernel finished: only the failed rank re-runs the step (a survivor would fold
twice), and the survivors' puts still in flight complete at the re-joined
gsync.  Time-scheduled failures strike that gsync's barrier too, after every
kernel finished: the halo and overwrite kernels must stay bit-identical at any
failure time, and when a second failure interrupts a replay.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.api.session import SessionObserver
from repro.backends.proc import proc_available
from repro.ft.inject import KillEvent, KillPlan, install_injector
from repro.rma import AccumulateOp

pytestmark = pytest.mark.usefixtures("proc_hygiene")

BACKENDS = ["sim", pytest.param("proc", marks=pytest.mark.skipif(
    not proc_available(), reason="proc backend needs fork + POSIX shared memory"
))]

N = 4  # interior cells per rank


def _halo(ctx, step):
    u = ctx.win("u")
    mine = u.local
    if ctx.rank > 0:
        u.put_nb(ctx.rank - 1, N + 1, mine[1:2])
    if ctx.rank < ctx.nranks - 1:
        u.put_nb(ctx.rank + 1, 0, mine[N : N + 1])
    yield ctx.gsync()  # the halos land here; the update reads them
    mine[1 : N + 1] = mine[1 : N + 1] + 0.1 * (
        mine[0:N] - 2.0 * mine[1 : N + 1] + mine[2 : N + 2]
    )
    ctx.compute(4.0 * N)


def _overwrite(ctx, step):
    if ctx.rank < 2 or (ctx.rank == 2 and step % 2):
        ctx.lock(1)
        ctx.accumulate(1, "w", 0, [10.0 * step + ctx.rank], op=AccumulateOp.REPLACE)
        ctx.unlock(1)
    yield ctx.gsync()  # the step's overwrites are in
    if ctx.rank == 1:  # fold the last one into a running sum
        mine = ctx.win("w").local
        mine[1] = 3.0 * mine[1] + mine[0]


def _fold(ctx, step):
    w = ctx.win("w")
    x = ctx.get((ctx.rank + 1) % ctx.nranks, "w", 0, 1)[0]
    w.local[1] = 0.5 * w.local[1] + x  # read-modify-write: not idempotent
    w.put_nb((ctx.rank - 1) % ctx.nranks, 0, w.local[1:2])  # lands at the closing gsync
    ctx.compute(8.0)


def _setup_halo(job):
    job.allocate("u", N + 2)
    for ctx in job.contexts:
        ctx.local("u")[1 : N + 1] = np.sin(np.arange(N) + N * ctx.rank) + ctx.rank


def _setup_overwrite(job):
    job.allocate("w", 2)


def _setup_fold(job):
    job.allocate("w", 2)
    for ctx in job.contexts:
        ctx.local("w")[:] = [ctx.rank + 1.0, 0.25 * ctx.rank]


SPECS = {
    # name: (kernel, setup, window, steps, completions per step, victim)
    "halo": (_halo, _setup_halo, "u", 8, 2 * (4 - 1), 2),
    # The victim owns the slot: a survivor's crash-step local store would be
    # made twice, outside the replay contract.
    "overwrite": (_overwrite, _setup_overwrite, "w", 10, 2, 1),
    # Four blocking gets, then four puts completed by the closing gsync.
    "fold": (_fold, _setup_fold, "w", 10, 2 * 4, 0),
}
#: The kernels every kill offset is checked on: a kill inside ``fold``'s
#: kernels makes a survivor that had finished the crash step fold twice.
KERNELS = ["halo", "overwrite"]


class _Calls(SessionObserver):
    """Every kernel call as ``(step, rank)``, and where recovery resumed."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, int]] = []
        self.failed_at: list[int] = []
        #: Per failure: whether it struck the step-closing sync.
        self.in_closing_sync: list[bool] = []
        #: Per failure: ``None`` outside a replay, else whether the replay was
        #: still in its fully-completed steps (not yet in the crash step).
        self.in_replay: list[bool | None] = []
        #: ``(step, number of calls made before)`` per completed recovery.
        self.resumed_at: list[tuple[int, int]] = []
        self.job = None

    def on_failure_detected(self, rank, step, t):
        self.failed_at.append(step)
        self.in_closing_sync.append(self.job.ft.log.in_closing_sync)
        runtime = self.job.runtime
        self.in_replay.append(runtime.replay_running is not None if runtime.replaying else None)

    def on_recovery_completed(self, step, t):
        self.resumed_at.append((step, len(self.calls)))


def _run(name, *, backend="sim", recovery=None, kill=None, calls=None, failures=None):
    kernel, setup, window, steps, _, _ = SPECS[name]
    ft = repro.FaultTolerancePolicy(interval=4, recovery=recovery) if recovery else None
    with repro.launch(4, ft=ft, backend=backend, failures=failures) as job:
        setup(job)
        if kill is not None:
            install_injector(job, KillPlan.single(**kill))
        if calls is not None:
            calls.job = job
            job.add_observer(calls)

            def counted(ctx, step, kernel=kernel):
                calls.calls.append((step, ctx.rank))
                return kernel(ctx, step)

            kernel = counted
        report = job.run(kernel, steps=steps)
        digest = hashlib.sha256(job.gather(window).tobytes()).hexdigest()
    return digest, report


_reference = {}


def _reference_digest(name):
    if name not in _reference:
        _reference[name] = _run(name)[0]
    return _reference[name]


def _offsets(name):
    """Kill offsets from the second step to the second-to-last."""
    _, _, _, steps, per_step, _ = SPECS[name]
    return range(per_step + 1, (steps - 1) * per_step, 2)


def _closing_offsets():
    """Kills of ``fold`` among its puts' completions: inside a closing gsync."""
    per_step = SPECS["fold"][4]
    return [per_step * step + k for step in (2, 5) for k in range(5, 9)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_localized_replay_is_bit_identical_at_every_kill_offset(name, backend):
    victim = SPECS[name][5]
    for after_ops in _offsets(name):
        digest, report = _run(
            name, backend=backend, recovery="localized",
            kill=dict(rank=victim, after_ops=after_ops),
        )
        assert report.localized_recoveries == 1, after_ops
        assert digest == _reference_digest(name), f"kill after {after_ops} completions"


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_survivors_run_no_kernel_during_the_fully_completed_steps(name):
    victim, checked = SPECS[name][5], 0
    for after_ops in _offsets(name):
        calls = _Calls()
        _run(name, recovery="localized", kill=dict(rank=victim, after_ops=after_ops),
             calls=calls)
        (crash_step,), ((resumed, before),) = calls.failed_at, calls.resumed_at
        # Kernel calls after the recovery, per rank, before the crash step.
        replayed = calls.calls[before:]
        per_rank = {r: sum(1 for s, rank in replayed if rank == r and s < crash_step)
                    for r in range(4)}
        assert per_rank == {r: (crash_step - resumed) * (r == victim) for r in range(4)}
        # The crash step itself runs every rank.
        assert {rank for s, rank in replayed if s == crash_step} == {0, 1, 2, 3}
        checked += crash_step > resumed
    assert checked  # some kill really left fully-completed steps to replay


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_localized_and_global_agree_and_localized_moves_fewer_bytes(name):
    kill = dict(rank=SPECS[name][5], after_ops=SPECS[name][4] * 6 + 1)
    local_digest, local = _run(name, recovery="localized", kill=kill)
    global_digest, rolled = _run(name, recovery="global", kill=kill)
    assert local_digest == global_digest == _reference_digest(name)
    restored = [r.metrics.total("ft.restored_bytes") for r in (local, rolled)]
    assert 0 < restored[0] < restored[1]
    assert local.elapsed <= rolled.elapsed


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_kill_in_the_closing_gsync_reruns_the_step_on_the_failed_rank_only(backend):
    for victim in range(4):
        for after_ops in _closing_offsets():
            calls = _Calls()
            digest, report = _run(
                "fold", backend=backend, recovery="localized",
                kill=dict(rank=victim, after_ops=after_ops), calls=calls,
            )
            where = f"rank {victim} killed after {after_ops} completions"
            assert calls.in_closing_sync == [True], where
            assert report.localized_recoveries == 1, where
            assert digest == _reference_digest("fold"), where
            (crash_step,), ((_, before),) = calls.failed_at, calls.resumed_at
            assert {rank for s, rank in calls.calls[before:] if s <= crash_step} == {victim}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_failure_at_any_time_replays_bit_identical(name):
    # A time-scheduled failure also strikes inside the step-closing gsync's
    # barrier, after every kernel (the halo update included) has finished.
    failure_free, closing = _run(name)[1].elapsed, 0
    for rank in range(4):
        for when in np.linspace(0.2, 0.9, 15) * failure_free:
            calls = _Calls()
            digest, report = _run(
                name, recovery="localized", calls=calls,
                failures=KillPlan([KillEvent(time=float(when), rank=rank)]),
            )
            assert digest == _reference_digest(name), (rank, when)
            closing += calls.in_closing_sync == [True]
    assert closing


def test_a_second_failure_inside_a_replay_restores_the_replay_s_ranks_afresh():
    # Rank 0 fails at one of two times, rank 1 at one of 25 later ones: some
    # strike while rank 0 re-runs the fully-completed steps, some in the crash
    # step.  Rank 0 restores afresh with rank 1 each time.
    failure_free = _run("overwrite")[1].elapsed
    where = []
    for first in (0.5 * failure_free, 0.55 * failure_free):
        for second in np.linspace(first + 0.002 * failure_free, first + 0.25 * failure_free, 25):
            calls = _Calls()
            digest, report = _run(
                "overwrite", recovery="localized", calls=calls,
                failures=KillPlan([
                    KillEvent(time=float(first), rank=0), KillEvent(time=float(second), rank=1)
                ]),
            )
            assert digest == _reference_digest("overwrite"), (first, second)
            assert report.recoveries == len(calls.failed_at), (first, second)
            where += calls.in_replay[1:]
    assert True in where and False in where  # full steps, crash step
