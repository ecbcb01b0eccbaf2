"""The per-operation issue path: call budgets, disposition transitions, slots.

The budgets are exact and machine-independent: they count Python-level
``call`` events (``sys.setprofile``) per operation on a healthy job, so a
change that re-introduces per-op re-derivation of membership, op traits or
validation fails here long before it shows in a wall-clock benchmark.
"""

import dataclasses
import dis
import gc
import math
import os
import pickle
import socket
import sys
import threading
import tracemalloc
import types
from multiprocessing import connection
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

import repro
from repro import FaultTolerancePolicy
from repro.backends.base import Backend, apply_action
from repro.backends import proc
from repro.backends.proc import _HEADER, _OK, ProcBackend, _apply_batch, _ShmSlab
from repro.backends.sim import SimBackend
from repro.backends.vector import VectorBackend
from repro.errors import ProcessFailedError
from repro.ft.checkpoint import ActionLog
from repro.ft.inject import FaultInjector, KillPlan, install_injector
from repro.ft.stack import build_ft_stack
from repro.rma import InterceptorChain, RmaInterceptor, RmaRuntime
from repro.rma.actions import (
    AccumulateOp,
    ActionCategory,
    CommAction,
    Counters,
    OpKind,
    SyncAction,
    SyncKind,
    apply_accumulate,
)
from repro.rma.replay import ReplayCursor, replay_apply
from repro.rma.window import Window
from repro.simulator import Cluster
from repro.simulator.costs import cray_xe6_like
from repro.trace.tracer import Tracer, install_trace

BACKENDS = ["sim", "vector"]
OPS = 1000
needs_proc = pytest.mark.skipif(
    not repro.proc_available(), reason="proc backend needs fork + POSIX shared memory"
)


# ---------------------------------------------------------------------------
# (a) Call budgets
# ---------------------------------------------------------------------------
def _calls_per_op(op, *, watch=(), runs=OPS) -> tuple[float, int]:
    """Python-level calls per ``op()`` over ``runs`` runs, and how many of
    them entered one of the ``watch``-ed functions.  The cyclic collector is
    off meanwhile: finalizers of garbage earlier tests left would be counted."""
    watched = {fn.__code__ for fn in watch}
    calls = hits = 0

    def profiler(frame, event, arg):
        nonlocal calls, hits
        if event == "call":
            calls += 1
            hits += frame.f_code in watched

    previous, collecting = sys.getprofile(), gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        for _ in range(runs):
            op()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls / runs - 1, hits  # minus the ``op`` frame itself


@pytest.mark.parametrize(
    "ft, budget",
    [(None, 4), (FaultTolerancePolicy(interval=20, recovery="localized"), 4)],
    ids=["plain", "logged"],
)
def test_put_nb_call_budget_and_no_liveness_scans(ft, budget):
    data = np.arange(8.0)
    with repro.launch(8, ft=ft) as job:
        job.allocate("w", 64)
        w = job.contexts[0].win("w")
        per_op, scans = _calls_per_op(
            lambda: w.put_nb(1, 8, data),
            watch=(Cluster.is_alive, RmaRuntime.observe_failures),
        )
        assert job.runtime.pending_nb_ops(0) == OPS
        job.runtime.flush(0, 1)
    assert per_op <= budget, f"put_nb costs {per_op} Python calls/op (budget {budget})"
    assert scans == 0, "a healthy job must not scan membership between sync points"


def test_blocking_put_call_budget():
    data = np.arange(8.0)
    with repro.launch(8) as job:
        job.allocate("w", 64)
        ctx = job.contexts[0]
        ctx.put(1, "w", 8, data)  # the metrics' first-use entries are not per-op cost
        per_op, scans = _calls_per_op(
            lambda: ctx.put(1, "w", 8, data),
            watch=(Cluster.is_alive, RmaRuntime.observe_failures),
        )
    assert per_op <= 4, f"blocking put costs {per_op} Python calls/op (budget 4)"
    assert scans == 0


#: Python-level calls of the blocking, lock and compute path on a healthy job,
#: without and with the ``kv_locks`` FT policy (action log + checkpointer).
#: The triad went 59/75 (a blocking call through the pending queue, every hook
#: through a per-op loop) → 43/47 (completed at its call site, hooks resolved
#: at registration) → 22/23 measured (prices looked up, idle per-op hooks
#: skipped, clocks and counters bumped in place); ``lock``/``unlock`` 35/43 →
#: 23/23 → 12/12, ``get`` 23/30 → 18/21 → 9/10, ``put`` 21/29 → 16/20 → 6/7,
#: ``compute`` 8/8 → 3/3, and with the record built inline (no ``CommAction.issued``
#: frame) the triad 21/22, ``get`` 8/9, ``put`` 5/6.  With a blocking call applied by
#: the backend's single-action hook and announced and charged in ``_issue``'s frame
#: (no ``_apply``, ``_retire``, ``result``; a scalar atomic) and a ``lock``/``unlock``
#: that counts, stamps and charges in its own: the triad 8/9, ``lock``/``unlock``
#: 4/4, ``get`` 4/5, ``put`` 4/5.  Held at those measured counts; a ``lock``/``unlock``
#: that checks its target pays no call for it.  The triad fused into one runtime
#: call (``locked_fetch_and_op``): 4/5 — its two frames, the atomic's ``_issue`` and
#: ``apply_action``, plus the log's ``after_comm``.
BLOCKING_BUDGETS = {
    "lock/fetch_and_op/unlock": (8, 9),
    "locked_fetch_and_op": (4, 5),
    "lock/unlock": (4, 4),
    "get": (4, 5),
    "put": (4, 5),
    "compute": (3, 3),
}


@pytest.mark.parametrize(
    "ft", [None, FaultTolerancePolicy(interval=20, recovery="localized")],
    ids=["plain", "logged"],
)
@pytest.mark.parametrize("name", list(BLOCKING_BUDGETS))
def test_blocking_and_lock_call_budgets(name, ft):
    data = np.arange(8.0)
    with repro.launch(8, ft=ft) as job:
        job.allocate("w", 64)
        ctx = job.contexts[0]
        op = {
            "lock/fetch_and_op/unlock": lambda: (
                ctx.lock(1), ctx.fetch_and_op(1, "w", 0, 1.0), ctx.unlock(1)
            ),
            "locked_fetch_and_op": lambda: ctx.locked_fetch_and_op(1, "w", 0, 1.0),
            "lock/unlock": lambda: (ctx.lock(1), ctx.unlock(1)),
            "get": lambda: ctx.get(1, "w", 8, 8),
            "put": lambda: ctx.put(1, "w", 8, data),
            "compute": lambda: ctx.compute(100.0),
        }[name]
        op()  # the metrics' first-use entries are not per-op cost
        per_op, off_path = _calls_per_op(
            op,
            watch=(
                Cluster.is_alive, RmaRuntime.observe_failures, RmaRuntime._pre_action,
                RmaRuntime._complete_pair, Backend.issue, Backend.complete,
            ),
        )
        assert job.runtime.pending_nb_ops() == 0
    budget = BLOCKING_BUDGETS[name][ft is not None]
    assert per_op <= budget, f"{name} costs {per_op} Python calls (budget {budget})"
    # No membership scan, and a blocking call is applied and retired where it
    # is issued: it never enters the pending queue or a pair completion.
    assert off_path == 0


#: Python-level calls per rank of a ``gsync`` on a settled 64-rank job, with
#: ``queued`` puts per rank to complete: 9.4 / 10.4 when every rank re-derived
#: the membership, closed its epochs and built its stamp through a call; held at
#: the measured 283 / 347 calls in all since one pass bumps GNC and closes the
#: epochs (284 / 348 with a second pass, and call, for the epochs).
GSYNC_PER_RANK_BUDGETS = {0: 283 / 64, 4: 347 / 64}


@pytest.mark.parametrize("queued", list(GSYNC_PER_RANK_BUDGETS))
def test_settled_gsync_per_rank_call_budget(queued):
    data = np.arange(4.0)
    with repro.launch(64) as job:
        job.allocate("w", 16)
        rt = job.runtime

        def gsync():
            for rank in range(64):
                for k in range(queued):
                    rt.put_nb(rank, (rank + 1) % 64, "w", 4 * k, data)
            per_call, scans = _calls_per_op(
                rt.gsync, watch=(RmaRuntime._membership,), runs=1
            )
            return per_call / 64, scans

        gsync()  # the metrics' first-use entries are not per-rank cost
        per_rank, scans = gsync()
        assert rt.pending_nb_ops() == 0
    budget = GSYNC_PER_RANK_BUDGETS[queued]
    assert per_rank <= budget, f"gsync costs {per_rank} calls per rank (budget {budget})"
    assert scans == 2  # at entry and after the completion loop; none per rank (66 before)


#: The per-operation paths.  None reads an enum member through its class: on
#: Python 3.11 ``OpKind.PUT`` inside a function costs ≈ 5x a module global.
PER_OP_FUNCTIONS = [
    *(
        getattr(RmaRuntime, name)
        for name in (
            "put_nb", "get_nb", "accumulate_nb", "put", "get", "accumulate",
            "get_accumulate", "fetch_and_op", "compare_and_swap", "locked_fetch_and_op",
            "lock", "unlock",
            "flush", "flush_all", "gsync", "_issue", "_issue_sync", "_retire",
            "_complete_rank", "_complete_pair",
        )
    ),
    apply_action, apply_accumulate, replay_apply, SimBackend._apply,
    VectorBackend._apply, ProcBackend._apply, ProcBackend.apply_one, _apply_batch,
    ActionLog.after_comm,
]


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


@pytest.mark.parametrize("fn", PER_OP_FUNCTIONS, ids=lambda fn: fn.__qualname__)
def test_per_op_paths_read_enum_members_resolved_once(fn):
    # ``argval`` is the bare name on 3.11 and 3.12 alike (``argrepr`` is not).
    globals_read = _globals_read(fn)
    assert not globals_read & {"OpKind", "SyncKind", "AccumulateOp"}, globals_read


def _globals_read(fn) -> set[str]:
    return {
        instruction.argval
        for code in _code_objects(fn.__code__)
        for instruction in dis.get_instructions(code)
        if instruction.opname == "LOAD_GLOBAL"
    }


@pytest.mark.parametrize(
    "fn",
    [
        RmaRuntime._issue, RmaRuntime._stamp, RmaRuntime.lock, RmaRuntime.unlock,
        RmaRuntime.gsync,
    ],
    ids=lambda fn: fn.__name__,
)
def test_the_stamp_is_flat_no_counters_namedtuple_is_built(fn):
    assert "Counters" not in _globals_read(fn)


def test_a_queued_put_nb_allocates_one_tracked_object():
    """The record is the only container a queued ``put_nb`` leaves behind: its
    counters are slots and its payload bytes (no ``Counters``: 2.0 per put)."""
    data = np.arange(8.0)
    with repro.launch(8) as job:
        job.allocate("w", 64)
        w = job.contexts[0].win("w")
        w.put_nb(1, 8, data)  # the metrics' and queues' first-use entries

        def growth(puts: int) -> int:
            before = gc.get_count()[0]
            for _ in range(puts):
                w.put_nb(1, 8, data)
            return gc.get_count()[0] - before

        collecting = gc.isenabled()
        gc.collect()
        gc.disable()
        try:  # after a warm-up; the difference cancels the measurement's own
            growth(OPS)
            per_put = (growth(2 * OPS) - growth(OPS)) / OPS
        finally:
            if collecting:
                gc.enable()
        assert job.runtime.pending_nb_ops(0) == 4 * OPS + 1
        job.runtime.flush(0, 1)
    assert per_put <= 1, f"a queued put_nb leaves {per_put} tracked objects"


class _CountingPoller:
    """Stand-in for ``ProcBackend._poller``: counts the ``poll`` system calls."""

    def __init__(self, poller):
        self._poller, self.polls = poller, 0

    def poll(self, timeout):
        self.polls += 1
        return self._poller.poll(timeout)

    def __getattr__(self, name):  # register / unregister
        return getattr(self._poller, name)


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_proc_syscall_budget_an_issue_polls_nothing_a_completion_polls_once():
    data = np.arange(4.0)
    with repro.launch(4, backend="proc") as job:
        job.allocate("w", 16)
        rt, ctx = job.runtime, job.contexts[0]
        w = ctx.win("w")
        poller = rt.backend._poller = _CountingPoller(rt.backend._poller)

        def polls(call) -> int:
            before = poller.polls
            call()
            return poller.polls - before

        def issue_mixed():
            for i in range(OPS):
                trg = 1 + i % 3
                if i % 3 == 0:
                    w.put_nb(trg, 0, data)
                elif i % 3 == 1:
                    w.get_nb(trg, 4, 4)
                else:
                    w.accumulate_nb(trg, 8, data)

        assert polls(issue_mixed) == 0  # queueing makes no system call
        assert rt.pending_nb_ops(0) == OPS
        per_call = {
            "flush": lambda: rt.flush(0, 1),
            "flush_all": lambda: rt.flush_all(0),
            "put": lambda: ctx.put(1, "w", 0, data),
            "get": lambda: ctx.get(1, "w", 0, 4),
            "accumulate": lambda: ctx.accumulate(1, "w", 0, data),
            "get_accumulate": lambda: ctx.get_accumulate(1, "w", 0, data),
            "fetch_and_op": lambda: ctx.fetch_and_op(1, "w", 0, 1.0),
            "compare_and_swap": lambda: ctx.compare_and_swap(1, "w", 0, 0.0, 1.0),
            "queued put_nb, then get": lambda: (w.put_nb(1, 0, data), ctx.get(1, "w", 0, 4)),
            "w[trg, i]": lambda: w[1, 0],
            "w[trg, i] = v": lambda: w.__setitem__((1, 0), 2.0),
            "lock": lambda: rt.lock(0, 1),
            "unlock": lambda: rt.unlock(0, 1),
            "barrier": rt.barrier,
        }
        counted = {name: polls(call) for name, call in per_call.items()}
        assert counted == dict.fromkeys(per_call, 1)
        assert rt.pending_nb_ops() == 0
        assert polls(rt.gsync) == 2  # at entry, and after the completion loop


# ---------------------------------------------------------------------------
# Hook dispatch: resolved when the chain changes, never per operation
# ---------------------------------------------------------------------------
PER_OP_HOOKS = ("before_comm", "after_comm", "after_sync")


def _per_op_hooks(chain) -> list:
    return [getattr(chain, hook) for hook in PER_OP_HOOKS]


class _SyncWatcher(RmaInterceptor):
    """Overrides the sync hook, and nothing else."""

    def __init__(self) -> None:
        self.seen: list[tuple[str, SyncKind]] = []

    def after_sync(self, action) -> None:
        self.seen.append(("after", action.kind))


def test_hook_dispatch_follows_the_chain():
    idle = _per_op_hooks(InterceptorChain())
    assert idle == [None] * 3  # an idle per-op hook is skipped, not called
    policy = FaultTolerancePolicy(interval=20, recovery="localized")
    with repro.launch(4, ft=policy) as job:
        job.allocate("w", 8)
        rt, stack, ctx = job.runtime, job.ft, job.contexts[0]
        # The log overrides after_comm only, the checkpointer no per-op hook.
        assert _per_op_hooks(rt.interceptors) == [idle[0], stack.log.after_comm, *idle[2:]]
        tracer = install_trace(job, Tracer())
        injector = install_injector(job, KillPlan([]))

        def triad() -> list[str]:
            seen = len(tracer.events)
            ctx.lock(1)
            ctx.fetch_and_op(1, "w", 0, 1.0)
            ctx.unlock(1)
            return [event["type"] for event in tracer.events[seen:]]

        assert triad() == ["sync_completed", "op_issued", "op_completed", "sync_completed"]
        assert injector.ops_seen == 1 and len(stack.log.actions) == 1
        stack.uninstall(rt)
        assert len(triad()) == 4 and injector.ops_seen == 2
        assert len(stack.log.actions) == 1  # the log left the chain
        rt.remove_interceptor(tracer.interceptor)
        assert triad() == [] and injector.ops_seen == 3
        rt.remove_interceptor(injector)
        assert _per_op_hooks(rt.interceptors) == idle

        # A sync-hook interceptor added mid-job sees every lock, unlock and
        # gsync; once it leaves, the sync path's budget is what it was.
        def lock_unlock():
            ctx.lock(1)
            ctx.unlock(1)

        bare, _ = _calls_per_op(lock_unlock)
        watcher = _SyncWatcher()
        rt.add_interceptor(watcher)
        assert _per_op_hooks(rt.interceptors) == [None, None, *_per_op_hooks(watcher)[2:]]
        lock_unlock()
        rt.gsync()
        kinds = [SyncKind.LOCK, SyncKind.UNLOCK] + [SyncKind.GSYNC] * rt.nprocs
        assert watcher.seen == [("after", kind) for kind in kinds]
        assert _calls_per_op(lock_unlock)[0] == bare + 2  # one hook call per sync
        rt.remove_interceptor(watcher)
        assert _calls_per_op(lock_unlock)[0] == bare


class _CompletionsAndSteps(RmaInterceptor):
    """Overrides one per-op hook and one session hook; notes, at each call, the
    last event of a tracer registered ahead of it on the chain."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.seen: list[tuple] = []

    def after_comm(self, action) -> None:
        last = self.tracer.events[-1]["type"]
        self.seen.append(("op", action.src, action.trg, action.offset, last))

    def on_step_completed(self, step: int, t: float) -> None:
        self.seen.append(("step", step, self.tracer.events[-1]["type"]))


def test_one_interceptor_on_the_chain_receives_completions_and_steps_in_order():
    """The session's step events ride the interceptor chain: one object
    registered once with ``add_interceptor`` sees every completion and every
    step, interleaved as they happen, each after the tracer ahead of it."""

    def kernel(ctx, step):
        w = ctx.win("w")
        for k in range(2):
            w.put_nb((ctx.rank + 1) % ctx.nranks, 2 * k, [float(step)])

    with repro.launch(4, trace=Tracer()) as job:
        job.allocate("w", 4)
        watcher = _CompletionsAndSteps(job.trace)
        job.runtime.add_interceptor(watcher)
        job.run(kernel, steps=3)
        events = job.trace.events
    expected = [
        ("op", e["src"], e["trg"], e["offset"], "op_completed")
        if e["type"] == "op_completed" else ("step", e["step"], "step_completed")
        for e in events if e["type"] in ("op_completed", "step_completed")
    ]
    assert watcher.seen == expected
    assert [s[1] for s in watcher.seen if s[0] == "step"] == [0, 1, 2]
    assert sum(s[0] == "op" for s in watcher.seen) == 3 * 4 * 2
    assert watcher.seen[8] == ("step", 0, "step_completed")


class _LifecycleOnly(RmaInterceptor):
    """Overrides lifecycle hooks, and no per-op one."""

    def on_rank_failed(self, rank: int) -> None:
        pass

    def on_finalize(self) -> None:
        pass


def test_an_interceptor_without_per_op_hooks_costs_an_operation_nothing():
    data = np.arange(8.0)
    with repro.launch(8) as job:
        job.allocate("w", 64)
        ctx, w = job.contexts[0], job.contexts[0].win("w")

        def ops():
            ctx.lock(1)
            w.put_nb(1, 0, data)
            ctx.get(1, "w", 8, 8)
            ctx.unlock(1)

        ops()
        bare, _ = _calls_per_op(ops)
        job.runtime.add_interceptor(RmaInterceptor())
        job.runtime.add_interceptor(_LifecycleOnly())
        assert _calls_per_op(ops)[0] == bare


def _put_nb_job_calls(trace, ops_per_step: int) -> float:
    """Python calls of 10 steps of 8 ranks each ``put_nb``-ing ``ops_per_step``
    times to their ring neighbour, under memory/global checkpoints every 5."""
    data = np.arange(8.0)
    policy = FaultTolerancePolicy(interval=5, store="memory", recovery="global")

    def kernel(ctx, step):
        w = ctx.win("w")
        for k in range(ops_per_step):
            w.put_nb((ctx.rank + 1) % ctx.nranks, 8 * k, data)

    with repro.launch(8, ft=policy, trace=trace) as job:
        job.allocate("w", 128)
        job.run(kernel, steps=1)  # first-use entries and the first checkpoint
        return _calls_per_op(lambda: job.run(kernel, steps=10), runs=1)[0]


def test_a_lifecycle_tracer_costs_an_operation_nothing():
    """What every untraced chaos soak and serve cell runs with: the per-op
    cost (the calls 640 more operations add) equals an untraced job's, 5 (10
    when the tracer's hooks checked its detail on every operation)."""
    chain = InterceptorChain()
    chain.add(Tracer(detail="lifecycle").interceptor, None)
    assert _per_op_hooks(chain) == [None] * 3
    per_op = {}
    for detail in (None, "lifecycle"):
        calls = [
            _put_nb_job_calls(Tracer(detail=detail) if detail else None, ops)
            for ops in (8, 16)
        ]
        per_op[detail] = (calls[1] - calls[0]) / 640
    assert per_op["lifecycle"] == per_op[None] <= 5, per_op


def test_a_hook_is_looked_up_when_the_interceptor_is_added(monkeypatch):
    """What the benchmark's layer pass relies on: a hook patched on the class
    before the job is launched is dispatched; one patched later is not seen
    until the chain changes."""
    logged = []
    original = ActionLog.after_comm

    def counting(self, action):
        logged.append(action)
        original(self, action)

    policy = FaultTolerancePolicy(interval=20, recovery="localized")
    monkeypatch.setattr(ActionLog, "after_comm", counting)
    with repro.launch(4, ft=policy) as job:
        job.allocate("w", 8)
        job.contexts[0].put(1, "w", 0, [1.0])
    assert len(logged) == 1
    monkeypatch.setattr(ActionLog, "after_comm", original)
    with repro.launch(4, ft=policy) as job:
        job.allocate("w", 8)
        monkeypatch.setattr(ActionLog, "after_comm", counting)
        job.contexts[0].put(1, "w", 0, [1.0])
        assert len(logged) == 1  # the chain still holds the original
        job.runtime.add_interceptor(RmaInterceptor())
        job.contexts[0].put(1, "w", 0, [1.0])
        assert len(logged) == 2


# ---------------------------------------------------------------------------
# (b) Disposition transitions
# ---------------------------------------------------------------------------
def _runtime(backend: str, failures: KillPlan | None = None) -> RmaRuntime:
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend=backend)
    if failures:
        rt.add_interceptor(FaultInjector(failures))
    rt.win_allocate("w", 16)
    return rt


@pytest.mark.parametrize("backend", BACKENDS)
def test_explicit_failure_is_observed_by_the_very_next_op(backend):
    rt = _runtime(backend)
    rt.put_nb(0, 1, "w", 0, [1.0])
    assert rt._divert is None
    rt.cluster.fail_rank(1)
    with pytest.raises(ProcessFailedError) as failure:
        rt.put_nb(0, 1, "w", 1, [2.0])  # this one, not the one after
    assert failure.value.rank == 1
    assert rt.windows.get("w").is_invalidated(1)  # the full scan ran
    rt.put_nb(0, 2, "w", 0, [3.0])  # other targets keep flowing


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_action_touching_a_failed_rank_raises_until_recovery(backend):
    rt = _runtime(backend)
    rt.cluster.fail_rank(1)
    touching = [
        lambda: rt.put_nb(0, 1, "w", 0, [1.0]),
        lambda: rt.get(0, 1, "w", 0, 1),
        lambda: rt.fetch_and_op(0, 1, "w", 0, 1.0),
        lambda: rt.lock(0, 1),
        lambda: rt.flush(0, 1),
        lambda: rt.put_nb(1, 2, "w", 0, [1.0]),  # from the failed rank
        lambda: rt.unlock(1, 2),
    ]
    for round_ in range(3):  # not only the first action after the failure
        for call in touching:
            with pytest.raises(ProcessFailedError):
                call()
        rt.put(0, 2, "w", round_, [1.0])  # the others keep flowing
    assert rt.pending_nb_ops() == 0 and rt.local(2, "w")[:3].tolist() == [1.0] * 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_scheduled_failure_fires_at_the_op_index_the_cost_model_predicts(backend):
    flops = 1000.0
    step_cost = cray_xe6_like().compute(flops)
    start = _runtime(backend).cluster.now(0)  # allocation + barrier, deterministic
    due = start + 2.5 * step_cost
    expected_index = math.ceil((due - start) / step_cost) - 1  # == 2
    rt = _runtime(backend, failures=KillPlan.single(1, time=due))
    issued = 0
    with pytest.raises(ProcessFailedError):
        for _ in range(10):
            rt.compute(0, flops)  # the only thing moving rank 0's clock
            rt.put_nb(0, 1, "w", 0, [1.0])
            issued += 1
    assert issued == expected_index == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_recovery_restores_the_normal_path(backend):
    rt = _runtime(backend)
    stack = build_ft_stack(rt)
    stack.checkpointer.checkpoint(tag=0)
    rt.cluster.fail_rank(1)
    with pytest.raises(ProcessFailedError):
        rt.put_nb(0, 1, "w", 0, [1.0])
    stack.recovery.recover()
    assert rt._divert is None and rt._membership().healthy
    handle = rt.put_nb(0, 1, "w", 0, [4.0])
    rt.flush(0, 1)
    assert handle.completed and rt.local(1, "w")[0] == 4.0


def _gsync_run(backend, recovery, after_ops=None):
    """4 ranks, 3 ``put_nb`` each, then the kernel's gsync: 12 completions a step.
    Returns the report, the final windows and the handles in issue order."""
    handles = []

    def kernel(ctx, step):
        w = ctx.win("w")
        mine = w.local
        for k in range(3):
            put = w.put_nb((ctx.rank + k + 1) % 4, 3 * ctx.rank + k, mine[12:13] + step + k)
            handles.append(put)
        yield ctx.gsync()
        mine[12] = 0.5 * mine[12] + mine[:12].sum() / 12

    ft = FaultTolerancePolicy(interval=2, recovery=recovery)
    with repro.launch(4, ft=ft, sync_each_step=False, backend=backend) as job:
        job.allocate("w", 13)
        for rank in range(4):
            job.local(rank, "w")[12] = rank + 1.0
        if after_ops is not None:
            install_injector(job, KillPlan.single(rank=2, after_ops=after_ops))
        report = job.run(kernel, steps=6)
        return report, job.gather("w").tobytes(), handles


@pytest.mark.parametrize("recovery", ["global", "localized"])
def test_a_kill_at_every_completion_of_a_gsync_takes_the_full_path(recovery):
    # A settled gsync completes each rank without re-deriving membership; a kill
    # fired by a completion bumps the generation, so the ranks after it take the
    # full path.  Step 3's gsync completes operations 37..48, rank by rank.
    reference = _gsync_run("sim", recovery)
    assert reference[0].recoveries == 0
    for index in range(1, 13):
        report, image, handles = _gsync_run("sim", recovery, 36 + index)
        assert report.recoveries == 1 and image == reference[1], index
        # Killed while ranks 0 and 1 complete: both still do, then the dead rank 2
        # raises before its queue (or rank 3's) is applied; killed later, all do.
        completed = 6 if index <= 6 else 12
        assert sum(h.completed for h in handles[36:48]) == completed, index
        on_vector, vector_image, _ = _gsync_run("vector", recovery, 36 + index)
        assert on_vector.elapsed == report.elapsed and vector_image == image, index


@pytest.mark.parametrize("backend", BACKENDS)
def test_excised_target_drops_ops_through_the_divert(backend):
    rt = _runtime(backend)
    rt.cluster.fail_rank(3)
    rt.observe_failures()
    rt.excise_rank(3)
    assert rt._divert is not None
    put = rt.put_nb(0, 3, "w", 0, [1.0])
    get = rt.get_nb(0, 3, "w", 0, 2)
    assert put.completed and get.completed and rt.pending_nb_ops() == 0
    assert np.array_equal(get.result(), np.zeros(2))
    assert rt.cluster.metrics.get("ft.dropped_ops") == 2
    rt.put_nb(0, 1, "w", 0, [1.0])  # healthy targets take the normal path
    assert rt.pending_nb_ops() == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_best_effort_suspension_diverts_until_the_step_boundary_repair(backend):
    def kernel(ctx, step):
        ctx.win("w").put_nb((ctx.rank + 1) % ctx.nranks, 0, [float(step)])

    policy = FaultTolerancePolicy(interval=1, recovery="best_effort")
    with repro.launch(4, ft=policy, backend=backend) as job:
        job.allocate("w", 4)
        job.run(kernel, steps=1)  # takes the first checkpoint
        job.cluster.fail_rank(1)
        handle = job.contexts[0].win("w").put_nb(1, 0, [9.0])
        assert handle.completed  # resolved by the mode, never queued
        assert job.runtime._divert is not None
        assert job.cluster.metrics.get("qos.dropped_puts") == 1
        assert job.runtime.suspended_ranks() == frozenset({1})
        job.run(kernel, steps=1, start_step=1)  # boundary repair respawns rank 1
        assert job.cluster.metrics.get("qos.repairs") == 1
        assert job.runtime._divert is None
        job.contexts[0].win("w").put_nb(1, 0, [9.0])
        assert job.runtime.pending_nb_ops(0) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_replay_suppresses_until_the_cursor_is_exhausted(backend):
    rt = _runtime(backend)
    stack = build_ft_stack(rt, recovery="localized")
    rt.put(0, 1, "w", 0, [1.0])
    logged = list(stack.log.actions)
    assert len(logged) == 1
    rt.local(1, "w")[0] = 0.0  # pretend ranks 0 and 1 were restored from a checkpoint
    rt.begin_replay(ReplayCursor(logged, {0, 1}, marks=[], gnc=[0] * 4, joined=0))
    assert rt._divert is not None
    suppressed = rt.put_nb(0, 1, "w", 0, [7.0])  # re-issued: the log wins
    assert suppressed.completed and rt.pending_nb_ops() == 0
    assert rt.local(1, "w")[0] == 1.0
    assert rt.cluster.metrics.get("ft.replayed_bytes") == 8
    rt.put_nb(0, 1, "w", 1, [2.0])  # cursor exhausted: normal again
    assert rt.pending_nb_ops() == 1
    rt.replay_step_boundary()
    assert not rt.replaying and rt._divert is None


# ---------------------------------------------------------------------------
# One size per action
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.int16])
def test_action_size_is_stamped_once_from_the_window(dtype):
    itemsize = np.dtype(dtype).itemsize
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2))
    rt.win_allocate("w", 16, dtype=dtype)
    stack = build_ft_stack(rt, recovery="localized")
    get = rt.get_nb(0, 1, "w", 0, 4)
    put = rt.put_nb(0, 1, "w", 4, [1, 2, 3, 4])
    assert get.action.nbytes == put.action.nbytes == 4 * itemsize  # before any flush
    rt.flush(0, 1)
    assert get.action.nbytes == get.action.data.nbytes
    assert rt.cluster.metrics.get("rma.bytes_moved") == 2 * 4 * itemsize
    assert sum(stack.log.bytes_logged.values()) == 2 * 4 * itemsize


def test_directly_built_action_takes_its_payload_size_never_a_guess():
    where = {"src": 0, "trg": 1, "window": "w", "offset": 0, "count": 4}
    stamp = {"combine": False, "counters": Counters()}
    put = CommAction(kind=OpKind.PUT, data=np.zeros(4, dtype=np.int16), **where, **stamp)
    assert put.nbytes == 8
    assert CommAction(kind=OpKind.GET, **where, **stamp).nbytes is None


# ---------------------------------------------------------------------------
# (c) Slotted actions
# ---------------------------------------------------------------------------
def test_slotted_actions_pickle_and_replace():
    counters = Counters(ec=1, gnc=3)
    assert counters == Counters(1, 0, 0, 3) and tuple(counters) == (1, 0, 0, 3)
    assert Counters() == Counters(ec=0, gc=0, sc=0, gnc=0)
    assert pickle.loads(pickle.dumps(counters)) == counters
    assert tuple(counters._replace(gc=2)) == (1, 2, 0, 3)

    comm = CommAction(
        kind=OpKind.ACCUMULATE, src=0, trg=1, window="w", offset=2, count=3,
        combine=True, counters=counters, op=AccumulateOp.SUM, data=np.arange(3.0),
    )
    sync = SyncAction(kind=SyncKind.LOCK, src=0, trg=1, counters=counters, structure="s")
    for action in (comm, sync):
        assert not hasattr(action, "__dict__")
        clone = pickle.loads(pickle.dumps(action))
        assert clone.determinant() == action.determinant()
        moved = dataclasses.replace(action, src=2)
        assert moved.src == 2 and moved.seq == action.seq
    assert np.array_equal(pickle.loads(pickle.dumps(comm)).data, comm.data)
    assert comm.nbytes == 24 and dataclasses.replace(comm, offset=0).nbytes == 24


def test_runtime_built_actions_pickle_like_directly_built_ones():
    rt = RmaRuntime(Cluster.simple(2))
    rt.win_allocate("w", 4)
    action = rt.put_nb(0, 1, "w", 0, [1.0, 2.0]).action
    clone = pickle.loads(pickle.dumps(action))
    assert clone.determinant() == action.determinant() and clone.nbytes == 16


# ---------------------------------------------------------------------------
# (d) Trait tables
# ---------------------------------------------------------------------------
def test_opkind_traits_equal_the_set_definitions():
    put_like = {
        OpKind.PUT, OpKind.ACCUMULATE, OpKind.GET_ACCUMULATE,
        OpKind.FETCH_AND_OP, OpKind.COMPARE_AND_SWAP,
    }
    get_like = {
        OpKind.GET, OpKind.GET_ACCUMULATE, OpKind.FETCH_AND_OP, OpKind.COMPARE_AND_SWAP,
    }
    atomic = {
        OpKind.ACCUMULATE, OpKind.GET_ACCUMULATE, OpKind.FETCH_AND_OP,
        OpKind.COMPARE_AND_SWAP,
    }
    for kind in OpKind:
        assert kind.is_put_like is (kind in put_like)
        assert kind.is_get_like is (kind in get_like)
        assert kind.is_atomic is (kind in atomic)
        assert kind.is_scalar is (kind in {OpKind.FETCH_AND_OP, OpKind.COMPARE_AND_SWAP})
        assert kind.metric == f"rma.{kind.value}"
        assert "is_put_like" in vars(kind)  # a plain attribute, not a property


def test_synckind_traits_equal_the_branch_definitions():
    categories = {
        SyncKind.LOCK: ActionCategory.LOCK,
        SyncKind.UNLOCK: ActionCategory.UNLOCK,
        SyncKind.FLUSH: ActionCategory.FLUSH,
        SyncKind.FLUSH_ALL: ActionCategory.FLUSH,
        SyncKind.GSYNC: ActionCategory.GSYNC,
        SyncKind.BARRIER: ActionCategory.GSYNC,
    }
    closing = {SyncKind.UNLOCK, SyncKind.FLUSH, SyncKind.FLUSH_ALL, SyncKind.GSYNC}
    for kind in SyncKind:
        assert kind.category is categories[kind]
        assert kind.closes_epoch is (kind in closing)
        assert kind.metric == f"rma.{kind.value}"


# ---------------------------------------------------------------------------
# (e) The proc dispatch path ships bytes, never a pickled action
# ---------------------------------------------------------------------------
def _every_kind_kernel(ctx, step):
    w = ctx.win("w")
    right = (ctx.rank + 1) % ctx.nranks  # one writer per target: deterministic
    w.put_nb(right, 0, [step + 1.0, ctx.rank])
    w.accumulate_nb(right, 2, [1.5])
    got = w.get_nb(right, 8, 2)
    yield ctx.gsync()
    ctx.put(right, "w", 8, got.result() + ctx.get(right, "w", 0, 2))
    ctx.fetch_and_op(right, "w", 4, 2.0)
    ctx.get_accumulate(right, "w", 5, [3.0], AccumulateOp.MAX)
    ctx.compare_and_swap(right, "w", 6, float(step), step + 1.0)
    yield ctx.gsync()


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_proc_dispatch_never_pickles_an_action(monkeypatch):
    def refuse(self, protocol):
        raise AssertionError(f"{self.describe()} was pickled on the dispatch path")

    def run(backend):
        with repro.launch(4, backend=backend) as job:
            job.allocate("w", 16)
            report = job.run(_every_kind_kernel, steps=5)
            return job.gather("w"), report.elapsed, report.metrics.total("rma.put")

    expected = run("sim")
    monkeypatch.setattr(CommAction, "__reduce_ex__", refuse)  # workers fork after this
    field, elapsed, puts = run("proc")
    assert np.array_equal(field, expected[0]) and field.any()
    assert (elapsed, puts) == expected[1:]


def _record_sent_sizes(rt, monkeypatch) -> list[int]:
    """Length of every message the supervisor sends rank 0's worker from now on."""
    conn = rt.backend._workers[0].conn
    send_bytes, sent = conn.send_bytes, []
    monkeypatch.setattr(conn, "send_bytes", lambda buf: sent.append(len(buf)) or send_bytes(buf))
    return sent


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_proc_batch_wire_size_is_records_plus_operand_bytes(monkeypatch):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="proc")
    rt.win_allocate("w", 256)
    try:
        sent = _record_sent_sizes(rt, monkeypatch)
        for i in range(32):
            rt.put_nb(0, 1, "w", 8 * i, np.arange(8.0))
        rt.flush(0, 1)
        assert np.array_equal(rt.local(1, "w"), np.tile(np.arange(8.0), 32))
    finally:
        rt.finalize()
    # One message: 32 operands of 64 bytes, at most 32 bytes per record and
    # header.  The pickled CommAction list this replaced was 5,617 bytes.
    assert len(sent) == 1 and 32 * 64 < sent[0] <= 32 * (64 + 32) + 32


def _issue_halo_step(rt) -> np.ndarray:
    """Rank 0's step of the benchmark's halo kernel: 16 chunks of 8 doubles to
    each ring neighbour, alternating left/right.  Returns the streamed state."""
    state = np.arange(128.0) + 1.0
    for lo in range(0, 128, 8):
        rt.put_nb(0, 3, "w", 128 + lo, state[lo : lo + 8])
        rt.put_nb(0, 1, "w", lo, -state[lo : lo + 8])
    return state


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_proc_halo_step_crosses_as_one_record_per_neighbour(monkeypatch):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="proc")
    rt.win_allocate("w", 384)
    try:
        sent = _record_sent_sizes(rt, monkeypatch)
        state = _issue_halo_step(rt)
        rt.flush_all(0)
        assert np.array_equal(rt.local(3, "w")[128:256], state)
        assert np.array_equal(rt.local(1, "w")[:128], -state)
    finally:
        rt.finalize()
    # Header, two run records, 32 operands of 64 bytes (one record per put: 2,825).
    assert sent == [9 + 2 * 24 + 32 * 64]


@needs_proc
@pytest.mark.usefixtures("proc_hygiene")
def test_proc_halo_step_is_applied_as_byte_copies_with_no_liveness_wait(monkeypatch):
    """The worker copies each put run's bytes into the segment (no ``CommAction``
    is built), and the completion asks no ``Process.is_alive`` (a ``waitpid``)."""
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="proc")
    rt.win_allocate("w", 384)
    conn, sent, waits = rt.backend._workers[0].conn, [], []
    send_bytes, is_alive = conn.send_bytes, BaseProcess.is_alive
    monkeypatch.setattr(conn, "send_bytes", lambda buf: sent.append(buf) or send_bytes(buf))
    monkeypatch.setattr(BaseProcess, "is_alive", lambda p: waits.append(p) or is_alive(p))
    try:
        state = _issue_halo_step(rt)
        rt.flush_all(0)
        assert waits == []
    finally:
        rt.finalize()
    (message,) = sent
    assert _HEADER.unpack_from(message)[1] == 2
    shm = types.SimpleNamespace(buf=bytearray(384 * 8 * 4))
    slabs = [_ShmSlab(shm, 384, np.dtype(np.float64), 4)]
    monkeypatch.setattr(proc, "CommAction", None)  # building one would raise
    assert _apply_batch(0, message, slabs) == bytes((_OK,))
    assert np.array_equal(slabs[0].buffers[3][128:256], state)
    assert np.array_equal(slabs[0].buffers[1][:128], -state)


def test_the_framed_reader_reads_each_message_whole_and_keeps_the_next(monkeypatch):
    """``Connection.send_bytes`` frames; the reader takes two back-to-back
    messages in one ``os.read`` and returns them in order, and a 1 MiB one whole."""
    ends = [connection.Connection(end.detach()) for end in socket.socketpair()]
    writer, reader = ends
    reads, read = [], os.read
    monkeypatch.setattr(os, "read", lambda fd, n: reads.append(n) or read(fd, n))
    unread = bytearray()
    try:
        writer.send_bytes(b"\x01first")
        writer.send_bytes(b"second")
        assert proc._recv(reader.fileno(), unread) == b"\x01first"
        assert proc._recv(reader.fileno(), unread) == b"second"
        assert len(reads) == 1 and not unread
        big = np.arange(1 << 17, dtype=np.float64).tobytes()  # 1 MiB: many reads
        sender = threading.Thread(target=writer.send_bytes, args=(big,))
        sender.start()
        got = proc._recv(reader.fileno(), unread)
        sender.join()
        assert got == big and not unread
        writer.close()
        with pytest.raises(EOFError):
            proc._recv(reader.fileno(), unread)
    finally:
        for end in ends:
            end.close()


def test_vector_halo_step_costs_one_region_write_per_neighbour(monkeypatch):
    rt = RmaRuntime(Cluster.simple(4, procs_per_node=2), backend="vector")
    rt.win_allocate("w", 384)
    state = _issue_halo_step(rt)
    region, writes = Window._region, []
    monkeypatch.setattr(
        Window, "_region", lambda self, *where: writes.append(where) or region(self, *where)
    )
    rt.flush_all(0)
    assert writes == [(3, 128, 128), (1, 0, 128)]  # one apply_action per put: 32
    assert np.array_equal(rt.local(3, "w")[128:256], state)
    assert np.array_equal(rt.local(1, "w")[:128], -state)


# ---------------------------------------------------------------------------
# (f) The checkpoint data path: allocation and sharing budgets
# ---------------------------------------------------------------------------
SLAB = 64 * 1024  # float64 elements: 512 KiB per rank


def _checkpointed_runtime(store, backend=None, nprocs=8):
    rt = RmaRuntime(Cluster.simple(nprocs, procs_per_node=2), backend=backend)
    stack = build_ft_stack(rt, store=store)
    rt.win_allocate("w", SLAB)
    for rank in range(nprocs):
        rt.local(rank, "w")[:] = rank + 1.0
    return rt, stack


@pytest.mark.no_store_oracle  # its full compare would be the allocation measured
@pytest.mark.parametrize("store", ["memory", "multilevel"])
def test_steady_state_checkpoints_allocate_less_than_one_slab(store):
    rt, stack = _checkpointed_runtime(store)
    for tag in range(3):  # fill the image ring and seed the level mirrors
        rt.put(0, 1, "w", 64 * tag, np.arange(64.0))
        stack.checkpointer.checkpoint(tag=tag)
    tracemalloc.start()
    try:
        for tag in range(3, 11):
            rt.put(0, 1, "w", 64 * tag, np.arange(64.0))
            rt.local(tag % 8, "w")[tag] = -0.0  # a store the log never sees
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stack.checkpointer.checkpoint(tag=tag)
            peak = tracemalloc.get_traced_memory()[1] - before
            # Seed: 16 window-sized copies (8 MiB) per checkpoint.
            assert peak < SLAB * 8, f"checkpoint {tag} allocated {peak} bytes at peak"
    finally:
        tracemalloc.stop()
        stack.uninstall(rt)


@pytest.mark.parametrize("store", ["memory", "multilevel"])
def test_steady_state_checkpoint_compares_only_stamped_slabs(store, monkeypatch):
    from repro.ft import stores

    rt, stack = _checkpointed_runtime(store)
    calls, differ = [], stores._differ
    monkeypatch.setattr(stores, "_differ", lambda *a: calls.append(len(a)) or differ(*a))
    try:
        for tag in range(12):  # put-only: the log is the change-set, nothing is re-read
            rt.put(0, 1, "w", 64 * tag, np.arange(64.0))
            stack.checkpointer.checkpoint(tag=tag)
        assert calls == []  # parent: 8 whole-slab compares per checkpoint
        for stamped in ([2], [5, 2, 7]):
            for rank in stamped:
                rt.local(rank, "w")[rank] = -0.0  # a store the log never sees
            rt.put(0, 1, "w", 0, np.arange(64.0))
            stack.checkpointer.checkpoint(tag=tuple(stamped))
            assert calls.count(2) == len(stamped)  # one compare per stamped slab
            del calls[:]
    finally:
        stack.uninstall(rt)


def test_buddy_copy_is_a_second_reference_priced_as_a_copy():
    rt, stack = _checkpointed_runtime("memory")
    store = stack.store
    version = stack.checkpointer.checkpoint(tag=0)
    for rank in range(8):
        local = version.local[rank]["w"]  # the one placement handle both copies serve
        assert not isinstance(local, np.ndarray)  # read-only: it hands out fresh arrays
        assert not np.shares_memory(np.asarray(local), np.asarray(local))
        assert not np.shares_memory(np.asarray(local), rt.local(rank, "w"))
    # The modelled machine still holds (and was charged for) two copies.
    assert store.nbytes() == 2 * 8 * SLAB * 8
    assert rt.cluster.metrics.get("ft.checkpoint_bytes") == 2 * 8 * SLAB * 8
    # Losing rank 2 loses its own copy and the copies it held as a buddy;
    # the copy its buddy holds for it — the same handle — still restores it.
    held_for = [owner for owner, buddy in version.buddy_of.items() if buddy == 2]
    assert held_for
    store.drop_rank(2)
    assert version.lost == {2} and 2 in version.local
    payload = store.fetch(version, 2)
    assert payload.source == "buddy" and payload.peers == (version.buddy_of[2],)
    assert np.array_equal(payload.windows["w"], np.full(SLAB, 3.0))
    assert store.nbytes() == (2 * 8 - 1 - len(held_for)) * SLAB * 8
    for owner in held_for:  # served locally; no second copy left behind it
        assert store.fetch(version, owner).source == "local"
        version.lost.add(owner)
        assert not store.available(version, owner)
    stack.uninstall(rt)


#: Python-level calls of one steady-state checkpoint of the runtime above on
#: ``vector``, each rank having put 64 elements since the previous one, held at
#: the measured values: ``memory``, and ``multilevel`` at the four positions of
#: its cadence (base only, + the parity level, base only, + both levels).  When
#: every placement charged clocks through ``Cluster.advance`` and looked its
#: windows up per rank: 451 and 463 / 610 / 559 / 781; with one slab chain per
#: ``(rank, window)``, its holders, charges and captures paid per slab: 229 and
#: 239 / 317 / 263 / 419; with one rank-major chain per window, its rows placed by
#: per-row scatters from a ``rank -> window -> buffer`` dict: 67 and 76 / 101 / 85
#: / 125.
CHECKPOINT_BUDGETS = {"memory": [64] * 4, "multilevel": [73, 96, 82, 118]}
#: ... and of the ``gsync`` before it, completing eight one-op batches (247, then
#: 148 before a settled job completed its ranks without re-deriving membership and
#: scanned the locks with a list instead of a generator, 100 before a barrier
#: with every rank alive synchronized every clock without listing them; 87 on both
#: stores since, held at the measured count).
GSYNC_BUDGET = 87
#: Calls each rank beyond eight adds to a steady-state checkpoint: the copy of its
#: Eq. (1) record and that record's construction.  Placing, holding and charging
#: are paid per checkpoint and window, never per rank.
PER_RANK_BUDGET = 2


def _checkpoint_calls(store, nprocs):
    """Python calls of checkpoints 4-11 (the cadence twice) and of their gsyncs."""
    rt, stack = _checkpointed_runtime(store, backend="vector", nprocs=nprocs)
    checkpoints, syncs = [], []
    try:
        for tag in range(12):
            for rank in range(nprocs):
                rt.put_nb(rank, (rank + 1) % nprocs, "w", 64 * tag, np.arange(64.0))
            syncs.append(_calls_per_op(rt.gsync, runs=1)[0])
            checkpoints.append(_calls_per_op(stack.checkpointer.checkpoint, runs=1)[0])
    finally:
        stack.uninstall(rt)
    return checkpoints[4:], syncs[4:]


@pytest.mark.no_store_oracle  # its compares would be counted
@pytest.mark.parametrize("store", list(CHECKPOINT_BUDGETS))
def test_steady_state_checkpoint_call_budgets(store):
    checkpoints, syncs = _checkpoint_calls(store, 8)
    budgets = CHECKPOINT_BUDGETS[store] * 2
    assert all(got <= budget for got, budget in zip(checkpoints, budgets)), checkpoints
    assert max(syncs) <= GSYNC_BUDGET, syncs


@pytest.mark.no_store_oracle
@pytest.mark.parametrize("store", list(CHECKPOINT_BUDGETS))
def test_checkpoint_calls_grow_by_a_fixed_few_per_rank(store):
    """At 64 ranks a steady-state checkpoint costs its 8-rank budget plus a fixed
    few calls per extra rank, at every position of the cadence."""
    checkpoints, _ = _checkpoint_calls(store, 64)
    budgets = [b + PER_RANK_BUDGET * (64 - 8) for b in CHECKPOINT_BUDGETS[store] * 2]
    assert all(got <= budget for got, budget in zip(checkpoints, budgets)), checkpoints
