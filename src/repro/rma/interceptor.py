"""Interceptor hooks — the simulator's analogue of the PMPI profiling interface.

The paper's ftRMA library interposes on every RMA call through MPI's PMPI
profiling interface (§6.1).  In the simulated runtime the same effect is
achieved with *interceptors*: objects registered on the
:class:`~repro.rma.runtime.RmaRuntime` whose hooks are invoked before and
after every communication action and after every synchronization action —
and, on the same chain, at the session's step, checkpoint and recovery
events.

Interceptors implement fault tolerance (ftRMA's put/get log and checkpointer),
fault injection and tracing; applications never see them, exactly as in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rma.actions import CommAction, SyncAction
from repro.rma.window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["RmaInterceptor", "InterceptorChain"]


class RmaInterceptor:
    """Base class with no-op hooks; subclasses override what they need."""

    def attach(self, runtime: "RmaRuntime") -> None:
        """Called when the interceptor is registered on a runtime."""

    # --- window lifecycle -------------------------------------------------
    def on_window_create(self, window: Window) -> None:
        """A new window was allocated collectively."""

    # --- communication actions ---------------------------------------------
    def before_comm(self, action: CommAction) -> None:
        """Invoked right before a put/get/atomic is issued."""

    def after_comm(self, action: CommAction) -> None:
        """Invoked when a put/get/atomic *completes* (its effect is applied).

        For blocking calls this is immediately after issue; for nonblocking
        calls it is the flush/unlock/gsync that closes the epoch.  Handles
        arrive in issue order regardless of how the backend batched the
        execution, so interceptors observe one canonical completion stream.
        """

    # --- synchronization actions --------------------------------------------
    def after_sync(self, action: SyncAction) -> None:
        """Invoked right after a lock/unlock/flush/gsync/barrier completed."""

    # --- events of the fault-tolerance seams ----------------------------------
    def on_kill(self, record) -> None:
        """A planned kill fired, or was skipped (a :class:`~repro.ft.inject.FiredKill`)."""

    def on_checkpoint_stored(
        self, store: str, level: str, rank: int, nbytes: int, incremental: bool
    ) -> None:
        """``store`` placed ``nbytes`` of ``rank``'s checkpoint at ``level``."""

    def on_qos_decision(self, decision: str, rank: int, n: int) -> None:
        """The best-effort rule counted ``n`` occurrences of ``decision`` at ``rank``."""

    # --- failures -----------------------------------------------------------
    def on_rank_failed(self, rank: int) -> None:
        """A fail-stop failure of ``rank`` has been observed."""

    def on_respawn(self, rank: int) -> None:
        """A replacement process for ``rank`` has been provided."""

    # --- run lifecycle --------------------------------------------------------
    def on_finalize(self) -> None:
        """The application finished; flush statistics."""

    # --- the session's step loop (see SessionObserver) ---------------------
    def on_step_completed(self, step: int, t: float) -> None:
        """Step ``step`` finished (post-sync; counting re-executions)."""

    def on_checkpoint(self, step: int, t_start: float, t_end: float, demand: bool) -> None:
        """A coordinated checkpoint committed between ``t_start`` and ``t_end``.

        Covers periodic, phase-opening and demand checkpoints (``demand``
        distinguishes the latter).  The window is what lets observers segment
        other measurements — e.g. request latencies — into steady-state vs
        during-checkpoint time.  A checkpoint aborted by a failure emits no
        event; its span is subsumed by the recovery that follows."""

    def on_failure_detected(self, rank: int, step: int, t: float) -> None:
        """A :class:`ProcessFailedError` for ``rank`` surfaced during ``step``."""

    def on_recovery_started(self, step: int, t: float) -> None:
        """The session is about to run its recovery protocol."""

    def on_protocol_applied(self, outcome, resume_step: int, t: float) -> None:
        """One recovery attempt completed with ``outcome``
        (a :class:`~repro.ft.recovery.RecoveryOutcome`)."""

    def on_recovery_completed(self, resume_step: int, t: float) -> None:
        """Recovery finished; the step loop resumes at ``resume_step``."""


def _each(hooks: list, per_op: bool):
    """One callable running ``hooks`` in order (per-op: one argument, no packing)."""
    if per_op:

        def each(action) -> None:
            for hook in hooks:
                hook(action)

    else:

        def each(*args, **kwargs) -> None:
            for hook in hooks:
                hook(*args, **kwargs)

    return each


class InterceptorChain:
    """Orders interceptors and dispatches every hook to them, in registration order.

    Hooks are looked up when an interceptor is added or removed, never per
    action: each hook of :class:`RmaInterceptor` is then an attribute of the
    chain holding ``None`` when no registered interceptor overrides it (its
    call site skips it), that interceptor's bound method when one does, a
    loop over the overriding ones otherwise.  An interceptor that overrides
    no per-op hook therefore costs an operation nothing, and a hook replaced
    on a class or an instance after registration is not seen until the chain
    changes.
    """

    def __init__(self) -> None:
        from repro.rma.ordering import OpJournal  # whose recorder imports this module

        self._interceptors: list[RmaInterceptor] = []
        self.journal = OpJournal()  # the streams registered readers read: its ``hooks``
        self._resolve()

    def add(self, interceptor: RmaInterceptor, runtime: "RmaRuntime") -> None:
        """Register ``interceptor`` and notify it of the runtime; an ``attach``
        that raises leaves the chain as it was."""
        self._interceptors.append(interceptor)
        self._resolve()
        try:
            interceptor.attach(runtime)
        except BaseException:
            self.remove(interceptor)
            raise

    def remove(self, interceptor: RmaInterceptor) -> None:
        """Unregister ``interceptor`` (no error if absent)."""
        if interceptor in self._interceptors:
            self._interceptors.remove(interceptor)
            self._resolve()

    def _resolve(self) -> None:
        """Rebind every hook to the interceptors that override it (or to the op journal)."""
        own = self.journal.hooks(self._interceptors)
        for name, default in vars(RmaInterceptor).items():
            if name.startswith(("on_", "before_", "after_")):
                per_op = name.endswith(("_comm", "_sync"))
                hooks = [own.get((id(i), name), getattr(i, name)) for i in self._interceptors]
                hooks = [h for h in hooks if getattr(h, "__func__", None) is not default]
                if len(hooks) > 1:
                    hooks = [_each(hooks, per_op)]
                setattr(self, name, hooks[0] if hooks else None)

    def __iter__(self):
        return iter(self._interceptors)

    def __len__(self) -> int:
        return len(self._interceptors)
