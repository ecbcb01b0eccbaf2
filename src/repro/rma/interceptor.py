"""Interceptor hooks — the simulator's analogue of the PMPI profiling interface.

The paper's ftRMA library interposes on every RMA call through MPI's PMPI
profiling interface (§6.1).  In the simulated runtime the same effect is
achieved with *interceptors*: objects registered on the
:class:`~repro.rma.runtime.RmaRuntime` whose hooks are invoked before and
after every communication action and after every synchronization action.

Interceptors implement fault tolerance (ftRMA), the message-logging baseline,
SCR-style checkpointing and instrumentation; applications never see them —
logging and checkpointing are fully transparent, exactly as in the paper.
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

    #: Human-readable name used in metrics and reports.
    name: str = "interceptor"

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
        """The delivery mode counted ``n`` occurrences of ``decision`` at ``rank``."""

    # --- failures -----------------------------------------------------------
    def on_failure_detected(self, rank: int) -> None:
        """A fail-stop failure of ``rank`` has been observed."""

    def on_respawn(self, rank: int) -> None:
        """A replacement process for ``rank`` has been provided."""

    # --- recovery lifecycle ---------------------------------------------------
    def on_recovery_start(self, ranks: list[int], *, localized: bool) -> None:
        """A recovery protocol is about to restore ``ranks``.

        ``localized`` is ``True`` when only the failed ranks will be restored
        and the survivors keep their state (log-based recovery, §7) — an
        interceptor that keeps per-rank history (e.g. the put/get log) must
        then *preserve* it across the respawn, because the log is exactly what
        reconstructs the restored ranks' windows.
        """

    def on_recovery_complete(self, ranks: list[int]) -> None:
        """The recovery protocol finished restoring ``ranks``."""

    # --- run lifecycle --------------------------------------------------------
    def on_finalize(self) -> None:
        """The application finished; flush statistics."""


#: Its hooks are what a chain holds for a lifecycle hook nobody overrides.
_IDLE = RmaInterceptor()
#: The per-op and the event hooks: ``None`` when nobody overrides one (skipped).
_SKIPPED = {"before_comm", "after_comm", "after_sync",
            "on_kill", "on_checkpoint_stored", "on_qos_decision"}


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
    chain holding one callable — a no-op when no registered interceptor
    overrides it (``None`` for a per-op or event hook: its call site skips it),
    that interceptor's bound method when one does, a loop over the overriding ones
    otherwise.  An interceptor that overrides no per-op hook therefore costs an
    operation nothing, and a hook replaced on a class or an instance after
    registration is not seen until the chain changes.
    """

    def __init__(self) -> None:
        self._interceptors: list[RmaInterceptor] = []
        self._resolve()

    def add(self, interceptor: RmaInterceptor, runtime: "RmaRuntime") -> None:
        """Register ``interceptor`` and notify it of the runtime."""
        self._interceptors.append(interceptor)
        self._resolve()
        interceptor.attach(runtime)

    def remove(self, interceptor: RmaInterceptor) -> None:
        """Unregister ``interceptor`` (no error if absent)."""
        if interceptor in self._interceptors:
            self._interceptors.remove(interceptor)
            self._resolve()

    def _resolve(self) -> None:
        """Rebind every hook to the registered interceptors that override it."""
        for name, default in vars(RmaInterceptor).items():
            if name.startswith(("on_", "before_", "after_")):
                per_op = name.endswith(("_comm", "_sync"))
                hooks = [getattr(i, name) for i in self._interceptors]
                hooks = [h for h in hooks if getattr(h, "__func__", None) is not default]
                if len(hooks) > 1:
                    hooks = [_each(hooks, per_op)]
                idle = None if name in _SKIPPED else getattr(_IDLE, name)
                setattr(self, name, hooks[0] if hooks else idle)

    def __iter__(self):
        return iter(self._interceptors)

    def __len__(self) -> int:
        return len(self._interceptors)
