"""Log-driven replay of a deterministic re-execution (§7, log-based recovery).

Localized recovery restores *only* the failed ranks from the checkpoint and
keeps every survivor's state.  The job then re-executes its deterministic
step loop from the checkpoint's step — but most of that re-execution already
happened: every communication action that *completed* before the crash is in
the put/get :class:`~repro.ft.checkpoint.ActionLog`, its effects are already
part of the survivors' memory, and re-applying it would corrupt them (the
paper's ``M`` flag problem for combining puts, §3.2.3).

A :class:`ReplayCursor` installed on the runtime solves this by *suppressing*
re-issued actions that match the log:

* because the schedule is deterministic, a re-execution issues, per
  ``(src, trg)`` pair, exactly the sequence of actions the log recorded for
  that pair — the cursor matches each issued action against the head of its
  pair's queue (payloads recomputed from divergent survivor state do not
  matter: the *logged* action is what gets applied or served);
* a matched **put-like** action is not executed again against survivors; if
  its target is one of the *restoring* ranks, its logged operand is applied
  directly to the restored window — this is the replay that reconstructs the
  failed ranks' post-checkpoint state;
* a matched **get-like** action is served its logged data, so the re-executed
  program observes the values of the original execution even though survivor
  windows have advanced past them.

The cursor is *step-aligned*.  The log carries a marker per completed job
step — ``FtStack.end_step`` records one when the kernels of a step have
finished and another after the step-closing sync — splitting it into fully-completed
steps and the partial work of the step the crash aborted.  While the full steps replay, survivors' windows are
scratch space — their re-executed local stores write on top of post-crash
state and produce garbage, but nothing reads it (gets are served from the
log).  At the boundary where the full steps are drained, the survivors'
windows are restored from the crash-time snapshot taken at recovery, which
by construction is exactly their state at that boundary; the partial step
then replays its completed prefix the same way and normal execution resumes
seamlessly where the original left off.

Only the failed ranks perform real work during replay (their lost computation
is re-executed for real); survivors merely re-derive values they already hold,
so the runtime suppresses their compute charges — in a real system they would
be waiting for the recovering processes (§4.2).

Contract: replay is exact for deterministic kernels whose local window
stores within a step precede any operation of that step that completes
*later* than the stores (the shipped kernels and the session's step
structure satisfy this by construction: completions happen at collectives
and blocking calls, and the boundary markers bracket the kernels' local
work).  A kernel that interleaves a local store *after* an operation that
only completes at the step-closing sync would re-apply that store if the
crash hit exactly that sync — prefer ``GlobalRollback`` for such kernels.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RecoveryError
from repro.rma.actions import CommAction, OpKind, apply_accumulate
from repro.rma.window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["ReplayCursor", "replay_apply"]

#: ``rank -> window -> data``: survivor window contents at crash time.
SurvivorSnapshot = dict[int, dict[str, np.ndarray]]


def replay_apply(logged: CommAction, win: Window) -> int:
    """Re-apply one logged put-like action to a restored window.

    Uses the *operand* the action was issued with (completion may have
    overwritten ``data`` with fetched values).  Pure gets mutate nothing.
    Returns the number of bytes written.
    """
    operand = logged.operand if logged.operand is not None else logged.data
    if logged.kind is OpKind.GET:
        return 0
    if logged.kind is OpKind.PUT:
        win.write(logged.trg, logged.offset, operand)
    elif logged.kind is OpKind.COMPARE_AND_SWAP:
        view = win.view(logged.trg, logged.offset, logged.count)
        if np.array_equal(view.copy(), logged.compare):
            view[...] = operand
    else:  # accumulate-style: deterministic re-application in issue order
        view = win.view(logged.trg, logged.offset, logged.count)
        apply_accumulate(view, np.asarray(operand, dtype=win.dtype), logged.op)
    return logged.nbytes


class _PairQueues:
    """Per-(src, trg) FIFO queues over a slice of the log."""

    def __init__(self, actions: list[CommAction]) -> None:
        self.queues: dict[tuple[int, int], deque[CommAction]] = {}
        for action in actions:
            self.queues.setdefault((action.src, action.trg), deque()).append(action)
        self.remaining = len(actions)

    def head(self, action: CommAction) -> CommAction | None:
        queue = self.queues.get((action.src, action.trg))
        return queue[0] if queue else None

    def pop(self, action: CommAction) -> CommAction:
        logged = self.queues[(action.src, action.trg)].popleft()
        self.remaining -= 1
        return logged


class ReplayCursor:
    """Step-aligned suppression state for one localized recovery."""

    def __init__(
        self,
        actions: list[CommAction],
        restoring: set[int],
        *,
        partial_start: int | None = None,
        survivor_snapshot: SurvivorSnapshot | None = None,
    ) -> None:
        #: Ranks whose windows were restored from the checkpoint and are being
        #: reconstructed by this replay.
        self.restoring = frozenset(restoring)
        if partial_start is None:
            partial_start = len(actions)
        self._full = _PairQueues(actions[:partial_start])
        self._partial = _PairQueues(actions[partial_start:])
        self._snapshot: SurvivorSnapshot = survivor_snapshot or {}
        # With no fully-completed steps to replay, survivor windows never
        # become scratch space: the partial phase is live immediately.
        self._partial_active = self._full.remaining == 0
        self._survivors_restored = self._full.remaining == 0

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether every logged action has been matched by the re-execution."""
        return self._full.remaining == 0 and self._partial.remaining == 0

    @property
    def remaining(self) -> int:
        """Logged actions not yet matched."""
        return self._full.remaining + self._partial.remaining

    def consume(self, action: CommAction) -> CommAction | None:
        """Match an issued action against the active phase's logged queue.

        Returns the logged twin to suppress against (``None`` when the pair's
        queue is empty — the re-execution has passed the crash point for this
        pair and the action must execute normally).  A non-empty queue whose
        head does not match means the re-execution diverged from the original
        schedule, which deterministic kernels cannot do: that is an error, not
        a fallback.
        """
        phase = self._partial if self._partial_active else self._full
        logged = phase.head(action)
        if logged is None:
            return None
        if not self._matches(logged, action):
            raise RecoveryError(
                f"replay diverged: re-execution issued {action.describe()} but "
                f"the log recorded {logged.describe()} for this pair; localized "
                f"recovery requires a deterministic kernel"
            )
        return phase.pop(action)

    # ------------------------------------------------------------------
    def step_boundary(self, runtime: "RmaRuntime") -> bool:
        """Advance the cursor's phase at a job-step boundary.

        Called by ``FtStack.end_step`` after each re-executed step.  Once the
        fully-completed steps have drained, the survivors' windows — scratch
        space until now — are restored from the crash-time snapshot (their
        exact state at this boundary) and the partial crash step's queue
        becomes active.  Returns ``True`` when the whole cursor is exhausted
        and replay mode should end.
        """
        if self._full.remaining == 0 and not self._survivors_restored:
            self.restore_survivors(runtime)
            self._partial_active = True
        return self.exhausted and self._survivors_restored

    def restore_survivors(self, runtime: "RmaRuntime") -> None:
        """Put the snapshotted survivor windows back (idempotent)."""
        if self._survivors_restored:
            return
        self._survivors_restored = True
        for rank, windows in self._snapshot.items():
            for name, data in windows.items():
                runtime.windows.get(name).restore(rank, data)

    # ------------------------------------------------------------------
    @staticmethod
    def _matches(logged: CommAction, issued: CommAction) -> bool:
        return (
            logged.kind is issued.kind
            and logged.window == issued.window
            and logged.offset == issued.offset
            and logged.count == issued.count
            and logged.op is issued.op
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplayCursor(remaining={self.remaining}, "
            f"restoring={sorted(self.restoring)})"
        )
