"""Log-driven replay of a localized recovery (§7, log-based recovery).

Localized recovery restores *only* the failed ranks — windows and Eq. (1)
record — from the checkpoint; the survivors keep their state and wait
(§4.2).  The job re-executes its deterministic step loop from the
checkpoint's step under a :class:`ReplayCursor` over the put/get
:class:`~repro.ft.checkpoint.ActionLog`, which holds every action that
*completed* before the crash, in completion order, with a mark at the end of
every job step and, before a step-closing sync, at the end of its kernels.
The marks split the re-execution:

* the fully-completed steps run the restoring ranks' kernels only; every
  collective still synchronises every live clock, so survivors wait;
* the crash step runs every rank — a kernel is only re-entered at its start —
  until the crash point, from where it is normal execution;
* unless the crash struck the step's closing sync, after the kernels' mark:
  then the step is one more the restoring ranks re-run alone, the survivors'
  operations in flight at the crash stay queued (a replayed gsync completes
  only the running ranks'), and the closing sync, which ends the replay,
  completes them.

Each issued action is matched against the head of its ``(src, trg)`` pair's
logged queue (a deterministic kernel re-issues, per pair, the sequence it
completed; any other head is a divergence).  A matched action is not executed
again: a get is served its logged data, and a restoring rank's put-like is
re-applied with its logged operand when it targets a restoring rank (a
survivor holds its effect already, §3.2.3).  A survivor's put-like towards a
restoring rank is applied by the cursor's walk of the log: before a restoring
rank's matched action, before an action the log does not hold (one past the
crash point, which executes normally), at every collective and at every step
boundary, the walk applies those logged before the restoring ranks' first
unmatched action and issued in an epoch the re-execution has reached (their
GNC tells).  For race-free kernels — a rank's local access to what another
writes is separated from the write by a gsync or by an action of its own the
log holds — that is the original order.  The crash point is reached when
every logged action is matched and the survivors' gsyncs are re-joined.

Eq. (1): until then a survivor's record stays at the crash point — its
matched actions, syncs and re-joined gsyncs move nothing, and a lock on it
fetches its ``SC`` without incrementing it — so every rank's GNC counts the
gsyncs of one execution.

Contract: replay is exact for deterministic, race-free kernels whose
operations complete within their step and whose crash-step local stores give
the same bytes when a survivor that re-runs the crash step makes them again
on its crash-time windows — true when the crash precedes them (the stencil's
update follows its gsync), when they do not read what they write, and moot
when the crash struck the step-closing sync.  A survivor whose kernel had
finished a step a crash then aborts mid-kernel re-runs it: prefer
``GlobalRollback`` for a kernel that folds into its own window in place.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RecoveryError
from repro.rma.actions import _COMPARE_AND_SWAP, CommAction, apply_accumulate
from repro.rma.window import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["ReplayCursor", "replay_apply"]


def replay_apply(logged: CommAction, win: Window) -> int:
    """Re-apply one logged put-like action to a restored window.

    Uses the *operand* the action was issued with (completion may have
    overwritten ``data`` with fetched values).  Pure gets mutate nothing.
    Returns the number of bytes written.
    """
    operand = logged.operand if logged.operand is not None else logged.data
    if not logged.kind.is_put_like:  # a get
        return 0
    if not logged.kind.is_atomic:  # a put
        win.write(logged.trg, logged.offset, operand)
    elif logged.kind is _COMPARE_AND_SWAP:  # one element: scalars compared
        view = win.view(logged.trg, logged.offset, 1)
        if view[0] == logged.compare:
            view[0] = operand
    else:  # accumulate-style: deterministic re-application in issue order
        view = win.view(logged.trg, logged.offset, logged.count)
        apply_accumulate(view, np.asarray(operand, dtype=win.dtype), logged.op)
    return logged.nbytes


class ReplayCursor:
    """The replay of one localized recovery (see the module docstring)."""

    def __init__(
        self, actions: list[CommAction], restoring: set[int], marks: list[int],
        gnc: list[int], joined: int, closing: bool = False,
    ) -> None:
        #: Ranks restored from the checkpoint and reconstructed by this replay.
        self.restoring = frozenset(restoring)
        #: Log marks left to cross before the crash step: one per fully-completed
        #: step, one more per closing sync, and the crash step's kernels' own
        #: when ``closing`` (the crash struck its closing sync).
        self.marks_left = len(marks)
        # Survivors re-run the crash step unless its kernels had all finished.
        crash_step = len(actions) if closing else marks[-1] if marks else 0
        self._log, self._gnc = actions, gnc  # ``gnc``: every rank's at the checkpoint
        self._stop = len(actions)  # the log's own list, read in place: it grows meanwhile
        self._epoch, self._joined = 0, joined  # gsyncs replayed / survivors joined
        #: Log positions the re-execution will issue, per ``(src, trg)`` pair:
        #: the restoring ranks' (whose heads bound the walk), the crash step's.
        self._queues: dict[tuple[int, int], deque[int]] = {}
        for i, action in enumerate(actions):
            if action.src in self.restoring or i >= crash_step:
                self._queues.setdefault((action.src, action.trg), deque()).append(i)
        self._own = [q for (src, _), q in self._queues.items() if src in self.restoring]
        self._left = sum(map(len, self._queues.values()))
        self._walked = 0  # log prefix the walk has passed

    @property
    def exhausted(self) -> bool:
        """Whether the re-execution reached the crash point (or there is none)."""
        return self.marks_left == 0 and self._left == 0 and self._epoch >= self._joined

    @property
    def running(self) -> frozenset[int] | None:
        """The ranks whose kernels run: the restoring set through the steps
        they re-run alone, ``None`` (every rank) in the crash step."""
        return self.restoring if self.marks_left else None

    def consume(self, action: CommAction, runtime: "RmaRuntime") -> CommAction | None:
        """The logged twin an issued action is suppressed against, or ``None``
        when the log does not hold it; raises :class:`~repro.errors.RecoveryError`
        on a divergence."""
        queue = self._queues.get((action.src, action.trg))
        if not queue:
            self.walk(runtime)  # past the crash point: everything logged came first
            return None
        logged = self._log[queue[0]]
        if not (
            logged.kind is action.kind
            and logged.window == action.window
            and logged.offset == action.offset
            and logged.count == action.count
            and logged.op is action.op
        ):
            raise RecoveryError(
                f"replay diverged: re-execution issued {action.describe()} but "
                f"the log recorded {logged.describe()} for this pair; localized "
                f"recovery requires a deterministic kernel"
            )
        if action.src in self.restoring:
            self.walk(runtime)
            if logged.kind.is_put_like and logged.trg in self.restoring:
                self._apply(logged, runtime)
        queue.popleft()
        self._left -= 1
        self._finish_if_exhausted(runtime)
        return logged

    def walk(self, runtime: "RmaRuntime") -> None:
        """Apply the survivors' put-likes towards restoring ranks that precede
        the restoring ranks' first unmatched action, up to the current epoch."""
        end = min((queue[0] for queue in self._own if queue), default=self._stop)
        log, restoring, gnc, epoch = self._log, self.restoring, self._gnc, self._epoch
        for i in range(self._walked, end):
            action = log[i]
            if action.src in restoring:
                continue
            if action.GNC - gnc[action.src] > epoch:  # issued after this epoch
                end = i
                break
            if action.trg in restoring and action.kind.is_put_like:
                self._apply(action, runtime)
        self._walked = max(self._walked, end)

    def gsync(self, runtime: "RmaRuntime") -> frozenset[int]:
        """A replayed gsync, which the survivors joined already: apply what
        completed by it, end its epoch; the ranks whose counters it moves (the
        runtime completes only :attr:`running`'s operations)."""
        self.walk(runtime)
        self._epoch += 1
        self._finish_if_exhausted(runtime)
        return self.restoring

    def step_boundary(self, runtime: "RmaRuntime") -> None:
        """Cross a log mark (``FtStack.end_step``): the end of a fully-completed
        step, of its kernels, or of the crash step's kernels."""
        if not self.marks_left:
            raise RecoveryError(
                f"replay diverged: the re-executed crash step ended short of the "
                f"crash point ({self._left} logged actions unissued); localized "
                f"recovery requires a deterministic kernel"
            )
        self.walk(runtime)
        self.marks_left -= 1
        self._finish_if_exhausted(runtime)

    def _finish_if_exhausted(self, runtime: "RmaRuntime") -> None:
        if self.exhausted:  # apply what is left, leave replay mode
            self.walk(runtime)
            runtime.cluster.metrics.incr("ft.replays_completed")
            runtime.end_replay()

    @staticmethod
    def _apply(logged: CommAction, runtime: "RmaRuntime") -> None:
        """Re-apply a logged put-like to its restoring target, charging the copy."""
        nbytes = replay_apply(logged, runtime.windows.get(logged.window))
        cluster = runtime.cluster
        cluster.advance(logged.trg, cluster.costs.local_copy(nbytes), kind="protocol")
        cluster.metrics.incr("ft.replayed_bytes", nbytes, rank=logged.trg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReplayCursor({self.marks_left} marks left, restoring {sorted(self.restoring)})"
