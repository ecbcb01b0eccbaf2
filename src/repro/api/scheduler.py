"""The deterministic cooperative scheduler driving SPMD kernels.

One driver thread executes all ranks.  For each job step the scheduler calls
``kernel(ctx, step)`` for every alive rank the runtime lets run
(:attr:`~repro.rma.runtime.RmaRuntime.replay_running`: while a localized
replay re-executes fully-completed steps, only the restoring ranks), in
ascending rank order:

* a **plain function** runs to completion immediately — fine for kernels
  whose per-rank bodies are independent within a step (atomics, puts into
  disjoint locations);
* a **generator function** is advanced cooperatively: it runs until it yields
  a :class:`~repro.api.context.Collective` token, the scheduler moves on to
  the next rank, and once *every* still-active rank has yielded a matching
  token the collective is performed exactly once on the shared runtime and
  all ranks resume.  This round-robin over suspension points is what makes
  ``yield ctx.gsync()`` inside a kernel behave like a real SPMD collective.

The schedule is a pure function of (kernel, policy, seed, failure schedule):
rank order is fixed, phases advance in lockstep, and the virtual clocks of
the underlying cluster provide the only notion of time — so two runs with
identical inputs produce bit-identical traces and clocks.

Failures are *not* handled here: a :class:`~repro.errors.ProcessFailedError`
raised by any action or collective aborts the step (open generators are
closed so their ``finally`` blocks run) and propagates to the session, which
owns recovery.  The one exception is a failure-tolerant delivery mode
(:mod:`repro.qos`): its :class:`~repro.errors.RankSuspendedError` names a
single suspended rank, so only *that* rank's kernel is abandoned for the
step — survivors keep running, and the session repairs the suspended rank at
the next step boundary.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from repro.api.context import Collective, RankContext
from repro.errors import RankSuspendedError, SchedulerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["CooperativeScheduler", "Kernel"]

#: A kernel: plain function or generator function of ``(ctx, step)``.
Kernel = Callable[[RankContext, int], object]


class CooperativeScheduler:
    """Round-robin driver of per-rank kernels over a shared runtime."""

    def __init__(self, runtime: "RmaRuntime", contexts: list[RankContext]) -> None:
        self.runtime = runtime
        self.contexts = contexts

    # ------------------------------------------------------------------
    def run_step(self, kernel: Kernel, step: int) -> None:
        """Execute ``kernel(ctx, step)`` for every rank, one full SPMD step.

        Raises whatever the kernels or collectives raise — notably
        :class:`~repro.errors.ProcessFailedError` on an observed failure —
        after closing all suspended generators and clearing context state.
        """
        active: list[tuple[RankContext, Generator]] = []
        excised = self.runtime.excised
        running = self.runtime.replay_running
        try:
            for ctx in self.contexts:
                if ctx.rank in excised or (running is not None and ctx.rank not in running):
                    # Ranks removed by a degraded continuation have no
                    # replacement process; the shrunk membership simply skips
                    # them (best-effort mode).  Survivors wait out a replay.
                    continue
                try:
                    result = kernel(ctx, step)
                except RankSuspendedError as exc:
                    if exc.rank != ctx.rank:
                        raise
                    self._note_suspended(ctx)
                    continue
                if inspect.isgenerator(result):
                    active.append((ctx, result))
                else:
                    ctx._check_no_pending_collective()
            while active:
                active = self._run_phase(active)
        except BaseException:
            for ctx, gen in active:
                gen.close()
            for ctx in self.contexts:
                ctx._reset()
            raise

    # ------------------------------------------------------------------
    def _run_phase(
        self, active: list[tuple[RankContext, Generator]]
    ) -> list[tuple[RankContext, Generator]]:
        """Advance every active generator to its next suspension point.

        Returns the ranks still suspended after performing their requested
        collective (once), in rank order.
        """
        requests: list[Collective] = []
        still_active: list[tuple[RankContext, Generator]] = []
        for ctx, gen in active:
            try:
                token = next(gen)
            except StopIteration:
                ctx._check_no_pending_collective()
                continue
            except RankSuspendedError as exc:
                if exc.rank != ctx.rank:
                    raise
                gen.close()
                ctx._reset()
                self._note_suspended(ctx)
                continue
            requests.append(ctx._consume_token(token))
            still_active.append((ctx, gen))
        if not still_active:
            return []
        kinds = set(requests)
        if len(kinds) != 1:
            ranks = [ctx.rank for ctx, _ in still_active]
            raise SchedulerError(
                f"ranks {ranks} yielded mismatched collectives "
                f"{sorted(k.value for k in kinds)} in the same phase; SPMD "
                f"kernels must reach collectives uniformly"
            )
        self._perform(kinds.pop())
        return still_active

    def _note_suspended(self, ctx: RankContext) -> None:
        """Count one abandoned kernel turn of a suspended rank (qos metrics)."""
        delivery = self.runtime.delivery
        if delivery is not None:
            delivery.count("suspended_steps", ctx.rank)

    def _perform(self, kind: Collective) -> None:
        """Execute one collective on the shared runtime."""
        if kind is Collective.GSYNC:
            self.runtime.gsync()
        elif kind is Collective.BARRIER:
            self.runtime.barrier()
        else:  # pragma: no cover - defensive
            raise SchedulerError(f"unknown collective {kind!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CooperativeScheduler(nranks={len(self.contexts)})"
