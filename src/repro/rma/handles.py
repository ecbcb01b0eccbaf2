"""Nonblocking operation handles — issue/completion decoupled (§2.2).

The paper's model is *nonblocking*: a communication action becomes visible to
the rest of the job only when a memory-consistency action (flush, unlock,
gsync) completes the epoch it was issued in.  :data:`OpHandle` is the
API-level name carrying that distinction: ``put_nb``/``get_nb``/
``accumulate_nb`` return a handle immediately, and the handle's buffer
materializes only when the runtime completes it at the next
``flush``/``unlock``/``gsync`` towards the target.

The handle *is* the issued :class:`~repro.rma.actions.CommAction` — one record
per operation, so ``handle.action is handle`` — and its completion state,
:meth:`~repro.rma.actions.CommAction.result` included, lives there.

Reading ``result()`` before completion raises
:class:`~repro.errors.OpHandleError` — by design, since within an open epoch
the operation's effect is not yet part of the consistent state (§2.2), and a
backend is free to delay or batch its execution arbitrarily until the epoch
closes.  A recovery rollback *discards* issued-but-uncompleted handles: their
effects were never part of any committed checkpoint, so their results must
not be observed either.
"""

from __future__ import annotations

from repro.rma.actions import CommAction

__all__ = ["OpHandle"]

#: The handle of an issued operation is the action itself.
OpHandle = CommAction
