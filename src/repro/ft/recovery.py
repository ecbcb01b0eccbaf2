"""Recovery dispatch: hand failures to the configured protocol (§4.2–§4.3, §7).

When the application (or the session layer) observes a
:class:`~repro.errors.ProcessFailedError` it calls
:meth:`RecoveryManager.recover`, which delegates to the configured
:class:`~repro.ft.protocols.RecoveryProtocol` strategy — coordinated global
rollback, localized log-based replay, or best-effort degraded continuation —
and returns its :class:`~repro.ft.protocols.RecoveryOutcome`.  The manager
owns no protocol logic itself; it binds the runtime, the checkpointer (whose
store the protocols restore from) and the chosen strategy together.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.ft.checkpoint import ActionLog, CoordinatedCheckpointer
from repro.ft.protocols import RecoveryOutcome, RecoveryProtocol, make_protocol
from repro.ft.stores import CheckpointStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime

__all__ = ["RecoveryManager"]


class RecoveryManager:
    """Binds a runtime, a checkpointer and a recovery protocol strategy."""

    def __init__(
        self,
        runtime: "RmaRuntime",
        checkpointer: CoordinatedCheckpointer,
        protocol: RecoveryProtocol | str | None = None,
    ) -> None:
        self.runtime: RmaRuntime | None = runtime
        self.checkpointer: CoordinatedCheckpointer | None = checkpointer
        self.protocol = make_protocol(protocol)

    # ------------------------------------------------------------------
    @property
    def store(self) -> CheckpointStore:
        """The checkpoint store recovery restores from."""
        if self.checkpointer is None:
            raise RecoveryError(
                "the fault-tolerance stack was uninstalled; this manager is detached"
            )
        return self.checkpointer.store

    @property
    def log(self) -> ActionLog | None:
        """The put/get log, if the stack keeps one."""
        if self.checkpointer is None:
            raise RecoveryError(
                "the fault-tolerance stack was uninstalled; this manager is detached"
            )
        return self.checkpointer.log

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryOutcome:
        """Recover all currently failed ranks via the configured protocol.

        Returns the protocol's :class:`~repro.ft.protocols.RecoveryOutcome`
        (``outcome.tag`` is the restored checkpoint tag for rollback/replay
        protocols).  Raises whatever the protocol raises — see
        :meth:`~repro.ft.protocols.RecoveryProtocol.recover`.
        """
        if self.runtime is None:
            raise RecoveryError(
                "the fault-tolerance stack was uninstalled; this manager is detached"
            )
        return self.protocol.recover(self)

    def detach(self) -> None:
        """Drop the live runtime/checkpointer references (stack uninstalled).

        A detached manager refuses further :meth:`recover` calls instead of
        silently operating on a runtime the stack no longer observes.
        Idempotent.
        """
        self.runtime = None
        self.checkpointer = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "detached" if self.runtime is None else "attached"
        return f"RecoveryManager(protocol={self.protocol.name!r}, {state})"
