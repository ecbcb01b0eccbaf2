"""Delivery modes — *what a communication is allowed to do under failure*.

Today's semantics are reliable-or-stall: the moment an operation touches a
failed rank the runtime raises :class:`~repro.errors.ProcessFailedError`,
admission freezes, and a recovery protocol rolls the whole job (or the failed
part of it) back.  "Best-Effort Communication Improves Performance and Scales
Robustly" (arXiv 2211.10897) argues the other end of the spectrum: let
messages toward a failed peer *drop* or return *stale* data, keep the
survivors running at full speed, and quantify the resulting loss of result
quality instead of paying the stall.

:class:`DeliveryMode` is the strategy that picks the point on that spectrum
(registry kind ``"delivery"``, the same convention as ``backend=``/``store=``):

* :class:`Reliable` (``"reliable"``, the default) — exactly today's
  semantics; every path through the runtime behaves as if the mode did not
  exist.
* :class:`BestEffort` (``"best_effort"``) — failed (non-excised) ranks are
  *suspended* rather than fatal: puts toward them drop, gets toward them
  deterministically either drop (observe zeros) or serve *stale* data from
  the newest checkpoint copy, and the suspended rank itself is skipped by the
  scheduler until ``FtStack.repair`` mends it at the next step boundary.

Determinism contract: whether a given operation drops or serves stale data is
a pure function of ``(seed, GNC epoch, per-rank tolerated-op index)`` — all
three identical across the sim/vector/proc backends because the suspended set
changes only at injector-controlled completion-stream positions.  Every
tolerated operation is counted once (:meth:`DeliveryMode.count`) in the
job's per-rank ``qos.*`` metrics, which is what the quality/robustness/speed
comparison (:mod:`repro.qos.engine`) reports.
"""

from __future__ import annotations

import abc
import zlib
from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import QosError
from repro.registry import register_kind, resolve_component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.ft.stores import CheckpointStore
    from repro.rma.actions import CommAction
    from repro.rma.runtime import RmaRuntime
    from repro.rma.window import Window

__all__ = [
    "DeliveryMode",
    "Reliable",
    "BestEffort",
    "DELIVERY_MODES",
    "make_delivery",
]

#: The events a delivery mode counts (as ``qos.<event>`` metrics), in report
#: order.  ``dropped_puts``/``dropped_gets``/``stale_reads``/``dropped_syncs``
#: are attributed to the *origin* (the survivor whose operation was
#: tolerated), ``discarded_inflight``/``suspended_steps``/``repairs`` to the
#: failed rank itself.
_COUNTER_FIELDS = (
    "dropped_puts",
    "dropped_gets",
    "stale_reads",
    "dropped_syncs",
    "discarded_inflight",
    "suspended_steps",
    "repairs",
)


class DeliveryMode(abc.ABC):
    """Strategy deciding what operations toward failed ranks are allowed to do.

    Lifecycle mirrors the other seams: constructed by name through
    :func:`make_delivery`, bound once to a runtime (and the checkpoint store
    it may serve stale reads from) by the fault-tolerance stack, then
    consulted by the runtime on every path that would otherwise raise
    :class:`~repro.errors.ProcessFailedError` for a tolerated rank.
    """

    #: Registry name of the mode ("reliable", "best_effort", ...).
    name: str = "abstract"

    #: Whether failed ranks are suspended (tolerated) instead of fatal.
    tolerates_failures: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        #: When set (the tracer does this in ``install_trace``), receives
        #: ``(event, rank, n)`` for every counted delivery decision.
        self.listener: Callable[[str, int, int], None] | None = None
        self._runtime: "RmaRuntime | None" = None
        self._store: "CheckpointStore | None" = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", store: "CheckpointStore | None") -> None:
        """Attach the mode to a job; one instance per job (like backends)."""
        if self._runtime is not None and self._runtime is not runtime:
            raise QosError(
                f"delivery mode {self.name!r} is already bound to a job; modes "
                f"hold per-job state and cannot be reused — construct a "
                f"fresh instance per job"
            )
        self._runtime = runtime
        self._store = store

    def count(self, event: str, rank: int, n: int = 1) -> None:
        """Record ``n`` occurrences of delivery decision ``event`` at ``rank``:
        one bump of the job's ``qos.<event>`` metric, one listener call."""
        if event not in _COUNTER_FIELDS:
            raise QosError(
                f"unknown qos event {event!r}; counted events are: "
                f"{', '.join(_COUNTER_FIELDS)}"
            )
        self._runtime.cluster.metrics.incr(f"qos.{event}", n, rank=rank)
        if self.listener is not None:
            self.listener(event, rank, n)

    # ------------------------------------------------------------------
    # Policy queries
    # ------------------------------------------------------------------
    def suspended(self, runtime: "RmaRuntime") -> frozenset[int]:
        """Failed ranks this mode tolerates (empty under reliable delivery).

        Derived from the cluster's failed set, which the fault injector
        mutates at identical completion-stream positions on every backend —
        so the answer is backend-independent at every point of the program.
        """
        if not self.tolerates_failures:
            return frozenset()
        return frozenset(
            rank
            for rank in runtime.cluster.failed_ranks()
            if rank not in runtime.excised
        )

    @abc.abstractmethod
    def resolve(
        self, action: "CommAction", win: "Window", runtime: "RmaRuntime"
    ) -> None:
        """Decide the fate of one tolerated operation toward a suspended rank.

        Only called when :meth:`suspended` contains ``action.trg``.  Must
        fill ``action.data`` for get-like kinds (zeros on drop, checkpoint
        data on stale service) and :meth:`count` the event; must
        not touch the suspended rank's (invalidated) window buffer.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _stale_payload(self, action: "CommAction", win: "Window") -> np.ndarray | None:
        """The newest checkpointed copy of the targeted slice (None = none)."""
        if self._store is None:
            return None
        for version in reversed(self._store.versions):
            if not self._store.available(version, action.trg):
                continue
            payload = self._store.fetch(version, action.trg)
            if payload is None or action.window not in payload.windows:
                continue
            data = payload.windows[action.window]
            return np.array(
                data[action.offset : action.offset + action.count],
                dtype=win.dtype, copy=True,
            ).ravel()
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(seed={self.seed})"


class Reliable(DeliveryMode):
    """Today's semantics: any touch of a failed rank is fatal (§2.4).

    The runtime never consults this mode's :meth:`resolve` — with an empty
    suspended set every failure path raises exactly as before the qos
    subsystem existed, which is what keeps the 392-test baseline bit-for-bit.
    """

    name = "reliable"
    tolerates_failures = False

    def resolve(
        self, action: "CommAction", win: "Window", runtime: "RmaRuntime"
    ) -> None:  # pragma: no cover - unreachable by construction
        raise QosError("reliable delivery tolerates no failed targets")


class BestEffort(DeliveryMode):
    """Relaxed delivery: drop or serve stale instead of stalling (2211.10897).

    Puts toward a suspended rank always drop (there is no memory to write).
    Gets deterministically either drop — the origin observes zeros — or are
    served *stale* from the newest checkpoint copy of the target's window;
    the choice hashes ``(seed, GNC, tolerated-op index)`` through crc32, the
    library's seeded-entropy convention, so sim/vector/proc agree bit-for-bit.
    ``stale_fraction`` is the probability mass given to stale service (the
    rest drops); with no usable checkpoint copy a would-be stale read drops.
    """

    name = "best_effort"
    tolerates_failures = True

    def __init__(self, seed: int = 0, stale_fraction: float = 0.5) -> None:
        super().__init__(seed)
        if not 0.0 <= stale_fraction <= 1.0:
            raise QosError(
                f"stale_fraction must be within [0, 1], got {stale_fraction}"
            )
        self.stale_fraction = float(stale_fraction)
        #: Per-origin count of tolerated ops (the deterministic op index).
        self._op_index: dict[int, int] = {}

    def _entropy(self, src: int, gnc: int, index: int) -> float:
        """Uniform-ish [0, 1) from the deterministic drop/stale coordinates."""
        h = 0
        for part in (self.seed, src, gnc, index):
            h = zlib.crc32(int(part).to_bytes(8, "little", signed=True), h)
        return h / 2**32

    def resolve(
        self, action: "CommAction", win: "Window", runtime: "RmaRuntime"
    ) -> None:
        src = action.src
        index = self._op_index.get(src, 0)
        self._op_index[src] = index + 1
        if not action.kind.is_get_like:
            self.count("dropped_puts", src)
            return
        gnc = action.counters.gnc if action.counters is not None else 0
        stale = (
            self.stale_fraction > 0.0
            and self._entropy(src, gnc, index) < self.stale_fraction
        )
        payload = self._stale_payload(action, win) if stale else None
        if payload is None:
            action.data = np.zeros(action.count, dtype=win.dtype)
            self.count("dropped_gets", src)
            return
        action.data = payload
        self.count("stale_reads", src)
        # The stale copy is served from a surviving checkpoint replica: a
        # local memory read, not a remote transfer to dead hardware.
        runtime.cluster.advance(
            src,
            runtime.cluster.costs.local_copy(action.count * win.itemsize),
            kind="comm",
        )


#: Registry of constructable delivery modes, by name.
DELIVERY_MODES: dict[str, type[DeliveryMode]] = {
    Reliable.name: Reliable,
    BestEffort.name: BestEffort,
}
register_kind("delivery", DELIVERY_MODES)


def make_delivery(
    spec: "str | DeliveryMode | None",
    *,
    seed: int = 0,
    error: type[Exception] = QosError,
) -> DeliveryMode:
    """Resolve a delivery-mode specification into a fresh (or given) instance.

    ``None`` means the default (``"reliable"``); a string is looked up in
    :data:`DELIVERY_MODES` (an unknown name raises ``error`` listing the
    registered choices); a :class:`DeliveryMode` instance passes through
    unchanged, its own configuration winning over ``seed``.
    """
    return resolve_component(
        "delivery", spec, DELIVERY_MODES, DeliveryMode, error,
        default=Reliable.name, seed=seed,
    )
