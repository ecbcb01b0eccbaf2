"""Recording and querying the RMA orders ``po``, ``so``, ``hb`` and ``co`` (§2.3).

An :class:`OrderRecorder` is an interceptor: registered on a runtime
(``runtime.add_interceptor(OrderRecorder())``) it records every action the
normal pipeline issues — not the ones a divert resolves — and reconstructs:

* the **program order** ``po`` — actions of one process in issue order;
* the **synchronization order** ``so`` — lock/unlock (and gsync) ordering;
* the **happened-before order** ``hb`` — transitive closure of ``po ∪ so``;
* the **consistency order** ``co`` — actions of one origin towards one target
  issued in different epochs, plus the global order introduced by gsyncs.

These are used by the test-suite to verify the paper's theorems (RMA
consistency of coordinated checkpoints, causal replay ordering) and by the
consistency checker; no runtime records by default because a recorder retains
every action of a run.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.rma.actions import CommAction, SyncAction, SyncKind
from repro.rma.interceptor import RmaInterceptor

__all__ = ["OrderRecorder", "RecordedEvent"]


@dataclass(frozen=True)
class RecordedEvent:
    """A recorded action together with its issue index at its origin."""

    index: int
    action: CommAction | SyncAction

    @property
    def seq(self) -> int:
        """Globally unique sequence number of the underlying action."""
        return self.action.seq


class OrderRecorder(RmaInterceptor):
    """Accumulates actions and answers ordering queries.

    It records a communication action in ``before_comm`` and a synchronization
    action in ``after_sync`` — once issued, respectively once it completed.
    """

    def __init__(self) -> None:
        self.events: list[RecordedEvent] = []
        self._per_rank: dict[int, list[RecordedEvent]] = {}
        #: lock acquisition order per (target, structure): list of event seqs.
        self._lock_chains: dict[tuple[int, str | None], list[RecordedEvent]] = {}
        #: events per gsync generation, used for the global gsync order.
        self._gsync_generations: list[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, action: CommAction | SyncAction) -> None:
        """Append one action to the recorded trace."""
        event = RecordedEvent(index=len(self.events), action=action)
        self.events.append(event)
        self._per_rank.setdefault(action.src, []).append(event)
        if isinstance(action, SyncAction):
            if action.kind in (SyncKind.LOCK, SyncKind.UNLOCK) and action.trg is not None:
                key = (action.trg, action.structure)
                self._lock_chains.setdefault(key, []).append(event)
            if action.kind is SyncKind.GSYNC:
                self._gsync_generations.append(event.seq)

    before_comm = after_sync = record

    # ------------------------------------------------------------------
    # Orders
    # ------------------------------------------------------------------
    def consistency_order(self, a: CommAction, b: CommAction) -> bool:
        """``a co-> b`` for two communication actions.

        Holds when both actions have the same origin and target and ``a`` was
        issued in an earlier epoch, or when they are separated by a gsync
        generation (``a.GNC < b.GNC``).
        """
        if a.GNC < b.GNC:
            return True
        if a.src == b.src and a.trg == b.trg and a.EC < b.EC:
            return True
        return False

    # ------------------------------------------------------------------
    # Happened-before graph
    # ------------------------------------------------------------------
    def build_hb_graph(self) -> dict[int, set[int]]:
        """Build the happened-before graph over all recorded events.

        A successor map ``seq -> {seq, ...}`` with one key per event.  Edges:
        consecutive events of the same process (``po``), lock-chain edges on
        the same target structure (``so``) and gsync edges (every event before
        a gsync at any process happens-before every event after it — the
        paper's optional global ``hb`` of gsync, §3.1.2).
        """
        graph: dict[int, set[int]] = {event.seq: set() for event in self.events}
        # Program order, then synchronization order (lock chains).
        for chain in (*self._per_rank.values(), *self._lock_chains.values()):
            for earlier, later in zip(chain, chain[1:]):
                graph[earlier.seq].add(later.seq)
        # Gsync edges: all members of a generation are mutually synchronized;
        # po already links each process's surrounding events to its gsync call.
        by_generation: dict[int, set[int]] = {}
        for event in self.events:
            action = event.action
            if isinstance(action, SyncAction) and action.kind is SyncKind.GSYNC:
                by_generation.setdefault(action.GNC, set()).add(event.seq)
        for members in by_generation.values():
            for seq in members:
                graph[seq] |= members - {seq}
        return graph

    @staticmethod
    def _reaches(graph: dict[int, set[int]], a: int, b: int) -> bool:
        """Whether ``b`` is reachable from ``a`` (both must be recorded)."""
        if a not in graph or b not in graph:
            return False
        seen, stack = {a}, [a]
        while stack:
            node = stack.pop()
            if node == b:
                return True
            fresh = graph[node] - seen
            seen |= fresh
            stack.extend(fresh)
        return False

    def happens_before(self, a: CommAction | SyncAction, b: CommAction | SyncAction) -> bool:
        """``a hb-> b`` using the recorded trace (may be expensive)."""
        return self._reaches(self.build_hb_graph(), a.seq, b.seq)

    def concurrent_hb(self, a: CommAction | SyncAction, b: CommAction | SyncAction) -> bool:
        """``a ||hb b``: no hb path either way."""
        graph, x, y = self.build_hb_graph(), a.seq, b.seq
        return not self._reaches(graph, x, y) and not self._reaches(graph, y, x)

    # ------------------------------------------------------------------
    # Consistency-condition helpers (Definition 1)
    # ------------------------------------------------------------------
    def checkpoint_is_rma_consistent(
        self, checkpoint_markers: Iterable[CommAction | SyncAction]
    ) -> bool:
        """Check Definition 1 on a set of per-process checkpoint marker events.

        A coordinated checkpoint is RMA-consistent iff all its per-process
        checkpoint actions are pairwise unordered by ``cohb`` (i.e. no marker
        both happens-before and is consistency-ordered before another).
        """
        markers = list(checkpoint_markers)
        graph = self.build_hb_graph()
        for i, a in enumerate(markers):
            for b in markers[i + 1 :]:
                gnc_a, gnc_b = a.GNC, b.GNC
                cohb_ab = gnc_a < gnc_b and self._reaches(graph, a.seq, b.seq)
                cohb_ba = gnc_b < gnc_a and self._reaches(graph, b.seq, a.seq)
                if cohb_ab or cohb_ba:
                    return False
        return True
