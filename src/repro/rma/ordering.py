"""The op journal, and the RMA orders ``po``, ``so``, ``hb`` and ``co`` read from it (§2.3).

An :class:`OpJournal` is a job's one record of its RMA actions, kept by the
interceptor chain (``runtime.interceptors.journal``) for the interceptors that
read it: a full tracer and an :class:`OrderRecorder`.  Registered on a runtime
(``runtime.add_interceptor(OrderRecorder())``), a recorder reads every action the
normal pipeline issues — not the ones a divert resolves — and reconstructs, per query:

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

from collections.abc import Iterable, Iterator
from operator import attrgetter

from repro.rma.actions import CommAction, SyncAction, SyncKind
from repro.rma.interceptor import RmaInterceptor

__all__ = ["OP_COMPLETED", "OP_ISSUED", "SYNC_COMPLETED", "OpJournal", "OrderRecorder"]

#: An entry's ``code``: the stream of ``before_comm``, ``after_comm`` or ``after_sync``.
OP_ISSUED, OP_COMPLETED, SYNC_COMPLETED = 0, 1, 2
_NOW = attrgetter("now")


class OpJournal:
    """One job's op stream: ``code, t, record`` per action, flat in :attr:`entries`.

    ``code`` is the stream, ``record`` the action itself (flat and unchanged
    after issue).  An interceptor reads streams by naming their codes in its
    ``reads``; one that also has ``clocks`` has the entries stamped, ``t``
    being the job's makespan (``cluster.elapsed()``: the largest ``now`` over
    them), else ``t`` is ``None``.  A reader reads from its registration to its
    removal; with no reader registered nothing is appended.
    """

    def __init__(self) -> None:
        self.entries: list = []
        self._windows: dict = {}  # reader -> [start, stop or None] into entries

    def hooks(self, interceptors: list) -> dict:
        """The chain's registration rule: opens and closes the readers' windows,
        and returns ``{(id(reader), hook name): append}``, one per stream a registered
        interceptor reads.  The append stands in for the stream's first reader's
        own hook (a reader overrides none), so it runs, and stamps, where that
        reader sits: a full tracer's after the log's charge, before a kill."""
        end, own = len(self.entries), {}
        for reader, window in self._windows.items():
            if window[1] is None and reader not in interceptors:
                window[1] = end
        readers = [i for i in interceptors if getattr(i, "reads", ())]
        for code, name in enumerate(("before_comm", "after_comm", "after_sync")):
            streaming = [i for i in readers if code in i.reads]
            if streaming:
                clocks = next((i.clocks for i in streaming if hasattr(i, "clocks")), None)
                own[id(streaming[0]), name] = _journaling(self.entries.extend, code, clocks)
        for reader in readers:
            self._windows.setdefault(reader, [end, None])
        return own

    def span(self, reader) -> tuple[int, int]:
        """``reader``'s window into :attr:`entries` (all of them, if it never registered)."""
        start, stop = self._windows.get(reader, (0, None))
        return start, len(self.entries) if stop is None else stop

    def read(self, reader, *, consume: bool = False) -> Iterator[tuple]:
        """``(code, t, record)`` of each entry in ``reader``'s window.  ``consume``
        moves its start past them a chunk at a time and drops the entries no window
        reads any more, so a reader encoding them never holds both forms of all."""
        while True:
            start, stop = self.span(reader)
            stop = min(stop, start + 3 * 4096) if consume else stop
            fields = iter(self.entries[start:stop])
            if consume and start < stop:
                self._windows[reader][0] = stop
                drop = min(window[0] for window in self._windows.values())
                del self.entries[:drop]
                for window in self._windows.values():
                    window[:] = [None if at is None else at - drop for at in window]
            yield from zip(fields, fields, fields)
            if not consume or start == stop:
                return


def _journaling(extend, code: int, clocks: list | None):
    """The hook appending ``code`` entries, stamped with the largest ``now`` of ``clocks``."""
    if clocks is None:
        return lambda action: extend((code, None, action))
    return lambda action: extend((code, max(map(_NOW, clocks)), action))


class OrderRecorder(RmaInterceptor):
    """Reads the issued actions and completed syncs and answers ordering queries.

    Registered, it reads the runtime's journal; detached, :meth:`record`
    appends to a journal of its own.  Its graphs are built per query.
    """

    reads = (OP_ISSUED, SYNC_COMPLETED)

    def __init__(self) -> None:
        self._journal = OpJournal()

    def attach(self, runtime) -> None:
        self._journal = runtime.interceptors.journal

    def record(self, action: CommAction | SyncAction) -> None:
        """Append one action to the journal the recorder reads."""
        code = SYNC_COMPLETED if isinstance(action, SyncAction) else OP_ISSUED
        self._journal.entries.extend((code, None, action))

    @property
    def events(self) -> list[CommAction | SyncAction]:
        """The recorded actions, in record order."""
        return [record for code, _, record in self._journal.read(self) if code in self.reads]

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
        events = self.events
        graph: dict[int, set[int]] = {action.seq: set() for action in events}
        per_rank: dict[int, list] = {}
        lock_chains: dict[tuple[int, str | None], list] = {}
        generations: dict[int, set[int]] = {}
        for action in events:
            per_rank.setdefault(action.src, []).append(action)
            if isinstance(action, SyncAction):
                if action.kind in (SyncKind.LOCK, SyncKind.UNLOCK) and action.trg is not None:
                    lock_chains.setdefault((action.trg, action.structure), []).append(action)
                elif action.kind is SyncKind.GSYNC:
                    generations.setdefault(action.GNC, set()).add(action.seq)
        # Program order, then synchronization order (lock chains).
        for chain in (*per_rank.values(), *lock_chains.values()):
            for earlier, later in zip(chain, chain[1:]):
                graph[earlier.seq].add(later.seq)
        # Gsync edges: all members of a generation are mutually synchronized;
        # po already links each process's surrounding events to its gsync call.
        for members in generations.values():
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
