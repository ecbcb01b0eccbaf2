"""Pluggable checkpoint stores — *where* checkpoint copies live (§3.1, §3.3, §5).

The paper's protocol separates *when* a checkpoint is taken (coordinated at
epoch boundaries, §3.1; on demand when the put/get log outgrows a threshold,
§6.2) from *where* its copies are placed so that they survive failures.  The
:class:`CheckpointStore` strategy owns the second question.  Four placements
ship:

* :class:`MemoryStore` (``"memory"``, the default) — the paper's diskless
  scheme: every rank keeps a local copy **and** sends a second copy to a
  buddy in a different failure domain (§5).  2x memory overhead; survives any
  failure that does not take a rank and its buddy together.
* :class:`DiskStore` (``"disk"``) — spill every rank's snapshot to a
  directory (the SCR-PFS baseline of §7): slow, but copies survive arbitrary
  node loss, including a rank *and* its buddy.
* :class:`ParityStore` (``"parity"``) — diskless erasure coding (§3.3): each
  rank keeps its local copy, and every t-aware group of ``k`` ranks XORs its
  snapshots into a parity stripe held, chunked, by the members of the *next*
  group (a different set of failure domains).  ~``1 + 1/k`` memory overhead
  instead of 2x; any single failure per group is reconstructed from the
  survivors plus the parity.
* :class:`MultiLevelStore` (``"multilevel"``) — a hierarchy (§5–§7): the
  memory store's copies at every checkpoint, while parity-/disk-class upper
  levels capture a full mirror, priced *incrementally* (action-log dirty
  regions), every n-th checkpoint, so rare large failures are covered without
  paying the far-away placement cost every time.

On the host, every copy kept of a window is a *placement* of its one chain
(:class:`_Chain`): a rank-major ``(nprocs, size)`` image equal to live as of the
newest placement, plus what later placements overwrote; each rank's row of it is
priced as a full copy.  The image has the live window's layout
(:attr:`~repro.rma.window.Window.array`): a checkpoint places every member's row
in one pass — one flat scatter of the change-set, one row-block assignment of the
dense rows — and pays in one :meth:`CheckpointStore._account` call.  Redundancy is
a rule over placements, not more bytes: a version holds one placement number per
window until eviction, and records whose memory failed since
(:attr:`CheckpointVersion.lost`); a store lists a rank's copies in the order it
serves them (:meth:`CheckpointStore._copies`), each naming the ranks whose
placements it needs, and serves the first whose ranks all still hold theirs.  The
read-only ``(rank, window)`` handles are built only when a copy is read.  The
buddy copy and the parity stripe are priced and counted, never built.

Stores are resolved by name through :data:`STORES` (the same convention as
``backend="sim"|"vector"``) and are orthogonal to the
:class:`~repro.ft.recovery.RecoveryProtocol` rules restoring from them.
"""

from __future__ import annotations

import abc
import shutil
import tempfile
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CheckpointError
from repro.ft.groups import buddy_assignment, t_aware_groups
from repro.registry import register_kind, resolve_component

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.rma.runtime import RmaRuntime
    from repro.rma.window import Window

__all__ = [
    "CheckpointVersion",
    "RestorePayload",
    "CheckpointStore",
    "MemoryStore",
    "DiskStore",
    "ParityStore",
    "MultiLevelStore",
    "STORES",
    "make_store",
]

#: Fixed dense rule: a row whose change-set covers more than ``1/_DENSE`` of it
#: keeps its previous values whole in the undo record, not index by index.
_DENSE = 8

_NBYTES = attrgetter("nbytes")  # byte totals from the live arrays, with no Python frame
_PAID = itemgetter(0, 1)  # the ``(rank, nbytes)`` of an ``_account`` entry
_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_NONE = np.empty(0, np.intp)  # no indices (never written to)


def _merged(regions) -> list[tuple[int, int]]:
    """``(offset, count)`` ranges sorted, overlapping and adjacent ones coalesced."""
    spans: list[tuple[int, int]] = []
    for offset, count in sorted(regions) if len(regions) > 1 else regions:
        if spans and offset <= spans[-1][0] + spans[-1][1]:
            last_off, last_cnt = spans[-1]
            spans[-1] = (last_off, max(last_cnt, offset + count - last_off))
        else:
            spans.append((offset, count))
    return spans


def _union(sets) -> np.ndarray:
    """The ascending union of index arrays (``np.unique`` would load ``numpy.ma``)."""
    at = np.concatenate([_NONE, *sets])
    at.sort(kind="stable")  # ascending runs: merged, not re-sorted
    fresh = at[1:] != at[:-1]
    return at if fresh.all() else at[np.append(True, fresh)]  # first, then each new


def _spans(logged: dict, name: str, ranks, size: int) -> np.ndarray:
    """The elements the log's put spans of window ``name`` at ``ranks`` cover,
    merged per row, as ascending flat ``rank * size + i``."""
    starts, counts = [], []
    for rank in ranks:
        spans = logged.get((rank, name), ())
        for offset, count in spans if len(spans) < 2 else _merged(spans):
            starts.append(rank * size + offset)
            counts.append(count)
    if not counts:
        return _NONE
    if counts.count(count) == len(counts):  # spans of one length: an outer sum
        return np.add.outer(starts, np.arange(count)).ravel()
    return np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])


def _differ(live: np.ndarray, image: np.ndarray, among=None) -> np.ndarray:
    """Indices (all, or of those in ``among``, where ``image`` then holds the
    values) at which live differs byte-wise: ``-0.0`` is not ``0.0``, a NaN equals itself."""
    if among is not None:
        live = live[among]
    unsigned = _UNSIGNED.get(live.itemsize)
    if unsigned:  # one pass over same-width unsigned views
        found = live.view(unsigned) != image.view(unsigned)
    else:  # complex, long double: rows of bytes
        rows = live.view(np.uint8) != image.view(np.uint8)
        found = rows.reshape(-1, live.itemsize).any(axis=1)
    found = found.nonzero()[0]
    return found if among is None else among[found]


@dataclass
class CheckpointVersion:
    """One coordinated checkpoint: tags, protocol state and (store-owned) copies."""

    version: int
    tag: Any
    #: Every rank's :class:`~repro.rma.counters.ProcessCounters` at checkpoint
    #: time (EC and the open epochs' op counts, GC/SC/GNC and held locks):
    #: restoring them rolls survivors' epochs back and releases locks acquired
    #: after the checkpoint.
    counter_states: list
    buddy_of: dict[int, int]
    #: Every placed rank's windows, ``rank -> window -> handle``, kept until
    #: eviction: one placement number per window of the store's chains
    #: (:class:`_Placed`).  Each copy a store models is served from them.
    local: _Placed = field(default_factory=lambda: _Placed({}, {}))
    #: Ranks whose memory failed since the placement (:meth:`CheckpointStore.drop_rank`).
    lost: set[int] = field(default_factory=set)

    def holds(self, rank: int) -> bool:
        """Whether ``rank``'s memory still holds its placement of this version."""
        return rank in self.local.ranks and rank not in self.lost


@dataclass(frozen=True)
class RestorePayload:
    """One rank's recovered window contents, with the cost of obtaining them."""

    #: Where the copy came from: ``"local"``, ``"buddy"``, ``"disk"``, ``"parity"``.
    source: str
    #: ``window -> data`` for the restoring rank.
    windows: dict[str, np.ndarray]
    #: Bytes restored into the rank's windows.
    nbytes: int
    #: Virtual-time cost charged on the restoring rank's clock.
    seconds: float
    #: Ranks participating in the transfer, charged the same cost (the buddy
    #: serving its copy, the group members serving a parity reconstruction).
    peers: tuple[int, ...] = ()


def _total(windows: dict) -> int:
    """Bytes of one rank's windows (arrays or placement handles)."""
    return sum(map(_NBYTES, windows.values()))


class _Spilled:
    """A window spilled to ``path``: ``np.asarray`` loads it."""

    __slots__ = ("path",)

    def __init__(self, path: Path) -> None:
        self.path = path

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        data = np.load(self.path)
        return data if dtype is None else data.astype(dtype, copy=False)


class _Placement:
    """Read-only handle on rank ``row``'s row of placement ``k`` of a chain:
    ``np.asarray`` materializes a fresh array of it, ``shape``/``dtype``/``nbytes``
    describe a full copy."""

    __slots__ = ("chain", "k", "row")

    def __init__(self, chain: _Chain, k: int, row: int) -> None:
        self.chain, self.k, self.row = chain, k, row

    shape = property(lambda self: self.chain.image.shape[1:])
    dtype = property(lambda self: self.chain.image.dtype)
    nbytes = property(lambda self: self.chain.image[0].nbytes)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        fresh = self.chain.values(self.k, self.row)
        return fresh if dtype is None else fresh.astype(dtype, copy=False)


class _Placed(Mapping):
    """``rank -> window -> handle`` of what one holder pins: ``placed`` maps each
    window to ``(its chain, the placement number held)`` for the placed ``ranks``
    (a dict, for order and membership); a rank's handles are built when read."""

    def __init__(self, ranks: dict, placed: dict[str, tuple[_Chain, int]]) -> None:
        self.ranks, self.placed = ranks, placed

    def __getitem__(self, rank: int) -> dict[str, _Placement]:
        if rank not in self.ranks:
            raise KeyError(rank)
        return {name: _Placement(chain, k, rank) for name, (chain, k) in self.placed.items()}

    def __contains__(self, rank: object) -> bool:  # no handle built
        return rank in self.ranks

    def __iter__(self):
        return iter(self.ranks)

    def __len__(self) -> int:
        return len(self.ranks)


class _Chain:
    """The placements of one window, every rank's row together: :attr:`image`
    (rank-major, ``nprocs x size``) is live as of the newest placement (number
    :attr:`seq`); ``undo[k]`` turns the next newer placement kept into ``k`` —
    ``(ascending flat indices, k's values there, row -> k's whole row)``: a row
    past a dense change-set is kept whole, the others index by index.  Only a
    placement some holder references (``refs``: holder -> placement number;
    ``pins``: placement -> holders) keeps a record.  A row no placement since
    included (its rank was excised) keeps its bytes."""

    def __init__(self, window: Window, ranks: dict) -> None:
        self.image = window.array.copy()  # the members' rows; a non-member's starts zeroed
        self.image[[r for r in range(window.nprocs) if r not in ranks]] = 0
        self.size, self.seq, self.rows = window.size, 0, list(self.image)  # row views
        self.edges = np.arange(window.nprocs + 1) * window.size  # the rows' flat bounds
        self.undo: dict[int, tuple] = {}
        self.refs: dict[Any, int] = {}
        self.pins: dict[int, int] = {}

    def place(self, window: Window, changed: np.ndarray, compare) -> None:
        """Make the live rows of ``window`` the newest placement.  A row's
        change-set is its part of ``changed`` — the ascending flat indices of the
        log's spans at the ranks not in ``compare`` — or, for a rank of
        ``compare``, where it differs byte-wise.  One gather of the old values,
        one flat scatter of the new ones and one row-block assignment of the
        rows past a dense change-set."""
        k, size, rows = self.seq, self.size, self.rows
        found = {rank: _differ(window.buffers[rank], rows[rank]) for rank in compare}
        bounds = changed.searchsorted(self.edges)
        counts = bounds[1:] - bounds[:-1]  # per row; a compared row's are its differences
        for rank, at in found.items():
            counts[rank] = at.size
        dense = (counts * _DENSE > size).nonzero()[0]  # the rows kept whole in the record
        whole = {rank: rows[rank].copy() for rank in dense.tolist()}
        if found or whole:  # the flat change-set: no whole row, a compared row's differences
            changed = np.concatenate([_NONE, *[
                found[r] + r * size if r in found else changed[bounds[r]:bounds[r + 1]]
                for r in counts.nonzero()[0].tolist() if r not in whole
            ]])
        flat = self.image.reshape(-1)
        self.undo[k] = changed, flat[changed], whole
        flat[changed] = window.array.reshape(-1)[changed]
        if whole:
            self.image[dense] = window.array[dense]
        self.seq = k + 1
        if k not in self.pins:
            self._fold(k)

    def hold(self, holder: Any) -> int:
        """``holder`` now references the newest placement (and no older one)."""
        if holder in self.refs:
            self.release(holder)
        self.refs[holder] = k = self.seq
        self.pins[k] = self.pins.get(k, 0) + 1
        return k

    def release(self, holder: Any) -> None:
        """``holder`` references no placement any more."""
        k = self.refs.pop(holder, None)
        left = self.pins.pop(k, 1) - 1
        if left:
            self.pins[k] = left
        elif k in self.undo:
            self._fold(k)

    def _fold(self, k: int) -> None:
        """Unreferenced, record ``k`` folds into the next older (a referenced one) or goes."""
        upper, older = self.undo.pop(k), max(filter(k.__gt__, self.undo), default=None)
        if older is not None:
            self.undo[older] = self._compose(upper, self.undo[older])

    def _compose(self, upper: tuple, lower: tuple) -> tuple:
        """One undo record for two consecutive ones: ``upper``, then ``lower``."""
        (above, was, rows), (below, held, whole) = upper, lower
        at = np.concatenate((above, below))
        order = at.argsort(kind="stable")  # two ascending runs: one merge pass
        at, values = at[order], np.concatenate((was, held))[order]
        last = np.append(at[1:] != at[:-1], True)  # an index in both: ``lower``'s value wins
        if not last.all():
            at, values = at[last], values[last]
        if rows or whole:  # a row kept whole in either keeps no indices
            keep = np.ones(at.size, bool)
            for row in {**rows, **whole}:
                a, b = at.searchsorted(self.edges[row:row + 2])
                if row not in whole:  # ``upper``'s whole row, ``lower``'s values over it
                    rows[row][at[a:b] - row * self.size] = values[a:b]
                keep[a:b] = False
            at, values = at[keep], values[keep]
        return at, values, {**rows, **whole}

    def values(self, k: int, row: int, among: np.ndarray | None = None) -> np.ndarray:
        """Row ``row`` of placement ``k`` (at the ascending indices ``among``),
        fresh: the image's row with the records newer than ``k`` written back,
        newest first."""
        lo = row * self.size
        out = self.rows[row].copy() if among is None else self.rows[row][among]
        newer = [rec for j, rec in sorted(self.undo.items(), reverse=True) if j >= k]
        for changed, held, whole in newer:
            if row in whole:
                out[:] = whole[row] if among is None else whole[row][among]
                continue
            a, b = changed.searchsorted((lo, lo + self.size))
            at, was = changed[a:b] - lo, held[a:b]
            if among is None:
                out[at] = was
            else:
                both = np.intersect1d(among, at, assume_unique=True, return_indices=True)
                out[both[1]] = was[both[2]]
        return out

    def since(self, k: int, row: int) -> np.ndarray | None:
        """Ascending indices at which rank ``row``'s live row may differ from
        placement ``k`` (``None``: anywhere, a dense change-set came since)."""
        records = [rec for j, rec in self.undo.items() if j >= k]
        if any(row in whole for _, _, whole in records):
            return None
        lo = row * self.size
        return _union([c[slice(*c.searchsorted((lo, lo + self.size)))] - lo
                       for c, _, _ in records])


class CheckpointStore(abc.ABC):
    """Placement strategy for checkpoint copies.

    Lifecycle: the :class:`~repro.ft.checkpoint.CoordinatedCheckpointer`
    binds the store to a runtime, then — between the two barriers of every
    coordinated checkpoint — calls :meth:`prepare` (place copies, charge
    their cost) and, only after the closing barrier confirmed every rank
    completed, :meth:`commit` (publish the version, evict beyond the limit).
    A failure firing during the checkpoint therefore never publishes a
    half-placed version.
    """

    #: Registry name of the store ("memory", "disk", "parity", ...).
    name: str = "abstract"

    def __init__(self, keep_versions: int = 2) -> None:
        if keep_versions < 1:
            raise CheckpointError("the store must keep at least one version")
        self.keep_versions = keep_versions
        self.versions: list[CheckpointVersion] = []
        self._next_version = 0
        self._runtime: RmaRuntime | None = None
        self._chains: dict[str, _Chain] = {}
        #: Per window, the log's put spans of the newest placement's trusted rows
        #: (:func:`_spans`) and the ranks compared instead.
        self.spans: dict[str, tuple] = {}
        self._log: Any = None
        #: Each window's per-rank raw-access stamps as seen by the previous placement;
        #: cleared by an observed failure (its discards and undos bypass the log).
        self.seen: dict[str, list[int]] = {}

    def _account(self, entries: list, store: str | None = None) -> None:
        """Pay for what a placement stored — the single funnel, taking a whole
        checkpoint's ``(rank, nbytes, level, charges, incremental)`` entries:
        ``ft.checkpoint_bytes`` counts each entry's bytes; then, entry by entry,
        each ``(charged rank, seconds)`` of its ``charges`` advances that clock as
        protocol time (in place, as ``VirtualClock.advance`` adds, so each clock
        receives its additions in entry order) and the interceptors'
        ``on_checkpoint_stored`` see the entry as placed by ``store`` (default:
        this store's name)."""
        store = store or self.name
        runtime = self._runtime
        clock_of, stored = runtime._clock_of, runtime.interceptors.on_checkpoint_stored
        runtime.cluster.metrics.incr_ranks("ft.checkpoint_bytes", map(_PAID, entries))
        for rank, nbytes, level, charges, incremental in entries:
            for charged, seconds in charges:
                clock = clock_of[charged]
                clock.now += seconds
                clock.ticks += 1
                clock.protocol += seconds
            if stored is not None:
                stored(store, level, rank, nbytes, incremental)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        """Attach the store to a runtime; compute placement structures.

        A store instance belongs to exactly one job: it holds that job's
        committed versions (and possibly scratch files), so rebinding would
        leak one job's checkpoints into another.  Construct a fresh instance
        per job instead — the same contract as
        :meth:`repro.backends.base.Backend.bind`.
        """
        if self._runtime is not None and self._runtime is not runtime:
            raise CheckpointError(
                f"store {self.name!r} is already bound to a job; stores hold "
                f"checkpoint state and cannot be reused — construct a fresh "
                f"instance per job"
            )
        self._runtime = runtime

    def attach_log(self, log: Any) -> None:
        """Offer the job's :class:`~repro.ft.checkpoint.ActionLog`: its dirty map is
        the change-set of every row whose raw-access stamp stood still (:meth:`_retain`)."""
        self._log = log

    def _logged(self) -> dict | None:
        """The log's put spans per ``(rank, window)``, unmerged; ``None`` (trust
        nothing) unless the log is registered on the runtime, i.e. sees every put."""
        if self._log is None or self._log not in self._runtime.interceptors:
            return None
        return self._log._dirty

    def close(self) -> None:
        """Release external resources (scratch directories); idempotent."""

    # ------------------------------------------------------------------
    # Placement (template methods)
    # ------------------------------------------------------------------
    def prepare(
        self, *, tag: Any, windows: list[Window], ranks: list[int], counter_states: list
    ) -> CheckpointVersion:
        """Place copies of the member ``ranks``' rows of ``windows`` and charge their
        cost; do not publish."""
        version = CheckpointVersion(
            version=self._next_version, tag=tag, counter_states=counter_states, buddy_of={}
        )
        self._place(version, windows, dict.fromkeys(ranks))
        return version

    def commit(self, version: CheckpointVersion) -> CheckpointVersion:
        """Publish a fully-placed version; evict the oldest beyond the limit."""
        version.version = self._next_version
        self._next_version += 1
        self.versions.append(version)
        while len(self.versions) > self.keep_versions:
            self._evict(self.versions.pop(0))
        return version

    @abc.abstractmethod
    def _place(self, version: CheckpointVersion, windows: list[Window], ranks: dict) -> None:
        """Store copies of the member ``ranks``' rows (a dict: ordered, for
        membership) of every window and charge their virtual cost.

        The ``windows`` are live, taken at an epoch boundary: their rows are
        *valid only during* ``_place`` — whatever the store retains it copies
        (:meth:`_retain`), whatever it derives it derives now.
        """

    def _evict(self, version: CheckpointVersion) -> None:
        """Release whatever an evicted version held (placements, disk files)."""
        for chain in self._chains.values():
            chain.release(version.version)

    def _retain(self, version: CheckpointVersion, windows: list[Window], ranks) -> _Placed:
        """Place the members' live rows on the windows' chains; what ``version`` holds.

        A row's change-set is the log's merged put spans when the row is
        *trusted* (a log observes, the rank's raw-access stamp of the window
        stood still, no failure was seen since), a byte-wise compare with its
        newest placement otherwise; the trusted rows' spans and the compared
        ranks are kept in :attr:`spans` for the levels.  Invariant: *a placement differs from live at most where the
        records newer than it say*.  A retried checkpoint's placement replaces
        the aborted one's as its version's reference."""
        logged, seen, placed, self.spans = self._logged(), self.seen, {}, {}
        for window in windows:
            name, stamps, chain = window.name, window.stamps, self._chains.get(window.name)
            if chain is None:
                chain = self._chains[name] = _Chain(window, ranks)
            elif logged is None:
                chain.place(window, _NONE, list(ranks))
            else:
                old = seen.get(name)
                compare = [] if old == stamps else [
                    r for r in ranks if old is None or old[r] != stamps[r]
                ]
                trusted = sorted(set(ranks).difference(compare)) if compare else ranks
                changed = _spans(logged, name, trusted, window.size)
                self.spans[name] = changed, compare
                chain.place(window, changed, compare)
            if logged is not None:
                seen[name] = stamps.copy()
            placed[name] = chain, chain.hold(version.version)
        return _Placed(ranks, placed)

    @staticmethod
    def _sizes(windows: list[Window]) -> list[int]:
        """Each window's bytes per rank."""
        return [window.size * window.itemsize for window in windows]

    # ------------------------------------------------------------------
    # Retrieval: the first copy whose ranks all still hold their placement
    # ------------------------------------------------------------------
    def _copies(self, version: CheckpointVersion, rank: int):
        """``rank``'s copies in ``version``, in the order they are served: ``(source,
        window -> handle, ranks whose placements it needs, price, peers charged)``."""
        if rank in version.local:
            costs = self._runtime.cluster.costs
            yield "local", version.local[rank], (rank,), costs.local_copy, ()

    def _served(self, version: CheckpointVersion, rank: int):
        """The copy of ``rank`` that ``version`` serves (``None``: every one is lost)."""
        for copy in self._copies(version, rank):
            if all(map(version.holds, copy[2])):
                return copy
        return None

    def available(self, version: CheckpointVersion, rank: int) -> bool:
        """Whether ``rank``'s windows can still be recovered from ``version``."""
        return self._served(version, rank) is not None

    def fetch(self, version: CheckpointVersion, rank: int) -> RestorePayload | None:
        """Recover ``rank``'s windows from ``version`` (``None`` if lost)."""
        served = self._served(version, rank)
        if served is None:
            return None
        source, held, _, price, peers = served
        windows = {name: np.asarray(data) for name, data in held.items()}
        nbytes = sum(int(data.nbytes) for data in windows.values())
        return RestorePayload(source, windows, nbytes, price(nbytes), peers)

    def latest(self) -> CheckpointVersion | None:
        """The newest committed version."""
        return self.versions[-1] if self.versions else None

    def latest_usable(self, ranks: list[int]) -> CheckpointVersion | None:
        """The newest version that can still recover every rank of ``ranks``."""
        for version in reversed(self.versions):
            if all(self.available(version, rank) for rank in ranks):
                return version
        return None

    # ------------------------------------------------------------------
    # Failure propagation and accounting
    # ------------------------------------------------------------------
    def drop_rank(self, rank: int) -> None:
        """Propagate a rank failure: every copy that needs its memory is lost."""
        self.seen.clear()
        for version in self.versions:
            version.lost.add(rank)

    def _held_bytes(self, version: CheckpointVersion) -> int:
        """Modelled job memory ``version`` holds: each placement still held."""
        return sum(_total(w) for rank, w in version.local.items() if version.holds(rank))

    def nbytes(self) -> int:
        """Total memory held by the store across all versions."""
        return sum(map(self._held_bytes, self.versions))

    def __len__(self) -> int:
        return len(self.versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(versions={len(self)}, keep={self.keep_versions})"


class MemoryStore(CheckpointStore):
    """The paper's diskless scheme: a local copy plus a buddy copy (§3.1, §5).

    Buddies are spread across level-``level`` failure domains by
    :func:`~repro.ft.groups.buddy_assignment`, so a copy survives exactly the
    failures its original does not.  2x memory overhead; restoring a failed
    rank pulls from its buddy over the network, survivors read locally.
    """

    name = "memory"

    def __init__(self, keep_versions: int = 2) -> None:
        super().__init__(keep_versions)
        self.buddies: dict[int, int] = {}

    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        super().bind(runtime, level=level)
        self.buddies = buddy_assignment(runtime.cluster.placement, level)

    def _place(self, version: CheckpointVersion, windows: list[Window], ranks: dict) -> None:
        costs, excised = self._runtime.cluster.costs, self._runtime.excised
        version.local = self._retain(version, windows, ranks)
        version.buddy_of = {r: b for r, b in self.buddies.items() if r in ranks}
        copied = sum(self._sizes(windows))
        copy, send, entries = costs.local_copy(copied), costs.remote_transfer(copied), []
        for rank in ranks:
            entries.append((rank, copied, "local", ((rank, copy),), False))
            # The buddy copy is served from the same placements; its transfer is
            # charged on both ends.  A buddy removed by a degraded continuation
            # has none: only the local copy exists (nothing is charged to dead memory).
            if self.buddies[rank] not in excised:
                charges = ((rank, send), (self.buddies[rank], copy))
                entries.append((rank, copied, "buddy", charges, False))
        self._account(entries, MemoryStore.name)  # a multilevel store's copies too

    def _copies(self, version: CheckpointVersion, rank: int):
        yield from super()._copies(version, rank)
        if rank in version.local:  # the buddy copy lives as long as the buddy's memory
            buddy, price = version.buddy_of[rank], self._runtime.cluster.costs.remote_transfer
            yield "buddy", version.local[rank], (buddy,), price, (buddy,)

    def _held_bytes(self, version: CheckpointVersion) -> int:
        held, buddy_of = version.local.items(), version.buddy_of
        buddied = sum(_total(w) for r, w in held if version.holds(buddy_of[r]))
        return super()._held_bytes(version) + buddied


class DiskStore(CheckpointStore):
    """Spill snapshots to a directory — the SCR-PFS baseline of §7.

    Copies survive arbitrary node loss (including a rank together with its
    buddy, the :class:`MemoryStore`'s catastrophic case), at parallel-file-
    system cost: every checkpoint and restore is charged through the cost
    model's shared-bandwidth :meth:`~repro.simulator.costs.CostModel.pfs_write`.
    With ``directory=None`` a scratch directory is created at bind time and
    removed by :meth:`close`.
    """

    name = "disk"

    def __init__(self, keep_versions: int = 2, directory: str | Path | None = None) -> None:
        super().__init__(keep_versions)
        self.directory = Path(directory) if directory is not None else None
        self._owns_directory = False
        self._layout: dict[tuple[int, int], dict[str, _Spilled]] = {}
        self._closed = False

    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        if self._closed:
            raise CheckpointError(
                "this DiskStore was closed (its scratch directory is gone); "
                "construct a fresh instance per job"
            )
        super().bind(runtime, level=level)
        if self.directory is None:
            self.directory = Path(tempfile.mkdtemp(prefix="repro-ckpt-"))
            self._owns_directory = True
        else:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _place(self, version: CheckpointVersion, windows: list[Window], ranks: dict) -> None:
        cluster, rank_bytes, entries = self._runtime.cluster, sum(self._sizes(windows)), []
        # Every rank writes concurrently; the PFS bandwidth is shared.
        seconds = cluster.costs.pfs_write(rank_bytes, concurrent_writers=cluster.nprocs)
        for rank in ranks:
            files = {}
            for window in windows:
                path = self.directory / f"v{version.version}_r{rank}_{window.name}.npy"
                np.save(path, window.buffers[rank])
                files[window.name] = _Spilled(path)
            self._layout[(version.version, rank)] = files
            entries.append((rank, rank_bytes, "pfs", ((rank, seconds),), False))
        self._account(entries)

    def _copies(self, version: CheckpointVersion, rank: int):
        # The spill needs no rank's memory (and holds none: nothing counts in nbytes).
        files = self._layout.get((version.version, rank))
        if files is not None:
            yield "disk", files, (), self._runtime.cluster.costs.pfs_read, ()

    def _evict(self, version: CheckpointVersion) -> None:
        for key in [k for k in self._layout if k[0] == version.version]:
            for spilled in self._layout.pop(key).values():
                spilled.path.unlink(missing_ok=True)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._layout.clear()
        if self._owns_directory and self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


class ParityStore(CheckpointStore):
    """Diskless XOR erasure coding across t-aware groups (§3.3, Eq. 6).

    Ranks are partitioned into groups of ``k`` spread over pairwise-distinct
    failure domains (:func:`~repro.ft.groups.t_aware_groups`).  Each rank
    keeps its local snapshot; each group additionally XORs its members'
    snapshots into one parity stripe, split into ``k`` chunks held by the
    members of the *next* group (different failure domains again).  Memory
    overhead is ``~1 + 1/k`` of the window footprint — against the
    :class:`MemoryStore`'s 2x — and any single failure per group is
    reconstructed as ``parity XOR (surviving members' copies)``.  Two
    failures in one group (or a failure plus a lost parity chunk) make the
    version unusable for those ranks, the analogue of losing a rank and its
    buddy.

    The stripe is modelled, not built: its chunks are priced and counted,
    and a reconstruction — which by Eq. 6 equals the member's own placement —
    is served from that placement while every rank it needs (the other
    members, the chunk holders) still holds its own.  ``tests/test_store_images.py``
    rebuilds the stripes from real bytes and checks the algebra.
    """

    name = "parity"

    #: Upper bound on the automatically-chosen group size.
    DEFAULT_MAX_GROUP = 4

    def __init__(self, keep_versions: int = 2) -> None:
        super().__init__(keep_versions)
        self.groups: list[list[int]] = []
        self.group_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    def bind(self, runtime: "RmaRuntime", *, level: int = 1) -> None:
        super().bind(runtime, level=level)
        placement = runtime.cluster.placement
        nprocs = placement.nprocs
        domains = len({placement.element(r, level) for r in range(nprocs)})
        k = next(
            (
                cand
                for cand in range(min(self.DEFAULT_MAX_GROUP, domains), 1, -1)
                if nprocs % cand == 0 and nprocs // cand >= 2
            ),
            0,
        )
        if not k:
            raise CheckpointError(
                f"parity checkpointing needs at least two groups of >=2 ranks "
                f"spread over level-{level} domains; {nprocs} ranks over "
                f"{domains} domains admit no such grouping — use the 'memory' or "
                f"'disk' store"
            )
        self.groups = t_aware_groups(placement, k, level)
        self.group_of = {
            rank: gidx for gidx, group in enumerate(self.groups) for rank in group
        }

    def _holders(self, gidx: int) -> list[int]:
        """Ranks holding group ``gidx``'s parity chunks (the next group)."""
        return self.groups[(gidx + 1) % len(self.groups)]

    # ------------------------------------------------------------------
    def _chunks(self, ranks, sizes) -> list[tuple[int, int]]:
        """``(holder, bytes)`` of each parity chunk of a placement of ``ranks``, per
        group, window (of ``sizes`` bytes) and chunk: the ``np.array_split`` sizes
        of each stripe into ``k`` chunks."""
        k, chunks = len(self.groups[0]), []
        for gidx, group in enumerate(self.groups):
            # Members excised by a degraded continuation were never placed and
            # contribute nothing to the XOR (the identity).
            if any(m in ranks for m in group):
                for nbytes in sizes:
                    chunks += [(h, nbytes // k + (i < nbytes % k))
                               for i, h in enumerate(self._holders(gidx))]
        return chunks

    def _place(self, version: CheckpointVersion, windows: list[Window], ranks: dict) -> None:
        version.local = self._retain(version, windows, ranks)
        sizes = self._sizes(windows)
        costs, rank_bytes = self._runtime.cluster.costs, sum(sizes)
        # The local duplicate plus each rank's contribution to the group-wide
        # XOR reduction (one transfer of its snapshot).
        copy, send = costs.local_copy(rank_bytes), costs.remote_transfer(rank_bytes)
        entries = [(r, rank_bytes, "local", ((r, copy), (r, send)), False) for r in ranks]
        for holder, chunk in self._chunks(ranks, sizes):
            if holder in ranks:  # an excised holder has no memory for it
                charges = ((holder, costs.local_copy(chunk)),)
                entries.append((holder, chunk, "parity", charges, False))
        self._account(entries)

    def _copies(self, version: CheckpointVersion, rank: int):
        yield from super()._copies(version, rank)
        if rank in version.local:  # Eq. 6 rebuilds exactly the member's own placement
            gidx = self.group_of[rank]
            others = {m for m in self.groups[gidx] if m != rank}
            needs = tuple(sorted(others | set(self._holders(gidx))))
            price = self._runtime.cluster.costs.remote_transfer
            yield "parity", version.local[rank], needs, price, needs

    def _held_bytes(self, version: CheckpointVersion) -> int:
        sizes = [chain.image[0].nbytes for chain, _ in version.local.placed.values()]
        chunks = self._chunks(version.local, sizes)
        return super()._held_bytes(version) + sum(
            chunk for holder, chunk in chunks if version.holds(holder)
        )


@dataclass(eq=False)  # hashable by identity: a level is a holder of its chains' placements
class _Level:
    """One upper level of a :class:`MultiLevelStore`."""

    #: Redundancy class of the level: ``"parity"`` (cross-domain transfer
    #: costs) or ``"disk"`` (shared-bandwidth PFS costs).
    kind: str
    #: Capture cadence: update the mirror every ``every``-th committed
    #: checkpoint (the first checkpoint always seeds a full image).
    every: int
    #: Window mirrors at the last capture, ``rank -> window -> handle``: the
    #: placement each chain had then, pinned until the next capture.
    mirrors: _Placed = field(default_factory=lambda: _Placed({}, {}))
    #: Version number the mirrors correspond to (``None`` before any capture).
    captured_version: int | None = None
    #: Dirty write-set accumulated since the last capture from the action log's
    #: spans at every checkpoint: ``window -> [flat indices]`` (:func:`_spans`).
    dirty: dict[str, list[np.ndarray]] = field(default_factory=dict)
    #: Each mirrored window's per-rank raw-access stamps at its capture (as the store's).
    seen: dict[str, list[int]] = field(default_factory=dict)
    #: Captures performed (first is full, the rest incremental).
    captures: int = 0
    #: The capture ``prepare`` placed, published by ``commit``: ``(the chains'
    #: newest placements, the capture, as mirrors to pin; stamps seen)``.
    staged: tuple | None = None


class MultiLevelStore(MemoryStore):
    """Hierarchical multi-level checkpointing with incremental upper levels.

    The paper's cost model (§5–§7) prices a *hierarchy* of failure domains:
    cheap in-memory copies guard single-node loss, while rarer, larger
    failures (a rank **and** its buddy, a whole domain) need copies placed
    further away — at a cost that would be ruinous to pay every checkpoint.
    This store is the :class:`MemoryStore` plus such a hierarchy:

    * the **memory** copies (local plus buddy) are placed at every coordinated
      checkpoint exactly as by the memory store, and reported as its
      placements (store ``"memory"``);
    * each **upper level** (``kind`` ``"parity"`` or ``"disk"``) keeps a full
      mirror of every rank's windows, refreshed only every ``every``-th
      committed checkpoint — and refreshed *incrementally*: the action log's
      put spans, merged across the checkpoints since the level's last
      capture, determine which bytes move; a row whose raw-access stamp moved
      since (a local store the log never sees) is also diffed against the
      mirror.  Moved bytes are metered as ``ft.multilevel_moved_bytes`` against
      the ``ft.multilevel_full_bytes`` a non-incremental level would have shipped.
      On the host a mirror is the chain's current placement, pinned: a capture
      moves no data.  ``levels`` is the per-level cadence
      :meth:`~repro.study.model.IntervalModel.multilevel_intervals` produces.

    A version whose memory copies were lost (buddy pair failed together — the
    :class:`MemoryStore`'s catastrophic case) or evicted stays recoverable as
    long as an upper level captured it: evicted captured versions are kept as
    stripped archives (protocol state only, window data served from the
    mirrors), extending restore reach beyond ``keep_versions``.
    """

    name = "multilevel"

    #: Default hierarchy: a parity-class level every 2nd checkpoint and a
    #: disk-class level every 4th.
    DEFAULT_LEVELS: tuple[tuple[str, int], ...] = (("parity", 2), ("disk", 4))

    #: Level kinds with a defined cost mapping.
    LEVEL_KINDS = ("parity", "disk")

    def __init__(
        self, keep_versions: int = 2, levels: "tuple[tuple[str, int], ...] | None" = None
    ) -> None:
        super().__init__(keep_versions)
        specs = tuple(levels) if levels is not None else self.DEFAULT_LEVELS
        if not specs:
            raise CheckpointError(
                "a multilevel store needs at least one upper level; use the "
                "memory store directly instead"
            )
        self.levels: list[_Level] = []
        for kind, every in specs:
            if kind not in self.LEVEL_KINDS:
                raise CheckpointError(
                    f"unknown multilevel level kind {kind!r}; choose from "
                    f"{list(self.LEVEL_KINDS)}"
                )
            if int(every) < 1:
                raise CheckpointError("level capture cadence must be at least 1")
            self.levels.append(_Level(kind=kind, every=int(every)))
        #: Evicted-but-captured versions, stripped of memory copies: the upper
        #: mirrors still serve their window data.
        self.archived: dict[int, CheckpointVersion] = {}
        self._committed = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, version: CheckpointVersion, windows: list[Window], ranks: dict) -> None:
        super()._place(version, windows, ranks)
        # Cadence counts *committed* checkpoints so that a retried attempt
        # (failure between the barriers) makes the same capture decision and
        # the last attempt before the commit wins.  A capture is published in
        # ``commit``: an aborted one leaves the mirrors and the dirty spans be
        # (a retry adds its spans again, which the union absorbs).
        logged, slot, spans = self._logged(), self._committed + 1, {}
        for name, (changed, compare) in self.spans.items():
            if compare:  # a compared row's puts move at a capture too
                size = self._runtime.windows.get(name).size
                changed = _union([changed, _spans(logged, name, compare, size)])
            spans[name] = changed
        for lvl in self.levels:
            lvl.staged = None
            for name, changed in spans.items():
                lvl.dirty.setdefault(name, []).append(changed)
            if slot == 1 or slot % lvl.every == 0:
                self._capture(lvl, windows, ranks, logged is not None)

    def _capture(self, lvl: _Level, windows: list[Window], ranks: dict, logged: bool) -> None:
        moved, placed, seen = [0] * len(ranks), {}, {}
        for window in windows:
            name, stamps, chain = window.name, window.stamps, self._chains[window.name]
            placed[name] = chain, chain.seq  # a capture moves no host data
            if logged:
                seen[name] = stamps.copy()
            pinned, size = lvl.mirrors.placed.get(name), window.size
            if pinned is None:  # the first capture ships every row whole
                moved = [m + size * window.itemsize for m in moved]
                continue
            dirty = lvl.dirty.get(name) or [_NONE]
            spans = dirty[0] if len(dirty) == 1 else _union(dirty)  # merged, every row's
            bounds = spans.searchsorted(chain.edges).tolist()
            changed = [bounds[rank + 1] - bounds[rank] for rank in ranks]
            # Local stores bypass the completion stream: unless the row is
            # trusted (stamp unmoved since this level's last capture), of the
            # elements some placement since changed (all, past a dense one)
            # those outside the spans still differing from the pinned one move.
            old = lvl.seen.get(name) if logged else None
            for i, rank in enumerate(ranks if old != stamps else ()):
                if old is not None and old[rank] == stamps[rank]:
                    continue
                among, live = chain.since(pinned[1], rank), window.buffers[rank]
                extra = _differ(live, chain.values(pinned[1], rank, among), among)
                done = spans[bounds[rank]:bounds[rank + 1]] - rank * size
                changed[i] += np.setdiff1d(extra, done, assume_unique=True).size
            moved = [m + c * window.itemsize for m, c in zip(moved, changed)]
        cluster, full, writers = self._runtime.cluster, sum(self._sizes(windows)), len(ranks)
        costs = cluster.costs
        seconds = {m: costs.remote_transfer(m) if lvl.kind == "parity"
                   else costs.pfs_write(m, concurrent_writers=writers) for m in set(moved)}
        cluster.metrics.incr_ranks("ft.multilevel_moved_bytes", zip(ranks, moved))
        cluster.metrics.incr_ranks("ft.multilevel_full_bytes", [(r, full) for r in ranks])
        self._account([(r, m, lvl.kind, ((r, seconds[m]),), lvl.captures > 0)
                       for r, m in zip(ranks, moved)])
        lvl.staged = _Placed(ranks, placed), seen

    def commit(self, version: CheckpointVersion) -> CheckpointVersion:
        published = [lvl for lvl in self.levels if lvl.staged is not None]
        for lvl in published:
            # Publish before the memory copies are evicted: pin each chain's newest placement
            # (the one staged), drop the mirrors of ranks excised since the
            # previous capture.  The version numbered in ``prepare`` is final.
            (staged, seen), lvl.staged = lvl.staged, None
            held = {n: (chain, chain.hold(lvl)) for n, (chain, _) in staged.placed.items()}
            lvl.mirrors = _Placed(staged.ranks, held)
            lvl.seen.update(seen)
            lvl.dirty.clear()
            lvl.captured_version = version.version
            lvl.captures += 1
        committed = super().commit(version)
        self._committed += 1
        if published:  # the captured versions moved: drop the archives no level serves
            captured = {lvl.captured_version for lvl in self.levels}
            for vnum in [v for v in self.archived if v not in captured]:
                del self.archived[vnum]
        return committed

    def _evict(self, version: CheckpointVersion) -> None:
        super()._evict(version)
        if any(lvl.captured_version == version.version for lvl in self.levels):
            # An upper level still serves this version's window data; keep
            # the protocol state, drop the (already-evicted) memory copies.
            version.local = _Placed({}, {})
            self.archived[version.version] = version

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def _copies(self, version: CheckpointVersion, rank: int):
        yield from super()._copies(version, rank)
        # A level mirror lives across the failure domain the level guards: it
        # needs no rank's memory.
        costs = self._runtime.cluster.costs
        for lvl in self.levels:
            if lvl.captured_version == version.version and rank in lvl.mirrors:
                price = costs.pfs_read if lvl.kind == "disk" else costs.remote_transfer
                yield f"multilevel-{lvl.kind}", lvl.mirrors[rank], (), price, ()

    def latest_usable(self, ranks: list[int]) -> CheckpointVersion | None:
        archived = sorted(self.archived.values(), key=lambda v: v.version, reverse=True)
        usable = (v for v in archived if all(self.available(v, rank) for rank in ranks))
        return super().latest_usable(ranks) or next(usable, None)

    # ------------------------------------------------------------------
    def drop_rank(self, rank: int) -> None:
        super().drop_rank(rank)
        for lvl in self.levels:
            lvl.seen.clear()

    def nbytes(self) -> int:
        mirrors = sum(_total(w) for lvl in self.levels for w in lvl.mirrors.values())
        return super().nbytes() + mirrors


#: Registry of constructable checkpoint stores, by name.
STORES: dict[str, type[CheckpointStore]] = {
    MemoryStore.name: MemoryStore,
    DiskStore.name: DiskStore,
    ParityStore.name: ParityStore,
    MultiLevelStore.name: MultiLevelStore,
}
register_kind("store", STORES)


def make_store(
    spec: "str | CheckpointStore | None", *, keep_versions: int = 2
) -> CheckpointStore:
    """Resolve a store specification into a fresh (or given) instance.

    ``None`` means the default (``"memory"``); a string is looked up in
    :data:`STORES` (an unknown name raises :class:`CheckpointError` listing the
    registered choices); a :class:`CheckpointStore` instance passes through
    unchanged, its own configuration winning over ``keep_versions``.
    """
    return resolve_component(
        "store", spec, STORES, CheckpointStore, CheckpointError,
        default=MemoryStore.name, keep_versions=keep_versions,
    )
