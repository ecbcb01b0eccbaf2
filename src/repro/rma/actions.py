"""RMA actions — the formal objects of the paper's model (§2.4).

A *communication action* is the tuple of Eq. (1):

``a = <type, src, trg, combine, EC, GC, SC, GNC, data>``

and its *determinant* (Eq. 2) is the same tuple without the data.  A
*synchronization action* is the tuple of Eq. (3):

``b = <type, src, trg, EC, GC, SC, GNC, str>``.

The counters are:

* ``EC``  — Epoch Counter: epoch of the (src, trg) pair in which the action
  was issued; orders actions of one origin towards one target (``co``).
* ``GC``  — Get Counter: incremented at the origin on every flush it issues;
  orders the origin's gets towards *different* targets (§4.1 B).
* ``SC``  — Synchronization Counter: fetched-and-incremented at the target on
  every lock acquisition; records the ``so`` order of lock-synchronized
  accesses (§4.1 C).
* ``GNC`` — GsyNc Counter: incremented at every process by each gsync; records
  the global ``cohb`` order introduced by gsyncs (§4.1 E).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import OpHandleError, RmaError

__all__ = [
    "ActionCategory",
    "OpKind",
    "SyncKind",
    "AccumulateOp",
    "Counters",
    "CommAction",
    "OpHandle",
    "SyncAction",
    "Determinant",
    "apply_accumulate",
]

_SEQ = itertools.count()


class ActionCategory(enum.Enum):
    """The paper's coarse categorization (Table 1): put/get and four sync kinds."""

    PUT = "put"
    GET = "get"
    LOCK = "lock"
    UNLOCK = "unlock"
    FLUSH = "flush"
    GSYNC = "gsync"


class OpKind(enum.Enum):
    """Concrete communication operations offered by the runtime."""

    PUT = "put"
    GET = "get"
    ACCUMULATE = "accumulate"
    GET_ACCUMULATE = "get_accumulate"
    FETCH_AND_OP = "fetch_and_op"
    COMPARE_AND_SWAP = "compare_and_swap"

    # The traits are read several times per issued operation, so they are
    # plain member attributes computed once here, not properties.
    def __init__(self, label: str) -> None:
        #: Whether the operation transfers data *to* the target (a put).
        self.is_put_like: bool = label != "get"
        #: Whether the operation transfers data *from* the target (a get).
        #: Atomic read-modify-write operations are both puts and gets (Table 1).
        self.is_get_like: bool = label in (
            "get", "get_accumulate", "fetch_and_op", "compare_and_swap"
        )
        #: Whether the operation is a remote atomic.
        self.is_atomic: bool = label not in ("put", "get")
        #: Whether it is a one-element atomic, whose operand, compare value and
        #: fetched value are scalars of the window dtype (never arrays).
        self.is_scalar: bool = label in ("fetch_and_op", "compare_and_swap")
        #: Name of the metric counting completed operations of this kind.
        self.metric: str = f"rma.{label}"


class SyncKind(enum.Enum):
    """Concrete synchronization operations offered by the runtime."""

    LOCK = "lock"
    UNLOCK = "unlock"
    FLUSH = "flush"
    FLUSH_ALL = "flush_all"
    GSYNC = "gsync"
    BARRIER = "barrier"

    def __init__(self, label: str) -> None:
        #: The paper's synchronization category this kind maps to.
        self.category: ActionCategory = {
            "lock": ActionCategory.LOCK,
            "unlock": ActionCategory.UNLOCK,
            "flush": ActionCategory.FLUSH,
            "flush_all": ActionCategory.FLUSH,
        }.get(label, ActionCategory.GSYNC)
        #: Whether this synchronization completes (commits) outstanding accesses.
        self.closes_epoch: bool = label in ("unlock", "flush", "flush_all", "gsync")
        #: Name of the metric counting synchronizations of this kind.
        self.metric: str = f"rma.{label}"


class AccumulateOp(enum.Enum):
    """Combining operators for accumulate-style puts."""

    REPLACE = "replace"
    SUM = "sum"
    PROD = "prod"
    MIN = "min"
    MAX = "max"
    NO_OP = "no_op"  # used by fetch_and_op to implement an atomic read

    def __init__(self, label: str) -> None:
        #: True if the result depends on the previous target value.  The paper
        #: calls puts with this property *combining puts*; replaying them twice
        #: corrupts the target (§4.2), hence the ``M`` flag.  A plain member
        #: attribute, like :class:`OpKind`'s traits: every atomic issue reads it.
        self.combining: bool = label not in ("replace", "no_op")
        #: The ufunc that combines a target and an operand (``None``: replace, no-op).
        ufuncs = {"sum": np.add, "prod": np.multiply, "min": np.minimum, "max": np.maximum}
        self.ufunc = ufuncs.get(label)


#: The members as module globals, resolved once: inside a function Python 3.11
#: reads ``OpKind.PUT`` ≈ 5x slower than a global (``EnumType`` defeats attribute
#: specialisation), so the per-operation paths read these.  Definition order.
_PUT, _GET, _ACCUMULATE, _GET_ACCUMULATE, _FETCH_AND_OP, _COMPARE_AND_SWAP = OpKind
_REPLACE, _SUM, _PROD, _MIN, _MAX, _NO_OP = AccumulateOp


def apply_accumulate(
    target: np.ndarray, operand: np.ndarray, op: AccumulateOp
) -> np.ndarray:
    """Apply ``op`` in place to ``target`` and return the *previous* values."""
    previous = target.copy()
    if op.ufunc is not None:  # sum, prod, min, max
        target[...] = op.ufunc(target, operand)
    elif op is _REPLACE:
        target[...] = operand
    return previous  # a no-op leaves the target as it was


class Counters(NamedTuple):
    """The recovery counters stamped on every action (Eq. 1 and 3)."""

    ec: int = 0
    gc: int = 0
    sc: int = 0
    gnc: int = 0


#: A determinant is the action without its data payload (Eq. 2); it is enough
#: to reconstruct *ordering* information but not to replay the access.
Determinant = tuple


@dataclass(slots=True, init=False)
class CommAction:
    """A communication action (Eq. 1) — and, once issued, its own handle.

    The paper's model is *nonblocking* (§2.2): a communication action becomes
    visible to the rest of the job only when a memory-consistency action
    (flush, unlock, gsync) completes the epoch it was issued in.
    :data:`OpHandle` is the API-level name carrying that distinction:
    ``put_nb``/``get_nb``/``accumulate_nb`` return a handle immediately, and
    the handle's buffer materializes only when the runtime completes it at the
    next ``flush``/``unlock``/``gsync`` towards the target.

    The runtime hands the very object it stamped back to the caller
    (:data:`OpHandle` is this class, so ``handle.action is handle``): one
    record per operation travels from issue through the backend's pending
    queue, the completion stream and the action log.  :attr:`completed` /
    :attr:`discarded` / :meth:`result` are the handle face (§2.2).

    Reading ``result()`` before completion raises
    :class:`~repro.errors.OpHandleError` — by design, since within an open epoch
    the operation's effect is not yet part of the consistent state (§2.2), and a
    backend is free to delay or batch its execution arbitrarily until the epoch
    closes.  A recovery rollback *discards* issued-but-uncompleted handles: their
    effects were never part of any committed checkpoint, so their results must
    not be observed either.

    The record is Eq. (1) flat: the four counters are slots of their own
    (:attr:`counters` builds a :class:`Counters` only when read), and a plain
    ``PUT`` carries its payload as its bytes in the window dtype from issue to
    apply (:attr:`data` reads them back as a read-only array).
    """

    kind: OpKind
    src: int
    trg: int
    window: str
    offset: int
    count: int
    combine: bool
    # Constructor arguments only: their class attributes are the read-side
    # properties below, which ``dataclasses.replace`` reads them back through.
    counters: InitVar[Counters | None]
    op: AccumulateOp
    data: InitVar[np.ndarray | None]
    #: Compare value of a compare-and-swap.
    compare: np.ndarray | None
    #: Unique, monotonically increasing issue id (program order within a run).
    seq: int
    #: Bytes moved over the network by this action.  The runtime stamps
    #: ``count * itemsize`` of the target window at issue; an action built
    #: without a window takes its payload's size, and ``None`` means unknown
    #: (a directly constructed pure get).
    nbytes: int | None
    #: The recovery counters (Eq. 1), one slot each.
    EC: int = field(init=False)
    GC: int = field(init=False)
    SC: int = field(init=False)
    GNC: int = field(init=False)
    #: Element type of the payload: the target window's (``None`` without one).
    dtype: np.dtype | None = field(init=False)
    #: The payload: a ``PUT``'s bytes, else the array :attr:`data` reads.
    _data: bytes | np.ndarray | None = field(init=False, repr=False)
    #: Operand of a put-like atomic, kept once completion overwrites the data.
    _operand: np.ndarray | None = field(init=False, repr=False)
    #: Handle state: set by the completion point that retires the operation,
    #: or by the rollback / suspension that discards it first.
    _completed: bool = field(init=False, repr=False, compare=False)
    _discarded: bool = field(init=False, repr=False, compare=False)

    def __init__(
        self, kind: OpKind, src: int, trg: int, window: str, offset: int, count: int,
        combine: bool, counters: Counters | None = None,
        op: AccumulateOp = AccumulateOp.REPLACE, data: np.ndarray | None = None,
        compare: np.ndarray | None = None, seq: int | None = None, nbytes: int | None = None,
    ) -> None:
        if src < 0 or trg < 0 or offset < 0 or count <= 0:
            raise RmaError(
                f"ranks and offset must be non-negative and count positive, got "
                f"src={src}, trg={trg}, offset={offset}, count={count}"
            )
        self.kind, self.src, self.trg = kind, src, trg
        self.window, self.offset, self.count = window, offset, count
        if compare is not None:  # a CAS's: one element, held 0-d
            compare = np.asarray(compare).reshape(())
        self.combine, self.op, self.compare = combine, op, compare
        self.EC, self.GC, self.SC, self.GNC = (0, 0, 0, 0) if counters is None else counters
        self.dtype = None
        if data is not None:  # a directly built action keeps its payload's own dtype
            data = np.asarray(data)
            self.dtype, nbytes = data.dtype, int(data.nbytes) if nbytes is None else nbytes
            if kind is _PUT:
                data = data.tobytes()
            elif kind.is_scalar:  # a one-element atomic's operand, held 0-d
                data = data.reshape(())
        self._data, self._operand = data, None
        self.seq, self.nbytes = next(_SEQ) if seq is None else seq, nbytes
        self._completed = self._discarded = False

    # The payload, read side --------------------------------------------------
    @property
    def data(self) -> np.ndarray | None:
        """Payload carried by the action: the data written (puts), or the data
        read (gets; ``None`` until completed).  A ``PUT``'s reads back as a
        fresh read-only 1-D view of its bytes."""
        data = self._data
        if data is not None and self.kind is _PUT:
            return np.frombuffer(data, self.dtype)
        return data

    @data.setter
    def data(self, value: np.ndarray | None) -> None:
        self._data = value

    @property
    def operand(self) -> np.ndarray | None:
        """The values the action was *issued* with.  For get-like atomics
        (get_accumulate, fetch_and_op, compare_and_swap) completion overwrites
        :attr:`data` with the fetched previous values; the operand is kept so a
        log-based replay (§7) can re-apply the action to a restored window.  A
        ``PUT``'s is its :attr:`data`; other put-likes' is ``None`` until
        completion, a pure get's always."""
        if self.kind is _PUT:
            return self.data
        return self._operand

    @property
    def counters(self) -> Counters:
        """``(EC, GC, SC, GNC)`` as a :class:`Counters`, built on read."""
        return Counters(self.EC, self.GC, self.SC, self.GNC)

    # The handle face (§2.2) ---------------------------------------------------
    @property
    def action(self) -> "CommAction":
        """The action a handle stands for: itself."""
        return self

    @property
    def completed(self) -> bool:
        """Whether a flush/unlock/gsync has completed this operation."""
        return self._completed

    @property
    def discarded(self) -> bool:
        """Whether a recovery rollback discarded this operation before completion."""
        return self._discarded

    def result(self) -> np.ndarray | None:
        """The operation's buffer, available only after completion.

        For get-like operations this is the data read from the target; for
        pure puts it is ``None`` (completion only guarantees the write is
        visible).  Raises :class:`~repro.errors.OpHandleError` while the
        operation is still in its open epoch or after a rollback discarded it.
        """
        if self._discarded:
            raise OpHandleError(
                f"handle of {self.describe()} was discarded by a recovery "
                f"rollback; its effect was never committed"
            )
        if not self._completed:
            raise OpHandleError(
                f"{self.describe()} is not completed; its buffer "
                f"materializes at the next flush/unlock/gsync towards rank "
                f"{self.trg}"
            )
        return self._data if self.kind.is_get_like else None

    def determinant(self) -> Determinant:
        """The determinant ``#a`` (Eq. 2): the action without its data."""
        return (
            self.kind._value_, self.src, self.trg, self.window, self.offset, self.count,
            self.combine, (self.EC, self.GC, self.SC, self.GNC), self.seq,
        )

    def describe(self) -> str:
        """Short human-readable description, e.g. ``put(3=>7)[off=0,n=4]``."""
        arrow = "=>" if self.kind.is_put_like else "<="
        return (
            f"{self.kind.value}({self.src}{arrow}{self.trg})"
            f"[win={self.window},off={self.offset},n={self.count},"
            f"EC={self.EC},GC={self.GC},SC={self.SC},GNC={self.GNC}]"
        )


#: The handle of an issued operation is the action itself.
OpHandle = CommAction


@dataclass(slots=True, init=False)
class SyncAction:
    """A synchronization action (Eq. 3), its counters flat like :class:`CommAction`'s."""

    kind: SyncKind
    src: int
    #: Target rank; ``None`` encodes the paper's "diamond" (all processes).
    trg: int | None
    #: Optional name of the structure being synchronized (the paper's ``str``).
    structure: str | None
    seq: int
    EC: int = field(init=False)
    GC: int = field(init=False)
    SC: int = field(init=False)
    GNC: int = field(init=False)

    @classmethod
    def issued(
        cls, kind: SyncKind, src: int, trg: int | None, stamp: tuple[int, int, int, int],
        structure: str | None = None,
    ) -> "SyncAction":
        """The one constructor: positional, the stamp a plain ``(EC, GC, SC, GNC)``."""
        self = object.__new__(cls)
        self.kind, self.src, self.trg = kind, src, trg
        self.EC, self.GC, self.SC, self.GNC = stamp
        self.structure, self.seq = structure, next(_SEQ)
        return self

    counters = CommAction.counters

    def determinant(self) -> Determinant:
        """Tuple form used by logs and tests."""
        return (
            self.kind.value, self.src, self.trg, self.structure,
            (self.EC, self.GC, self.SC, self.GNC), self.seq,
        )
