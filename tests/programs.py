"""Seeded random RMA programs — the one generator the backend tests share.

A program is a list of ``(name, *args)`` entries :func:`perform` runs against
a bare :class:`~repro.rma.RmaRuntime`: runtime method calls, plus (with
``faults=True``) the three events after which issued operations stop being
completed the ordinary way — a recovery's ``discard_pending``, a target
excised by a degraded continuation and a target a best-effort delivery mode
suspends.  ``tests/test_coalesce.py`` diffs the fault-free programs across
backends; ``tests/test_op_record.py`` prices the faulty ones against a model.
"""

from collections import defaultdict

import numpy as np

from repro.rma import AccumulateOp, RmaRuntime
from repro.simulator import Cluster

WINDOWS = ("a", "b")
ORIGINS = (0, 1)
HALF = 48  # elements of every slab that one origin owns: origins never race
OPS = tuple(AccumulateOp)


def make_runtime(
    backend: str, dtypes=(np.float64, np.float64), size=2 * HALF, cost_model=None
) -> RmaRuntime:
    rt = RmaRuntime(
        Cluster.simple(4, procs_per_node=2, cost_model=cost_model), backend=backend
    )
    for name, dtype in zip(WINDOWS, dtypes):
        rt.win_allocate(name, size, dtype=dtype)
    return rt


def perform(rt: RmaRuntime, call: tuple):
    """Run one program entry; returns what the runtime call returned."""
    name, *args = call
    if name in ("suspend", "excise"):  # the rank fails, and the failure is observed
        rt.cluster.fail_rank(*args)
        rt.observe_failures()
        return rt.excise_rank(*args) if name == "excise" else None
    return getattr(rt, name)(*args)


def random_program(seed: int, *, faults: bool = False) -> list[tuple]:
    """A race-free random program as ``(method name, *args)`` runtime calls.

    Each origin streams chunks to 2-3 targets per window (a cursor per slab:
    the contiguous runs), interleaved at random, and now and then writes over
    what it streamed, jumps, accumulates into the stream or reads it back.
    A pure get is never overwritten later in its own epoch — ``sim`` reads
    gets when the epoch completes, so the model leaves that order open.
    Epochs close with a ``flush``, a ``flush_all`` or a ``gsync``.

    ``faults=True`` draws from a second stream (the base program of a seed
    stays what it is): a ``flush`` may become a ``lock`` … ``unlock`` around
    the epoch's last operations, everything pending is discarded once
    mid-epoch, one non-origin target is excised right after a ``gsync`` (with
    nothing queued towards it) and another is suspended mid-epoch (with
    operations queued towards it).  Needs a tolerant delivery mode installed.
    """
    rng = np.random.default_rng(seed)
    extra = np.random.default_rng((seed, 1))
    program: list[tuple] = []
    targets = {o: [t for t in rng.permutation(4)[: rng.integers(2, 4)]] for o in ORIGINS}
    victims = sorted({int(t) for ts in targets.values() for t in ts} - set(ORIGINS))
    cursor: dict[tuple, int] = {}
    queued_gets = defaultdict(list)  # (origin, target) -> [(window, lo, hi)]

    def values(n):
        return [int(v) for v in rng.integers(1, 4, size=n)]

    def span(o, n):
        lo = int(rng.integers(o * HALF, (o + 1) * HALF - n + 1))
        return lo, lo + n

    def write(o, t, w, lo, hi, call) -> bool:
        if any(w == gw and lo < ghi and glo < hi for gw, glo, ghi in queued_gets[o, t]):
            return False  # would overwrite a queued get
        program.append(call)
        return True

    for epoch in range(int(rng.integers(6, 10))):
        opened = len(program)
        for _ in range(int(rng.integers(10, 60))):
            o = int(rng.choice(ORIGINS))
            t, w = int(rng.choice(targets[o])), str(rng.choice(WINDOWS))
            n = int(rng.integers(1, 6))
            roll = rng.random()
            if roll < 0.62:  # the stream: starts where the slab's last chunk ended
                lo = cursor.get((o, t, w), o * HALF)
                if lo + n > (o + 1) * HALF:
                    lo = o * HALF  # wrap: a put that jumps
                cursor[o, t, w] = lo + n
                write(o, t, w, lo, lo + n, ("put_nb", o, t, w, lo, values(n)))
            elif roll < 0.72:  # a put over (or beside) the stream, cursor untouched
                lo, hi = span(o, n)
                write(o, t, w, lo, hi, ("put_nb", o, t, w, lo, values(n)))
            elif roll < 0.82:
                lo, hi = span(o, n)
                op = OPS[rng.integers(len(OPS))]
                write(o, t, w, lo, hi, ("accumulate_nb", o, t, w, lo, values(n), op))
            elif roll < 0.90:
                lo, hi = span(o, n)
                queued_gets[o, t].append((w, lo, hi))
                program.append(("get_nb", o, t, w, lo, n))
            else:  # a blocking get-like atomic: completes the o -> t queue behind it
                lo, hi = span(o, 1)
                op = OPS[rng.integers(len(OPS))]
                call = [
                    ("fetch_and_op", o, t, w, lo, values(1)[0], op),
                    ("compare_and_swap", o, t, w, lo, *values(2)),
                    ("get_accumulate", o, t, w, lo, values(1), op),
                ][rng.integers(3)]
                if write(o, t, w, lo, hi, call):
                    queued_gets[o, t].clear()
        if faults and epoch in (1, 4):
            middle = opened + (len(program) - opened) // 2
            if epoch == 1:
                program.insert(middle, ("discard_pending",))
            elif victims:
                program.insert(middle, ("suspend", victims[0]))
        o = int(rng.choice(ORIGINS))
        close = rng.integers(3)
        if close == 0:
            t = int(rng.choice(targets[o]))
            if faults and extra.random() < 0.5:
                back = int(extra.integers(0, min(8, len(program) - opened) + 1))
                program.insert(len(program) - back, ("lock", o, t))
                program.append(("unlock", o, t))
            else:
                program.append(("flush", o, t))
            queued_gets[o, t].clear()
        elif close == 1:
            program.append(("flush_all", o))
            for t in targets[o]:
                queued_gets[o, int(t)].clear()
        else:
            program.append(("gsync",))
            queued_gets.clear()
        if faults and epoch == 2 and len(victims) > 1:
            program += [("gsync",), ("excise", victims[1])]
    program.append(("gsync",))
    return program
