"""The experiment core: the one method the three engines apply three ways.

The paper's evaluation (§7, Figs. 10–11) is a single protocol — the same
seeded fault load on configurations that differ in one axis, measured against
a failure-free probe — and :mod:`repro.study`, :mod:`repro.chaos` and
:mod:`repro.serve` are that protocol with different specs, per-cell functions
and invariants.  Every session of a cell — probe, reference, trial, soak or
serving run — is one
:meth:`~repro.study.workloads.Workload.run`, which also owns the one policy
for a fault load recovery cannot carry (the run is ``aborted``).  Everything
else they share lives here, once, as plain functions: the paired-seed rule
(:func:`plan_entropy`), spec name validation (:func:`check_names`), the
ordered ``serial | process`` map (:func:`run_grid`), canonical
serialisation (:func:`report_json`, :func:`markdown_table`) and the
exact-vs-ratio regression gate (:func:`baseline_gate`).  The command-line
epilogue the engines share is :func:`repro.cli.engine_main`;
``docs/ARCHITECTURE.md`` tabulates what each engine passes to each.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

import numpy as np

from repro.registry import available, is_registered, plural
from repro.trace.tracer import current_trace_hub

__all__ = [
    "plan_entropy",
    "check_names",
    "run_grid",
    "report_json",
    "markdown_table",
    "baseline_gate",
]


def plan_entropy(*parts: int | str) -> np.random.SeedSequence:
    """The seed sequence of a fault load drawn from exactly ``parts``.

    Integers enter as they are, strings as their ``zlib.crc32`` (stable
    across processes and machines, unlike ``hash``).  Excluding an axis from
    the entropy means not passing it: two cells whose remaining parts agree
    draw the identical load, which is what makes them comparable pairwise.
    An engine passes the same number of parts for every cell —
    ``SeedSequence`` pads with zeros, so a trailing ``0`` alone separates
    nothing.
    """
    return np.random.SeedSequence(tuple(
        zlib.crc32(part.encode()) if isinstance(part, str) else int(part)
        for part in parts
    ))


def check_names(
    pairs: Iterable[tuple[str, Iterable[str]]], error: type[Exception], where: str
) -> None:
    """Raise ``error`` unless every ``(kind, names)`` name is registered.

    ``where`` names the spec in the message (``"campaign spec"`` …), which
    lists the registered choices of the offending kind.
    """
    for kind, names in pairs:
        for name in names:
            if not is_registered(kind, name):
                listing = ", ".join(repr(k) for k in available(kind))
                raise error(
                    f"unknown {kind} {name!r} in {where}; "
                    f"registered {plural(kind)} are: {listing}"
                )


def run_grid(
    fn: Callable,
    tasks: Iterable,
    *,
    executor: str,
    max_workers: int | None = None,
    error: type[Exception],
) -> list:
    """``[fn(task) for task in tasks]``, in order, on the named executor.

    Every task of a grid is an isolated deterministic session, so both
    executors return identical lists; ``"process"`` needs ``fn`` and the tasks
    to pickle, and no active ``tracing()`` hub (its children could not join it).
    The pool is shut down before returning, also when a task raises.
    """
    if executor == "serial":
        return [fn(task) for task in tasks]
    if executor != "process":
        raise error(f"unknown executor {executor!r}; choose 'serial' or 'process'")
    if current_trace_hub() is not None:
        raise error("a traced run cannot use the 'process' executor (its workers cannot "
                    "reach the trace); choose 'serial'")
    from concurrent.futures import ProcessPoolExecutor  # a serial grid never loads it

    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, tasks))


def _comparison_grid(
    fn: Callable,
    base,
    axis: str,
    values: Sequence,
    *,
    backends: Sequence[str] | None,
    stores: Sequence[str] | None,
    error: type[Exception],
) -> list:
    """``fn`` over copies of spec ``base`` on ``backends × stores × values``.

    ``axis`` names the spec field that ``values`` varies; ``backends`` and
    ``stores`` default to ``base``'s own.  Everything else, the seed included,
    is ``base``'s, so every cell faces the identical fault load.
    """
    backends = tuple(backends) if backends is not None else (base.backend,)
    stores = tuple(stores) if stores is not None else (base.store,)
    values = tuple(values)
    if not values or not backends or not stores:
        raise error("comparison axes must be non-empty")
    specs = [
        replace(base, backend=b, store=s, **{axis: v})
        for b in backends
        for s in stores
        for v in values
    ]
    return [fn(spec) for spec in specs]


def report_json(document: dict) -> str:
    """Canonical serialization — byte-identical across re-runs and executors."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A markdown table: header, separator, one line per row, trailing newline."""
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "---|" * len(headers),
        *("| " + " | ".join(str(cell) for cell in row) + " |" for row in rows),
    ]
    return "\n".join(lines) + "\n"


_ABSENT = object()


def _lookup(node: object, parts: Sequence[str]) -> object:
    """Follow a dotted path: lists map element-wise, ``None`` ends the walk
    (a legitimately empty value), a missing key is :data:`_ABSENT`."""
    if not parts or node is None:
        return node
    if isinstance(node, list):
        return [_lookup(item, parts) for item in node]
    if not isinstance(node, dict) or parts[0] not in node:
        return _ABSENT
    return _lookup(node[parts[0]], parts[1:])


def baseline_gate(
    report: dict,
    baseline: dict,
    *,
    exact: Sequence[str | tuple[str, str]],
    ratio: Sequence[tuple],
    max_ratio: float = 2.0,
) -> list[str]:
    """Regression gate against a checked-in baseline report; returns failures.

    Everything an engine reports is virtual-time deterministic, so the gate
    has two field classes, both dotted paths into a cell:

    * ``exact`` — schedule-shaped quantities (counts, plans, digests) that
      must be **equal**.  An entry is a path, or ``(path, message)`` to word
      the failure.
    * ``ratio`` — outcomes that may drift with legitimate cost-model
      retuning but not regress past ``max_ratio ×`` the baseline's.  An entry
      is ``(path, label, format)`` or ``(path, label, format, transform)``;
      the transform maps both sides first (unavailability ``= 1 − a``).
      ``None`` on both sides is an empty measurement and passes; on one side
      only it is a failure.

    A baseline that cannot be compared — another engine's (or no)
    ``meta.engine``, no cells, a cell the report lacks, a gated path absent
    on either side — is a failure, never a vacuous pass.
    """
    engine = report["meta"]["engine"]
    theirs = _lookup(baseline, ("meta", "engine"))
    if theirs != engine:
        found = "none" if theirs in (None, _ABSENT) else repr(theirs)
        return [f"baseline is not a {engine} report (meta.engine: {found})"]
    cells = baseline.get("cells")
    if not cells or not isinstance(cells, dict):
        return [f"baseline {engine} report has no cells to compare against"]
    failures: list[str] = []

    def both(current: dict, base: dict, key: str, path: str) -> tuple | None:
        """Both sides' values at ``path``; an absent one is itself a failure."""
        parts = path.split(".")
        cur, ref = _lookup(current, parts), _lookup(base, parts)
        for value, side in ((ref, "baseline"), (cur, "current report")):
            if value is _ABSENT:
                failures.append(f"{key}: {path} is absent from the {side}")
                return None
        return cur, ref

    for key, base in cells.items():
        current = report["cells"].get(key)
        if current is None:
            failures.append(f"{key}: cell missing from current report")
            continue
        for entry in exact:
            path, message = entry if isinstance(entry, tuple) else (entry, None)
            pair = both(current, base, key, path)
            if pair is not None and pair[0] != pair[1]:
                name = path.rsplit(".", 1)[-1]
                message = message or f"{name} changed from {pair[1]!r} to {pair[0]!r}"
                failures.append(f"{key}: {message}")
        for path, label, fmt, *transform in ratio:
            pair = both(current, base, key, path)
            if pair is None or pair == (None, None):
                continue
            cur, ref = pair
            if cur is None or ref is None:
                failures.append(f"{key}: {label} presence changed ({ref!r} -> {cur!r})")
                continue
            if transform:
                cur, ref = transform[0](cur), transform[0](ref)
            if ref > 0 and cur / ref > max_ratio:
                failures.append(
                    f"{key}: {label} {fmt.format(cur)} is {cur / ref:.2f}x the "
                    f"baseline's {fmt.format(ref)} (allowed {max_ratio:.1f}x)"
                )
    return failures
