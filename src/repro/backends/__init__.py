"""Pluggable RMA backends: window storage + operation execution strategies.

A backend decides *where window memory lives* and *how a completed batch of
operations is applied*; the runtime above it only coordinates epochs,
counters, interceptors and virtual-time costs.  Every backend queues an
operation when it is issued and applies it when its epoch completes (§2.2).
Three backends ship:

* :class:`SimBackend` (``"sim"``, the default) — applies a completed batch one
  operation at a time in issue order, the reference the others are diffed
  against;
* :class:`VectorBackend` (``"vector"``) — applies each ``(window, target)``
  slab's back-to-back puts as one numpy slice write;
* :class:`ProcBackend` (``"proc"``, POSIX platforms) — each rank is a real OS
  process applying its queued operations (merged like ``vector``'s, by the
  same coalescer: a run is one wire record) to windows in shared memory; real
  ``SIGKILL`` deaths surface through the same fail-stop path as simulated
  failures (loaded and registered on first use, where :func:`proc_available` holds).

Select one with ``repro.launch(..., backend="vector")`` or
``RmaRuntime(cluster, backend=...)``; both accept a name or a ready
:class:`Backend` instance, resolved by :func:`make_backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.backends.base import Backend, apply_action
from repro.backends.sim import SimBackend
from repro.backends.vector import VectorBackend
from repro.errors import BackendError
from repro.registry import register_kind, resolve_component

if TYPE_CHECKING:
    from repro.backends.proc import ProcBackend, SharedWindow, proc_available

_PROC = dict.fromkeys(("ProcBackend", "SharedWindow", "proc_available"), "repro.backends.proc")
__all__, __getattr__, __dir__ = lazy_exports(__name__, _PROC)
__all__ += ["Backend", "SimBackend", "VectorBackend", "BACKENDS", "apply_action", "make_backend"]

#: Registry of constructable backends, by name; :mod:`repro.backends.proc` adds
#: ``"proc"`` when imported (the registry loads it for an unknown name or a listing).
BACKENDS: dict[str, type[Backend]] = {
    SimBackend.name: SimBackend,
    VectorBackend.name: VectorBackend,
}
register_kind("backend", BACKENDS)


def make_backend(spec: "str | Backend | None") -> Backend:
    """Resolve a backend specification into a fresh (or given) instance.

    ``None`` means the default (``"sim"``); a string is looked up in
    :data:`BACKENDS`; a :class:`Backend` instance is passed through so tests
    and instrumented runs can inject custom implementations.
    """
    return resolve_component(
        "backend", spec, BACKENDS, Backend, BackendError, default=SimBackend.name
    )
