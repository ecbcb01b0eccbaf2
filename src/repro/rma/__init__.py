"""The paper's formal RMA model (§2) and its execution layer (§6).

* :mod:`~repro.rma.actions` — communication/synchronization actions (Eq. 1–3),
  the issued action its own nonblocking handle (issue vs completion),
* :mod:`~repro.rma.counters` — the epochs ``E(p -> q)`` (§2.2) and the recovery
  counters EC/GC/SC/GNC/LC (§4.1), one record per process,
* :mod:`~repro.rma.ordering` — the orders ``po``, ``so``, ``hb``, ``co`` (§2.3),
* :mod:`~repro.rma.table1` — operation categorization across languages (Table 1),
* :mod:`~repro.rma.interceptor` — PMPI-style interposition hooks (§6.1),
* :mod:`~repro.rma.window` — shared memory windows,
* :mod:`~repro.rma.runtime` — the SPMD runtime binding it all to the simulator.
"""

from repro.rma.actions import (
    AccumulateOp,
    ActionCategory,
    CommAction,
    Counters,
    OpHandle,
    OpKind,
    SyncAction,
    SyncKind,
)
from repro.rma.counters import CounterBoard
from repro.rma.interceptor import InterceptorChain, RmaInterceptor
from repro.rma.ordering import OrderRecorder
from repro.rma.runtime import RmaRuntime
from repro.rma.window import Window, WindowRegistry

__all__ = [
    "AccumulateOp",
    "ActionCategory",
    "CommAction",
    "Counters",
    "OpKind",
    "SyncAction",
    "SyncKind",
    "CounterBoard",
    "OpHandle",
    "InterceptorChain",
    "RmaInterceptor",
    "OrderRecorder",
    "RmaRuntime",
    "Window",
    "WindowRegistry",
]
