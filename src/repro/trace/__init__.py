"""repro.trace — deterministic end-to-end tracing: the one account of a run.

The observability layer of the reproduction: the RMA interceptor chain
(which also carries kills, checkpoint placements, best-effort decisions and
the session's step, checkpoint and recovery events) and the serve request
lifecycles feed
a single :class:`Tracer` whose events are stamped in virtual time —
byte-identical across the sim, vector and proc backends and across
re-runs, with host-specific facts segregated under
``rt``.  Everything else reads a finished job's ``tracer.events``:
canonical JSONL persistence, span rollups (:func:`summarize`),
first-divergence localization (:func:`first_divergence`), a Chrome-trace
export, and the engines' chaos logs and SLO windows.  Counters live in
the cluster's ``MetricsRegistry`` (``JobReport.metrics``), not here.

CLI: ``python -m repro.trace summarize|diff|export``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.trace.diff import Divergence, first_divergence, render_divergence
    from repro.trace.events import (
        TRACE_EVENT_TYPES,
        TraceWriter,
        canonical_event,
        event_line,
        event_lines,
        load_trace,
        validate_event,
        write_trace,
    )
    from repro.trace.export import to_chrome_trace
    from repro.trace.summary import render_summary, summarize
    from repro.trace.tracer import (
        TraceHub,
        Tracer,
        current_trace_hub,
        install_trace,
        trace_label,
        tracing,
    )

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Divergence": "repro.trace.diff",
    "first_divergence": "repro.trace.diff",
    "render_divergence": "repro.trace.diff",
    "TRACE_EVENT_TYPES": "repro.trace.events",
    "TraceWriter": "repro.trace.events",
    "canonical_event": "repro.trace.events",
    "event_line": "repro.trace.events",
    "event_lines": "repro.trace.events",
    "load_trace": "repro.trace.events",
    "validate_event": "repro.trace.events",
    "write_trace": "repro.trace.events",
    "to_chrome_trace": "repro.trace.export",
    "render_summary": "repro.trace.summary",
    "summarize": "repro.trace.summary",
    "TraceHub": "repro.trace.tracer",
    "Tracer": "repro.trace.tracer",
    "current_trace_hub": "repro.trace.tracer",
    "install_trace": "repro.trace.tracer",
    "trace_label": "repro.trace.tracer",
    "tracing": "repro.trace.tracer",
})
