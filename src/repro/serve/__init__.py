"""``repro.serve`` — the sharded resilient KV service: a serving workload.

The chaos engine (:mod:`repro.chaos`) prices a failure in infrastructure
units — MTTR and availability — and, for a cell of this package's
``"kv_service"`` workload, also the way a service owner does: **request
latency against an SLO**.  This package is that workload and its request
accounting; it has no engine of its own.  The modules:

* :mod:`repro.serve.shard` — :class:`ShardMap`, multiplicative hashing of
  client keys over rank-owned regions of the shared ``"kv"`` window (hot
  Zipf keys scatter across all shards instead of melting one rank);
* :mod:`repro.serve.traffic` — :class:`RequestGenerator`, the seeded
  open-loop source: a trace of numpy columns (Poisson-many sorted-uniform
  arrivals, Zipf keys, a Bernoulli read/write mix; a :class:`Request` is a
  view made on demand), every request pre-assigned to the ``(frontend rank,
  step)`` that admits it — the localized-replay purity contract;
* :mod:`repro.serve.service` — :class:`KvService`, the ``"kv_service"``
  workload: a kernel over pre-resolved ``(owner, offset)`` lists —
  lock-protected atomic writes, one-sided reads — and per-request
  completion/status columns, truthful under rollback re-execution, replay
  suppression and degraded excision;
* :mod:`repro.serve.slo` — :class:`WindowTracker` (the checkpoint/recovery
  windows of a finished run's trace), the segmented SLO reducer —
  p50/p95/p99, throughput and error rate for steady-state vs
  during-checkpoint vs during-recovery — :class:`ServedRequests`, a
  serving cell's request columns, and the canonical JSONL request log.

Everything is virtual-time deterministic: a seeded serving cell produces
byte-identical request logs and SLO reports across re-runs and the
``sim``/``proc`` backends.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.service import (
        STATUS_DROPPED_WRITE,
        STATUS_OK,
        STATUS_STALE_READ,
        STATUS_UNSERVED,
        STATUSES,
        KvService,
    )
    from repro.serve.shard import ShardMap
    from repro.serve.slo import (
        SEGMENTS,
        ServedRequests,
        WindowTracker,
        build_slo_report,
        load_requests,
        validate_request_row,
        write_requests,
    )
    from repro.serve.traffic import Request, RequestGenerator, trace_lines

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "STATUS_DROPPED_WRITE": "repro.serve.service",
    "STATUS_OK": "repro.serve.service",
    "STATUS_STALE_READ": "repro.serve.service",
    "STATUS_UNSERVED": "repro.serve.service",
    "STATUSES": "repro.serve.service",
    "KvService": "repro.serve.service",
    "ShardMap": "repro.serve.shard",
    "SEGMENTS": "repro.serve.slo",
    "ServedRequests": "repro.serve.slo",
    "WindowTracker": "repro.serve.slo",
    "build_slo_report": "repro.serve.slo",
    "load_requests": "repro.serve.slo",
    "validate_request_row": "repro.serve.slo",
    "write_requests": "repro.serve.slo",
    "Request": "repro.serve.traffic",
    "RequestGenerator": "repro.serve.traffic",
    "trace_lines": "repro.serve.traffic",
})
