"""``repro.serve`` — sharded resilient KV service with open-loop traffic SLOs.

The chaos engine (:mod:`repro.chaos`) prices failures in *infrastructure*
units — MTTR and availability.  This package prices them the way a service
owner does: **request latency against an SLO**.  It promotes the GUPS-style
``kv`` workload into a sharded key-value *service* under seeded open-loop
traffic and asks what each recovery protocol does to the tail.  The layers:

* :mod:`repro.serve.shard` — :class:`ShardMap`, multiplicative hashing of
  client keys over rank-owned regions of the shared ``"kv"`` window (hot
  Zipf keys scatter across all shards instead of melting one rank);
* :mod:`repro.serve.traffic` — :class:`RequestGenerator`, the seeded
  open-loop source: a trace of numpy columns (Poisson-many sorted-uniform
  arrivals, Zipf keys, a Bernoulli read/write mix; a :class:`Request` is a
  view made on demand), every request pre-assigned to the ``(frontend rank,
  step)`` that admits it — the localized-replay purity contract;
* :mod:`repro.serve.service` — :class:`KvService`, the ``"kv_service"``
  study workload: a kernel over pre-resolved ``(owner, offset)`` lists —
  lock-protected atomic writes, one-sided reads — and per-request
  completion/status columns, truthful under rollback re-execution, replay
  suppression and degraded excision;
* :mod:`repro.serve.slo` — :class:`WindowTracker` (checkpoint/recovery
  window observer) and the segmented SLO reducer: p50/p95/p99, throughput
  and error rate for steady-state vs during-checkpoint vs during-recovery;
* :mod:`repro.serve.engine` — :class:`ServeSpec` and the drivers: the
  failure-free probe that anchors the arrival clock, the seeded kill plan
  shared by every cell, :func:`run_service` and :func:`run_slo_comparison`;
* :mod:`repro.serve.report` — JSON/markdown reports, the canonical JSONL
  request log, the comparison invariants (localized recovery-window p99
  strictly below global's; degraded errs but stays flat) and the baseline
  regression gate behind ``python -m repro.serve``.

Everything is virtual-time deterministic: a seeded comparison produces
byte-identical request logs and SLO reports across re-runs and the
``sim``/``proc`` backends.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.engine import (
        ServeResult,
        ServeSpec,
        run_service,
        run_slo_comparison,
    )
    from repro.serve.report import (
        check_against_baseline,
        check_serve_invariants,
        load_requests,
        render_markdown,
        report_json,
        write_requests,
    )
    from repro.serve.service import (
        STATUS_DROPPED_WRITE,
        STATUS_OK,
        STATUS_STALE_READ,
        STATUS_UNSERVED,
        STATUSES,
        KvService,
    )
    from repro.serve.shard import ShardMap
    from repro.serve.slo import SEGMENTS, WindowTracker, build_slo_report
    from repro.serve.traffic import Request, RequestGenerator, trace_lines

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ServeResult": "repro.serve.engine",
    "ServeSpec": "repro.serve.engine",
    "run_service": "repro.serve.engine",
    "run_slo_comparison": "repro.serve.engine",
    "check_against_baseline": "repro.serve.report",
    "check_serve_invariants": "repro.serve.report",
    "load_requests": "repro.serve.report",
    "render_markdown": "repro.serve.report",
    "report_json": "repro.serve.report",
    "write_requests": "repro.serve.report",
    "STATUS_DROPPED_WRITE": "repro.serve.service",
    "STATUS_OK": "repro.serve.service",
    "STATUS_STALE_READ": "repro.serve.service",
    "STATUS_UNSERVED": "repro.serve.service",
    "STATUSES": "repro.serve.service",
    "KvService": "repro.serve.service",
    "ShardMap": "repro.serve.shard",
    "SEGMENTS": "repro.serve.slo",
    "WindowTracker": "repro.serve.slo",
    "build_slo_report": "repro.serve.slo",
    "Request": "repro.serve.traffic",
    "RequestGenerator": "repro.serve.traffic",
    "trace_lines": "repro.serve.traffic",
})
