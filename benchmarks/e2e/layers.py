"""Outside-in per-layer attribution: timing wrappers on public entry points.

The layer pass is a separate, *traced* run of a workload.  It never feeds the
end-to-end numbers; it explains them.  :data:`SEAMS` is the one table
``layer → [(module, class, public attribute, span group)]`` naming the calls
into each layer (layer = package name under ``repro``); :meth:`Recorder.install`
replaces every one of them, from this process and for this process only, with
a wrapper that records a span — name, start, end, the span that caused it
(through a stack) and the ordinal of the job it ran for — into an in-memory
list.  Nothing is written until the pass has ended (:func:`write_chrome_trace`).

A span's *self time* is its duration minus the part its child spans cover, so
every nanosecond of the pass belongs to exactly one named span or to none
(``bench.unattributed_frac``).  Two seams are too small to time from outside
(``Cluster.is_alive``, ``MetricsRegistry.incr``): they are counted only.

A seam that no longer exists after a refactor is reported with a warning and
turns that layer's metrics into ``None`` — it never raises and never touches
an end-to-end number, because the end-to-end pass does not import this file.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

import repro

__all__ = ["SEAMS", "Recorder", "write_chrome_trace"]

_RUNTIME = "repro.rma.runtime"
_CONTEXT = "repro.api.context"
_CAMPAIGN = "repro.study.campaign"

_NB_ISSUE = ("put_nb", "get_nb", "accumulate_nb")
_BLOCKING = (
    "put", "get", "accumulate", "get_accumulate", "fetch_and_op", "compare_and_swap",
)
_FACADE_COMMON = _NB_ISSUE + ("accumulate",)
_FACADE_CONTEXT = _BLOCKING + _NB_ISSUE + (
    "lock", "unlock", "flush", "flush_all", "gsync", "barrier", "compute",
)

#: layer → [(module, class or None, attribute, span group)].  A class entry
#: also covers every loaded subclass that overrides the attribute, so
#: ``Backend.issue`` means "``issue`` of the concrete backend".
SEAMS: dict[str, list[tuple[str, str | None, str, str]]] = {
    "api": [
        ("repro.api.session", None, "launch", "launch"),
        ("repro.api.session", "Job", "run", "job_run"),
        ("repro.api.scheduler", "CooperativeScheduler", "run_step", "run_step"),
        *[(_CONTEXT, "RankContext", m, "ctx") for m in _FACADE_CONTEXT],
        *[(_CONTEXT, "WindowHandle", m, "ctx") for m in _FACADE_COMMON],
        (_CONTEXT, "WindowHandle", "__getitem__", "ctx"),
        (_CONTEXT, "WindowHandle", "__setitem__", "ctx"),
    ],
    "rma": [
        *[(_RUNTIME, "RmaRuntime", m, "nb_issue") for m in _NB_ISSUE],
        *[(_RUNTIME, "RmaRuntime", m, "blocking") for m in _BLOCKING],
        *[(_RUNTIME, "RmaRuntime", m, "lock") for m in ("lock", "unlock")],
        *[
            (_RUNTIME, "RmaRuntime", m, "sync")
            for m in ("flush", "flush_all", "gsync", "barrier")
        ],
        (_RUNTIME, "RmaRuntime", "compute", "compute"),
        (_RUNTIME, "RmaRuntime", "observe_failures", "observe_failures"),
        (_RUNTIME, "RmaRuntime", "begin_replay", "replay_ctl"),
        (_RUNTIME, "RmaRuntime", "end_replay", "replay_ctl"),
        (_RUNTIME, "RmaRuntime", "replay_step_boundary", "replay_ctl"),
    ],
    "backends": [
        ("repro.backends.base", "Backend", "bind", "bind"),
        ("repro.backends.base", "Backend", "create_window", "bind"),
        ("repro.backends.base", "Backend", "issue", "issue"),
        ("repro.backends.base", "Backend", "complete", "complete"),
        ("repro.backends.base", "Backend", "complete_rank", "complete"),
        ("repro.backends.base", "Backend", "respawn_rank", "respawn"),
    ],
    "ft": [
        ("repro.ft.stack", None, "build_ft_stack", "build_stack"),
        ("repro.ft.checkpoint", "CoordinatedCheckpointer", "checkpoint", "checkpoint"),
        ("repro.ft.stores", "CheckpointStore", "prepare", "store"),
        ("repro.ft.stores", "CheckpointStore", "commit", "store"),
        ("repro.ft.stores", "CheckpointStore", "fetch", "store_fetch"),
        ("repro.ft.stores", "CheckpointStore", "latest_usable", "store_fetch"),
        ("repro.ft.checkpoint", "ActionLog", "after_comm", "log"),
        ("repro.ft.inject", "FaultInjector", "after_comm", "inject"),
        ("repro.ft.recovery", "RecoveryManager", "recover", "recover"),
    ],
    "study": [
        ("repro.study.workloads", "Workload", "run", "session"),
        (_CAMPAIGN, None, "run_campaign", "engine"),
        (_CAMPAIGN, None, "report_json", "report"),
        (_CAMPAIGN, None, "render_markdown", "report"),
        (_CAMPAIGN, None, "check_invariants", "report"),
    ],
}

#: Count-only seams: ``(module, class, attribute, counter name)``.
COUNTED = [
    ("repro.simulator.cluster", "Cluster", "is_alive", "simulator.is_alive"),
    ("repro.simulator.metrics", "MetricsRegistry", "incr", "simulator.metrics_incr"),
]

#: ``MetricsRegistry`` counters summed over the jobs of a pass.
_JOB_COUNTERS = (
    "rma.bytes_moved", "ft.checkpoint_bytes", "ft.multilevel_moved_bytes",
    "ft.multilevel_full_bytes", "ft.restored_bytes", "ft.replayed_bytes",
)

# Spans live in one flat ``array('q')``, five slots each: raw integers keep
# several hundred thousand records invisible to the cyclic garbage collector,
# whose pauses would otherwise land in the measured step times.
_NAME, _PARENT, _JOB, _T0, _T1 = range(5)
_STRIDE = 5


class Recorder:
    """In-memory spans and counts of one layer pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._flat = array("q")
        #: Indices of the open spans, innermost last (-1 = no span open).
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        #: Layers with a seam that could not be found.
        self.missing: dict[str, list[str]] = {}
        #: Ordinal of the job launched last (0 = before any launch).
        self.job = 0
        self.step_ns: list[int] = []
        self._step_mark = 0
        self.job_counters: dict[str, float] = dict.fromkeys(_JOB_COUNTERS, 0.0)
        self.completed_ops = 0
        self.nonempty_completes = 0
        self.logged_bytes = 0
        self.replay_ns = 0
        self._replay_began: int | None = None
        self.wall_ns: tuple[int, int] | None = None
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def timed(self, fn, name: str, before=None, after=None):
        """``fn`` wrapped to record one span per call (hooks are optional)."""
        name_id = self._name_id(name)
        flat, stack, clock = self._flat, self.stack, time.perf_counter_ns
        extend = flat.extend

        if before is None and after is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                base = len(flat)
                extend((name_id, stack[-1], self.job, clock(), 0))
                stack.append(base // _STRIDE)
                try:
                    return fn(*args, **kwargs)
                finally:
                    flat[base + _T1] = clock()
                    stack.pop()

            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if before is not None:
                before(args)
            base = len(flat)
            extend((name_id, stack[-1], self.job, clock(), 0))
            stack.append(base // _STRIDE)
            try:
                result = fn(*args, **kwargs)
            finally:
                flat[base + _T1] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return hooked

    @functools.cached_property
    def spans(self) -> list[tuple[int, int, int, int, int]]:
        """Every span as ``(name id, parent index, job, start ns, end ns)``;
        to be read once the pass has ended (the list is built once)."""
        flat = self._flat
        return [tuple(flat[i : i + _STRIDE]) for i in range(0, len(flat), _STRIDE)]

    def counted(self, fn, name: str):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Hooks on the few seams that carry more than a duration
    # ------------------------------------------------------------------
    def _hooks(self, layer: str, cls: str | None, attr: str):
        """``(before, after)`` for a seam, or ``(None, None)``."""
        if (cls, attr) == (None, "launch"):
            return self._before_launch, self._after_launch
        if (cls, attr) == ("Job", "run"):
            return self._before_job_run, self._after_job_run
        if layer == "backends" and attr in ("complete", "complete_rank"):
            return None, self._after_complete
        if (cls, attr) == ("ActionLog", "after_comm"):
            return self._before_log, None
        if attr in ("begin_replay", "end_replay", "replay_step_boundary"):
            return None, self._after_replay_ctl
        return None, None

    def _before_launch(self, args) -> None:
        self.job += 1  # the launch span itself already belongs to the new job

    def _after_launch(self, args, job) -> None:
        job.add_observer(_StepTimer(self))

    def _before_job_run(self, args) -> None:
        self._step_mark = time.perf_counter_ns()

    def _after_job_run(self, args, report) -> None:
        totals = report.metrics.totals
        for name in _JOB_COUNTERS:
            self.job_counters[name] += totals.get(name, 0.0)

    def _after_complete(self, args, handles) -> None:
        if handles:
            self.completed_ops += len(handles)
            self.nonempty_completes += 1

    def _before_log(self, args) -> None:
        self.logged_bytes += args[1].nbytes

    def _after_replay_ctl(self, args, result) -> None:
        replaying = args[0].replaying
        if replaying and self._replay_began is None:
            self._replay_began = time.perf_counter_ns()
        elif not replaying and self._replay_began is not None:
            self.replay_ns += time.perf_counter_ns() - self._replay_began
            self._replay_began = None

    def step_completed(self) -> None:
        now = time.perf_counter_ns()
        self.step_ns.append(now - self._step_mark)
        self._step_mark = now

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch_method(self, klass: type, attr: str, make) -> None:
        original = klass.__dict__[attr]
        setattr(klass, attr, make(original))
        self._restore.append((klass, attr, original))

    def _patch_function(self, module, attr: str, make) -> None:
        """Rebind a module-level function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if not isinstance(names, dict):
                continue
            for key, value in list(names.items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def _install_seam(self, module: str, cls: str | None, attr: str, make) -> None:
        mod = importlib.import_module(module)
        if cls is None:
            self._patch_function(mod, attr, make)
            return
        base = getattr(mod, cls)
        getattr(base, attr)  # AttributeError if the seam is gone
        pending, seen = [base], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if callable(klass.__dict__.get(attr)):
                self._patch_method(klass, attr, make)

    def install(self) -> None:
        """Wrap every seam of :data:`SEAMS` and :data:`COUNTED`."""
        for layer, seams in SEAMS.items():
            for module, cls, attr, group in seams:
                before, after = self._hooks(layer, cls, attr)
                make = functools.partial(
                    self.timed, name=f"{layer}.{group}", before=before, after=after
                )
                try:
                    self._install_seam(module, cls, attr, make)
                except (ImportError, AttributeError) as exc:
                    self._note_missing(layer, module, cls, attr, exc)
        for module, cls, attr, name in COUNTED:
            try:
                self._install_seam(
                    module, cls, attr, functools.partial(self.counted, name=name)
                )
            except (ImportError, AttributeError) as exc:
                self._note_missing(name.split(".")[0], module, cls, attr, exc)

    def _note_missing(self, layer, module, cls, attr, exc) -> None:
        seam = ".".join(part for part in (module, cls, attr) if part)
        self.missing.setdefault(layer, []).append(seam)
        print(
            f"warning: layer seam {seam} not found ({exc}); "
            f"'{layer}.*' metrics will be null",
            file=sys.stderr,
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # The timed region of the pass
    # ------------------------------------------------------------------
    def begin_wall(self) -> None:
        self.wall_ns = (time.perf_counter_ns(), 0)

    def end_wall(self) -> None:
        assert self.wall_ns is not None
        self.wall_ns = (self.wall_ns[0], time.perf_counter_ns())

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def nesting_errors(self) -> int:
        """Spans that are not enclosed by their parent (expected: 0)."""
        bad = 0
        spans = self.spans
        for span in spans:
            parent = span[_PARENT]
            if parent >= 0:
                outer = spans[parent]
                if not (outer[_T0] <= span[_T0] and span[_T1] <= outer[_T1]):
                    bad += 1
        return bad

    def reduce(self) -> "Reduced":
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_T1] - span[_T0]
        by_name = {name: _Group() for name in self.names}
        for index, span in enumerate(spans):
            group = by_name[self.names[span[_NAME]]]
            duration = span[_T1] - span[_T0]
            group.self_ns += duration - child_ns[index]
            parent = span[_PARENT]
            if parent < 0 or spans[parent][_NAME] != span[_NAME]:
                group.calls += 1
                group.durations_ns.append(duration)
        covered = 0
        if self.wall_ns is not None:
            lo, hi = self.wall_ns
            covered = sum(
                s[_T1] - s[_T0] for s in spans
                if s[_PARENT] < 0 and lo <= s[_T0] and s[_T1] <= hi
            )
        return Reduced(self, by_name, covered)


class _Group:
    """Aggregate of all spans sharing one name."""

    def __init__(self) -> None:
        #: Outermost calls (a span nested in a same-named span is one call).
        self.calls = 0
        self.self_ns = 0
        self.durations_ns: list[int] = []

    @property
    def total_ns(self) -> int:
        return sum(self.durations_ns)


class _StepTimer(repro.SessionObserver):
    """Session observer timing steps between ``on_step_completed`` callbacks."""

    def __init__(self, recorder: Recorder) -> None:
        self._recorder = recorder

    def on_step_completed(self, step, t) -> None:
        self._recorder.step_completed()


def tail_percentile(samples: list) -> tuple[float, float] | None:
    """``(percentile, value)``: the highest percentile that still has at
    least ten samples beyond it, or ``None`` with fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Reduced:
    """Per-layer metrics computed from a finished :class:`Recorder`."""

    def __init__(self, recorder: Recorder, groups: dict, covered_ns: int) -> None:
        self.recorder = recorder
        self.groups = groups
        self.covered_ns = covered_ns

    def _group(self, name: str) -> _Group:
        return self.groups.get(name) or _Group()

    def _calls(self, name: str) -> int:
        return self._group(name).calls

    def _self_us_per_call(self, name: str) -> float:
        group = self._group(name)
        return group.self_ns / group.calls / 1e3 if group.calls else 0.0

    def _self_ms(self, name: str) -> float:
        return self._group(name).self_ns / 1e6

    def _total_ms(self, name: str) -> float:
        return self._group(name).total_ns / 1e6

    def _p50_ms(self, name: str) -> float:
        durations = self._group(name).durations_ns
        return statistics.median(durations) / 1e6 if durations else 0.0

    def layer_shares(self) -> dict[str, float]:
        """Share of all attributed self time per layer (for the *why* check)."""
        per_layer: dict[str, int] = {}
        for name, group in self.groups.items():
            layer = name.split(".")[0]
            per_layer[layer] = per_layer.get(layer, 0) + group.self_ns
        total = sum(per_layer.values()) or 1
        return {layer: ns / total for layer, ns in sorted(per_layer.items())}

    def metrics(self, ops: int) -> dict[str, float | None]:
        """Every ``api|rma|backends|ft|simulator|study`` metric by name."""
        rec = self.recorder
        steps_ms = [ns / 1e6 for ns in rec.step_ns]
        tail = tail_percentile(steps_ms)
        counters = rec.job_counters
        checkpoint = self._group("ft.checkpoint")
        full = counters["ft.multilevel_full_bytes"]
        out: dict[str, float | None] = {
            "api.launch_ms": self._total_ms("api.launch"),
            "api.job_run_self_ms": self._self_ms("api.job_run"),
            "api.run_step_calls": self._calls("api.run_step"),
            "api.run_step_self_us": self._self_us_per_call("api.run_step"),
            "api.ctx_calls": self._calls("api.ctx"),
            "api.ctx_self_us": self._self_us_per_call("api.ctx"),
            "api.step_ms_p50": statistics.median(steps_ms) if steps_ms else 0.0,
            "api.step_ms_tail": tail[1] if tail else 0.0,
            "api.step_ms_max": max(steps_ms, default=0.0),
            "rma.observe_failures_calls_per_op": self._calls("rma.observe_failures") / ops,
            "rma.observe_failures_self_us": self._self_us_per_call("rma.observe_failures"),
            "rma.replay_ms": rec.replay_ns / 1e6,
            "rma.bytes_moved": counters["rma.bytes_moved"],
            "backends.ops_per_complete": (
                rec.completed_ops / rec.nonempty_completes
                if rec.nonempty_completes else 0.0
            ),
            "backends.bind_ms": self._total_ms("backends.bind"),
            "backends.respawn_ms": self._total_ms("backends.respawn"),
            "ft.build_stack_ms": self._total_ms("ft.build_stack"),
            "ft.checkpoint_calls": checkpoint.calls,
            "ft.checkpoint_ms_p50": self._p50_ms("ft.checkpoint"),
            "ft.checkpoint_mb_per_s": (
                counters["ft.checkpoint_bytes"] / 1e6 / (checkpoint.total_ns / 1e9)
                if checkpoint.total_ns else 0.0
            ),
            "ft.checkpoint_bytes": counters["ft.checkpoint_bytes"],
            "ft.store_self_ms": self._self_ms("ft.store"),
            "ft.store_fetch_self_ms": self._self_ms("ft.store_fetch"),
            "ft.multilevel_moved_frac": (
                counters["ft.multilevel_moved_bytes"] / full if full else 0.0
            ),
            "ft.log_calls": self._calls("ft.log"),
            "ft.log_self_us": self._self_us_per_call("ft.log"),
            "ft.logged_bytes": rec.logged_bytes,
            "ft.recover_calls": self._calls("ft.recover"),
            "ft.recover_ms_p50": self._p50_ms("ft.recover"),
            "ft.restored_bytes": counters["ft.restored_bytes"],
            "ft.replayed_bytes": counters["ft.replayed_bytes"],
            "ft.inject_self_us": self._self_us_per_call("ft.inject"),
            "simulator.is_alive_calls_per_op": rec.counts.get("simulator.is_alive", 0) / ops,
            "simulator.metrics_incr_calls_per_op": (
                rec.counts.get("simulator.metrics_incr", 0) / ops
            ),
            "study.sessions": self._calls("study.session"),
            "study.session_ms_p50": self._p50_ms("study.session"),
            "study.engine_self_ms": self._self_ms("study.engine"),
            "study.report_ms": self._total_ms("study.report"),
        }
        for group in ("nb_issue", "blocking", "lock", "sync"):
            out[f"rma.{group}_calls"] = self._calls(f"rma.{group}")
            out[f"rma.{group}_self_us"] = self._self_us_per_call(f"rma.{group}")
        for group in ("issue", "complete"):
            out[f"backends.{group}_calls"] = self._calls(f"backends.{group}")
            out[f"backends.{group}_self_us"] = self._self_us_per_call(f"backends.{group}")
        for name in out:
            if name.split(".")[0] in rec.missing:
                out[name] = None
        return out

    def tail_percentile(self) -> float | None:
        tail = tail_percentile(self.recorder.step_ns)
        return tail[0] if tail else None

    def unattributed_frac(self) -> float:
        lo, hi = self.recorder.wall_ns
        return 1.0 - self.covered_ns / (hi - lo)


def write_chrome_trace(recorder: Recorder, path: str) -> None:
    """Write the spans as Chrome-trace JSON (``chrome://tracing``, Perfetto).

    One complete (``"ph": "X"``) event per span; ``tid`` is the job ordinal,
    ``cat`` the layer, ``args.parent`` the index of the causing span.
    """
    spans = recorder.spans
    if not spans:
        events = []
    else:
        origin = spans[0][_T0]
        events = [
            {
                "name": recorder.names[span[_NAME]],
                "cat": recorder.names[span[_NAME]].split(".")[0],
                "ph": "X",
                "ts": (span[_T0] - origin) / 1e3,
                "dur": (span[_T1] - span[_T0]) / 1e3,
                "pid": 1,
                "tid": span[_JOB],
                "args": {"id": index, "parent": span[_PARENT]},
            }
            for index, span in enumerate(spans)
        ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        fh.write("\n")
