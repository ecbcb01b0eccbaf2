"""One fresh measuring process of the end-to-end benchmark.

``run.py`` starts this file once per sample of the per-process metrics
(``setup_s``, ``peak_rss_mb``) and never imports it.  It receives the workload
name, the benchmark seed and the reference facts the orchestrator computed,
measures, and prints one JSON object as the last line of its standard output.

``--pass e2e`` — all tracing off:

1. ``setup_s``: first statement of this file → the first full-size job is
   ready to ``run`` (``import repro``, input generation, ``launch``, window
   allocation and initialization, FT-stack build, injector install, worker
   forks and shared memory on ``proc``);
2. one short untimed warm-up (the same workload at 1/20 size);
3. timed repeats until ``--budget`` seconds are used (at least one):
   ``gc.collect()``, then ``wall_s`` = ``Job.run`` → result collected and
   digested → ``Job.close``.  Set-up of the 2nd … n-th job is untimed;
4. ``peak_rss_mb``: ``ru_maxrss`` of this process plus its waited-for children.

``--pass layers`` — the traced passes, never mixed into the numbers above:
untraced repeats (the overhead denominator) interleaved with the product's own
``repro.trace.Tracer`` on the workloads that ask for it and with the layer
pass of :mod:`layers`.  ``--pass both`` runs the two one after the other in one
process (the smoke test, where process start-up would dominate).

``--pass prepare`` — measures nothing: computes the correctness reference
(``workloads.*.prepare``) of every workload named and prints them by name (one
process for all of them pays the imports once).  It runs here, not in the
orchestrator, so that ``run.py`` never imports the program: launching a job
starts multiprocessing's resource tracker, a helper process that would outlive
an orchestrator that had started it.
"""

import os
import time

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _spin() -> float:
    began = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - began


def settle_on_quiet_cpu() -> None:
    """Pin this process to whichever of its CPUs is fastest right now.

    On a shared host each virtual CPU drops, independently and for seconds to
    a minute at a time, to ~0.7x speed while a neighbour uses its physical
    core.  A few milliseconds of spinning on each CPU tell the two states
    apart; what is measured next (a set-up, a timed repeat) then runs where
    the machine is quiet.  Processes forked later inherit the choice, so a job
    and its ``proc`` workers always share one CPU.
    """
    if len(_CPUS) < 2:
        return
    pace = {}
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        pace[cpu] = min(_spin(), _spin())
    os.sched_setaffinity(0, {min(pace, key=pace.get)})


settle_on_quiet_cpu()
_ENTERED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

import workloads  # noqa: E402  (imports repro: part of setup_s by design)

#: Size of the untimed warm-up relative to the measured workload.
WARMUP_SCALE = 0.05
#: Workloads whose ``trace.*`` metrics are measured (product tracer pass).
TRACER_WORKLOADS = ("halo_nb", "kill_replay")


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children, MiB.

    The process's own peak is ``VmHWM`` of its address space, not
    ``ru_maxrss``: across ``exec`` Linux folds the *starting* process's peak
    into ``ru_maxrss``, so that number can never read below the orchestrator's
    own size and would hide every workload smaller than it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # both in KiB on Linux


def timed_execute(workload, ready) -> dict:
    """One timed repeat: the sample plus everything that must repeat exactly."""
    gc.collect()
    began = time.perf_counter()
    outcome = workload.execute(ready)
    wall = time.perf_counter() - began
    return {
        "wall_s": wall,
        "digest": outcome.digest,
        "virt_s": outcome.virt_s,
        "ops": outcome.ops,
        "problems": outcome.problems,
        "checks": outcome.checks,
    }


def warm_up(name: str, seed: int, scale: float) -> None:
    small = workloads.make(name, seed, scale * WARMUP_SCALE)
    small.execute(small.setup())


def end_to_end(args) -> dict:
    workload = workloads.make(args.workload, args.seed, args.scale)
    ready = workload.setup()
    setup_s = time.perf_counter() - _ENTERED
    warm_up(args.workload, args.seed, args.scale)
    repeats = []
    deadline = time.perf_counter() + args.budget
    while True:
        repeats.append(timed_execute(workload, ready))
        # Another repeat only if it should overrun the budget by less than
        # half of itself: the process then measures for about --budget seconds.
        fastest = min(r["wall_s"] for r in repeats)
        if time.perf_counter() + 0.5 * fastest > deadline:
            break
        settle_on_quiet_cpu()
        ready = workload.setup()
    return {"setup_s": setup_s, "repeats": repeats, "peak_rss_mb": peak_rss_mb()}


def traced(args) -> dict:
    import layers
    from repro.trace import Tracer

    workload = workloads.make(args.workload, args.seed, args.scale)
    warm_up(args.workload, args.seed, args.scale)

    def untraced() -> dict:
        settle_on_quiet_cpu()
        return timed_execute(workload, workload.setup())

    # Untraced runs are interleaved with the traced ones so slow drift hits
    # both sides; every ratio compares best against best.
    plain = [untraced()]
    with_tracer = []
    trace_metrics = {
        "trace.events": 0,
        "trace.us_per_event": 0.0,
        "trace.enabled_overhead_ratio": 0.0,
    }

    if args.workload in TRACER_WORKLOADS:
        for _ in range(2):
            settle_on_quiet_cpu()
            workload.tracer = tracer = Tracer()
            try:
                ready = workload.setup()
            finally:
                workload.tracer = None
            with_tracer.append(timed_execute(workload, ready))
            plain.append(untraced())
        events = len(tracer.events)
        best_plain = min(r["wall_s"] for r in plain)
        best_traced = min(r["wall_s"] for r in with_tracer)
        trace_metrics = {
            "trace.events": events,
            "trace.us_per_event": (best_traced - best_plain) / events * 1e6,
            "trace.enabled_overhead_ratio": best_traced / best_plain,
        }

    settle_on_quiet_cpu()
    recorder = layers.Recorder()
    recorder.install()
    try:
        ready = workload.setup()
        recorder.begin_wall()
        layered = timed_execute(workload, ready)
        recorder.end_wall()
    finally:
        recorder.uninstall()
    plain.append(untraced())
    reduced = recorder.reduce()
    # Per-op ratios use the failure-free action count, like ops_per_s.
    metrics = reduced.metrics(args.ref.get("ops", layered["ops"]))
    metrics.update(trace_metrics)
    metrics["bench.layer_overhead_ratio"] = (
        layered["wall_s"] / min(r["wall_s"] for r in plain)
    )
    metrics["bench.unattributed_frac"] = reduced.unattributed_frac()
    if args.spans:
        layers.write_chrome_trace(recorder, args.spans)
    return {
        "plain": plain,
        "with_tracer": with_tracer,
        "layered": layered,
        "metrics": metrics,
        "layer_shares": reduced.layer_shares(),
        "step_tail_percentile": reduced.tail_percentile(),
        "spans": len(recorder.spans),
        "nesting_errors": recorder.nesting_errors(),
        "missing_seams": recorder.missing,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, nargs="+", choices=workloads.WORKLOADS,
        help="one workload; --pass prepare takes several",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument(
        "--pass", dest="which", choices=("prepare", "e2e", "layers", "both"),
        required=True,
    )
    parser.add_argument("--ref", type=json.loads, default={})
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    if args.which == "prepare":
        try:
            result = {
                name: workloads.make(name, args.seed, args.scale).prepare()
                for name in args.workload
            }
        except RuntimeError as exc:
            # A missing platform capability, a probe that disagrees with its
            # oracle: a failure with a name, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        if len(args.workload) != 1:
            parser.error("a measuring pass takes one workload")
        args.workload = args.workload[0]
        result = {
            "e2e": end_to_end(args) if args.which != "layers" else None,
            "layers": traced(args) if args.which != "e2e" else None,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
