"""The repository's one benchmark: end-to-end metrics and per-layer spans.

One command runs the workloads named in ``BENCHMARK.json``, checks that every
result is correct, and prints every metric by name with its unit::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]     # everything
    python3 benchmarks/e2e/run.py --smoke                          # < 20 s self-test
    python3 benchmarks/e2e/run.py --aa                             # same code twice
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The last form is the contract a driver uses: ``--trace 0`` measures the
end-to-end metrics with all tracing off, ``--trace 1`` runs the traced passes
and reports the per-layer metrics; either prints one JSON object
``{"correct", "attempted", "failed", "metrics"}`` as its last line.

This process only orchestrates, and never imports the program.  Everything
runs in a fresh subprocess (:mod:`child`): first each workload's correctness
reference, computed once and untimed from inputs that :mod:`workloads` makes
from ``--seed``, then every measurement: the per-process metrics (``setup_s``,
``peak_rss_mb``) get one sample per process, ``wall_s`` one per timed repeat.
After each subprocess it checks hygiene — shared-memory segments, temporary
directories, orphaned worker processes — and counts a leak as a failure.
It adopts whatever its subprocesses orphan and leaves only once each of those
processes has ended and been waited for.
README.md beside this file defines every metric and the protocol.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"

#: Fresh measuring processes per workload (samples of setup_s / peak_rss_mb).
PROCESSES = 3
#: ``--smoke`` runs every workload at this fraction of its size.
SMOKE_SCALE = 0.05
#: Seconds a subprocess may take before it is killed with its workers: per
#: workload for the references, in all for a traced process, beyond its budget
#: for an end-to-end one.  The reference and then three end-to-end processes or one
#: traced process must end within the 180 s a driver allows.
PREPARE_TIMEOUT_S = 30.0
E2E_GRACE_S = 45.0
TRACED_TIMEOUT_S = 145.0
#: Environment every measuring process runs under.  The two glibc settings fix
#: the allocator's policy (no sub-MiB array is mmapped, no heap memory goes
#: back to the OS between jobs); left to adapt at run time it settles, by
#: accident of heap layout, into one of two states that put ``ckpt_multilevel``
#: at either 1.0 s or 1.5 s per repeat.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}
DEFAULT_SEED = 2026


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Subprocesses and their hygiene
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the parent of whatever its subprocesses orphan.

    A subprocess leaves helpers behind that end only after it has
    (multiprocessing's resource tracker, always; ``proc`` workers, if it
    leaks them).  Without this they would pass to init and run, or wait as
    zombies, beyond the end of the benchmark; with it they stay this
    process's children, which :func:`reap` waits for.
    """
    PR_SET_CHILD_SUBREAPER = 36
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans pass to init, as anywhere else


def reap() -> None:
    """Wait for every child of this process that has ended."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child is left at all
        if pid == 0:
            return  # the rest still run


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running.

    Zombies do not count: they run nothing, and :func:`reap` collects them.
    """
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        pids = [entry for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return True  # no /proc to tell zombies apart: trust killpg
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                # "pid (comm) state ppid pgrp ..."; comm may hold spaces.
                state, _ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError, IndexError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def _group_gone(pgid: int, timeout: float = 5.0) -> bool:
    """Wait for a process group to empty; ``False`` if it has not in time."""
    deadline = time.monotonic() + timeout
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    _group_gone(pgid)


def _remove_leaks(segments_before: set[str], tmpdir: Path) -> list[str]:
    """Name and remove what a subprocess left in ``/dev/shm`` and its tmpdir."""
    problems = []
    leaked = _shm_segments() - segments_before
    if leaked:
        problems.append(f"hygiene: leaked shared-memory segments {sorted(leaked)}")
        for name in leaked:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    leftovers = sorted(
        entry.name for entry in tmpdir.iterdir()
        if entry.name.startswith(("repro-ckpt-", "repro-trace-"))
    )
    if leftovers:
        problems.append(f"hygiene: temporary leftovers {leftovers}")
    shutil.rmtree(tmpdir, ignore_errors=True)
    return problems


def run_child(
    which: str,
    workloads: list[str],
    seed: int,
    *,
    scale: float,
    budget: float,
    ref: dict,
    spans: str | None = None,
) -> tuple[dict | None, list[str]]:
    """Run one subprocess; return what it printed and its hygiene leaks.

    The process gets its own session, so everything it forks shares one
    process group: whatever of that group outlives it is an orphan (and is
    killed here), and a hung process is killed with all its workers.  On
    every way out of this function the group is empty and waited for.
    """
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **CHILD_ENV, TMPDIR=str(tmpdir))
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", *workloads, "--seed", str(seed), "--scale", repr(scale),
        "--budget", repr(budget), "--pass", which, "--ref", json.dumps(ref),
    ]
    if spans:
        command += ["--spans", spans]
    timeout = {
        "prepare": PREPARE_TIMEOUT_S * len(workloads), "e2e": budget + E2E_GRACE_S,
    }.get(which, TRACED_TIMEOUT_S)
    segments_before = _shm_segments()
    problems: list[str] = []
    try:
        # Standard output goes to a file, not a pipe: an orphan that inherited
        # a pipe would keep it open and stall the read until the orphan ended.
        with open(tmpdir / "stdout", "w+") as captured:
            proc = subprocess.Popen(command, env=env, stdout=captured, start_new_session=True)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"subprocess timed out after {timeout:.0f}s")
            finally:
                if proc.poll() is None:  # timed out, or this process is being stopped
                    _kill_group(proc.pid)
                    proc.wait()
            captured.seek(0)
            stdout = captured.read()
        # multiprocessing's resource tracker exits on its own just after its
        # parent; anything still in the group after that grace is an orphan.
        if not _group_gone(proc.pid):
            problems.append("hygiene: orphaned worker processes outlived the subprocess")
            _kill_group(proc.pid)
    finally:
        reap()
        problems += _remove_leaks(segments_before, tmpdir)
    result = None
    if proc.returncode == 0 and stdout.strip():
        try:
            result = json.loads(stdout.strip().splitlines()[-1])
        except json.JSONDecodeError:
            problems.append("subprocess printed no JSON result")
    elif not problems:
        problems.append(f"subprocess exited with code {proc.returncode}")
    return result, problems


# ----------------------------------------------------------------------
# Results of one workload
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    name: str
    ref: dict
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Outputs of the end-to-end measuring processes.
    processes: list[dict] = field(default_factory=list)
    #: Output of the traced-passes process.
    traced: dict | None = None
    #: What every repeat must reproduce exactly (set by the first repeat):
    #: the virtual makespan and the run's own action count.
    virt_s: float | None = None
    run_ops: int | None = None

    @property
    def ops(self) -> int | None:
        """The failure-free action count: the probe's where one ran (a killed
        run re-executes actions), else the — failure-free — run's own."""
        return self.ref.get("ops", self.run_ops)

    def count(self, attempted: int, wrong: list[str], where: str = "") -> None:
        """Count ``attempted`` operations, one failed per problem found."""
        self.attempted += attempted
        self.failed += min(len(wrong), attempted)
        for message in wrong:
            message = f"{where}: {message}" if where else message
            self.failures.append(message)
            print(f"FAILURE [{self.name}] {message}", file=sys.stderr)

    def check_repeat(self, repeat: dict, where: str) -> None:
        """Count one executed scenario (and the trials checked inside it)."""
        if self.virt_s is None:
            self.virt_s, self.run_ops = repeat["virt_s"], repeat["ops"]
        wrong = list(repeat["problems"])
        if repeat["digest"] != self.ref["digest"]:
            wrong.append("digest differs from the computed reference")
        if repeat["virt_s"] != self.virt_s:
            wrong.append(f"virtual makespan {repeat['virt_s']!r} != {self.virt_s!r}")
        if repeat["ops"] != self.run_ops:
            wrong.append(f"action count {repeat['ops']} != {self.run_ops}")
        self.count(1 + repeat["checks"], wrong, where)

    def absorb(self, result: dict | None, problems: list[str]) -> None:
        """Take in one measuring process: first the process itself (it ended
        cleanly and leaked nothing), then each scenario it executed."""
        self.count(1, problems)
        if result is None:
            return
        if result["e2e"] is not None:
            index = len(self.processes)
            self.processes.append(result["e2e"])
            for r, repeat in enumerate(result["e2e"]["repeats"]):
                self.check_repeat(repeat, f"process {index} repeat {r}")
        traced = result["layers"]
        if traced is None:
            return
        self.traced = traced
        for repeat in traced["plain"]:
            self.check_repeat(repeat, "traced pass, untraced run")
        for repeat in traced["with_tracer"]:
            self.check_repeat(repeat, "traced pass, product tracer run")
        self.check_repeat(traced["layered"], "traced pass, layer run")
        nesting = traced["nesting_errors"]
        self.count(1, [f"{nesting} spans are not enclosed by their parent"] * bool(nesting))

    # ------------------------------------------------------------------
    def walls(self) -> list[float]:
        return [r["wall_s"] for p in self.processes for r in p["repeats"]]

    def end_to_end(self) -> dict[str, float] | None:
        walls = self.walls()
        if not walls or self.ops is None:
            return None
        # Best of n, not the median, for both times: the noise of a shared
        # host is one-sided (a neighbour only ever slows work down) and comes
        # in bursts as long as a whole run, which a median of six to nine
        # repeats, or of three set-ups, follows.
        wall = min(walls)
        return {
            "setup_s": min(p["setup_s"] for p in self.processes),
            "wall_s": wall,
            "ops_per_s": self.ops / wall,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in self.processes),
            "virt_makespan_s": self.virt_s,
        }

    def per_layer(self) -> dict[str, float | None] | None:
        return self.traced["metrics"] if self.traced is not None else None

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# Running sets of measurements
# ----------------------------------------------------------------------
def prepare(names: list[str], seed: int, scale: float) -> dict[str, WorkloadResult]:
    """Compute every workload's reference once, untimed, in one subprocess."""
    began = time.perf_counter()
    refs, problems = run_child("prepare", names, seed, scale=scale, budget=0.0, ref={})
    if refs is None or problems:
        raise RuntimeError(f"no clean reference for {names}: {'; '.join(problems)}")
    print(
        f"[prepare] references of {names} computed in "
        f"{time.perf_counter() - began:.2f}s", file=sys.stderr,
    )
    return {name: WorkloadResult(name, refs[name]) for name in names}


def measure(
    results: dict[str, WorkloadResult],
    seed: int,
    *,
    scale: float,
    seconds: float,
    passes: list[str],
    spans: str | None = None,
) -> None:
    """Start one measuring process per entry of ``passes`` and workload.

    Each entry is one round over all workloads, so slow machine drift spreads
    evenly over them; the ``seconds`` of end-to-end measuring are shared by
    the processes that take part in it.
    """
    sharing = sum(which != "layers" for which in passes) or 1
    for round_, which in enumerate(passes):
        for name, result in results.items():
            print(f"[{which} {round_ + 1}/{len(passes)}] {name}", file=sys.stderr)
            path = spans if which != "e2e" else None
            if path and len(results) > 1:
                stem = Path(path)
                path = str(stem.with_name(f"{stem.stem}.{name}{stem.suffix}"))
            result.absorb(*run_child(
                which, [name], seed, scale=scale, budget=seconds / sharing,
                ref=result.ref, spans=path,
            ))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _format(value: float | None) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_workload(spec: dict, result: WorkloadResult) -> None:
    """Print every declared metric of one workload by name with its unit."""
    print(f"== {result.name} ==")
    e2e = result.end_to_end()
    if e2e is not None:
        walls = result.walls()
        notes = {
            "wall_s": f"best of n={len(walls)}" + (
                "  q1={:.4f} median={:.4f} q3={:.4f}".format(
                    *statistics.quantiles(walls, n=4)
                ) if len(walls) >= 2 else ""
            ),
            "setup_s": f"best of n={len(result.processes)} fresh processes",
            "peak_rss_mb": f"median of n={len(result.processes)} fresh processes",
            "ops_per_s": f"ops={result.ops} (repeats exactly)",
            "virt_makespan_s": "virtual; identical in every repeat",
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print(f"  {name:<38}{_format(e2e.get(name)):>14} {metric['unit']:<8} {notes.get(name, '')}")
    layer = result.per_layer()
    if layer is not None:
        notes = {}
        tail = result.traced["step_tail_percentile"]
        notes["api.step_ms_tail"] = f"p{tail:.1f}" if tail else "fewer than 20 steps"
        for metric in spec["per_layer"]:
            name = metric["name"]
            print(f"  {name:<38}{_format(layer.get(name)):>14} {metric['unit']:<8} {notes.get(name, '')}")
        shares = ", ".join(
            f"{layer_} {share:.0%}"
            for layer_, share in sorted(
                result.traced["layer_shares"].items(), key=lambda kv: -kv[1]
            ) if share
        )
        print(f"  # self time by layer: {shares}; {result.traced['spans']} spans")
    print(
        f"  # attempted={result.attempted} failed={result.failed} "
        f"failed_frac={_format(result.failed_frac())}"
    )


def calibration_score() -> float:
    """Pure-Python loop iterations per second (best of three): a
    machine-speed yardstick recorded beside every set of numbers."""
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - began)
    return 1_000_000 / best


def _git(*command: str) -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), *command], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def metadata(seed: int) -> dict:
    import numpy

    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(_git("status", "--porcelain")),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "calibration_loops_per_s": calibration_score(),
        "unix_time": time.time(),
    }


def document(meta: dict, results: dict[str, WorkloadResult]) -> dict:
    return {
        "meta": meta,
        "workloads": {
            name: {
                "end_to_end": r.end_to_end(),
                "per_layer": r.per_layer(),
                "wall_s_samples": r.walls(),
                "ops": r.ops,
                "attempted": r.attempted,
                "failed": r.failed,
                "failures": r.failures,
            }
            for name, r in results.items()
        },
    }


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def driver_mode(args, spec: dict) -> int:
    """The contract: one workload, one pass, one JSON object as the last line."""
    results = prepare([args.workload], args.seed, 1.0)
    result = results[args.workload]
    traced = args.trace == 1
    measure(
        results, args.seed, scale=1.0, seconds=args.seconds,
        passes=["layers"] if traced else ["e2e"] * PROCESSES, spans=args.spans,
    )
    values = result.per_layer() if traced else result.end_to_end()
    if values is None:
        print(f"{args.workload}: no measurement completed", file=sys.stderr)
        return 1
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {
        # A seam that is gone reports null in the human report; the contract
        # wants a number, and the warning already went to stderr.
        m["name"]: {"value": values[m["name"]] or 0.0, "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


def compare_sets(spec: dict, first: dict, second: dict) -> int:
    """``--aa``: two sets of the same code against the benchmark's own bounds."""
    exceeded = 0
    print("== A/A: relative worsening of set B against set A, per bound ==")
    for name in first:
        a, b = first[name], second[name]
        ea, eb = a.end_to_end(), b.end_to_end()
        if ea is None or eb is None:
            print(f"  {name}: not measured")
            exceeded += 1
            continue
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            worse = (eb[key] - ea[key]) / ea[key]
            if metric["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= bound else "EXCEEDS"
            exceeded += verdict != "ok"
            print(f"  {name:<16}{key:<18}{worse:+9.2%}  bound {bound:.0%}  {verdict}")
        exact = a.virt_s == b.virt_s and a.ops == b.ops
        exceeded += not exact
        print(
            f"  {name:<16}virtual makespan and ops "
            f"{'agree exactly' if exact else 'DIFFER'}; failed_frac "
            f"A={_format(a.failed_frac())} B={_format(b.failed_frac())}"
        )
    return exceeded


def check_smoke(spec: dict, results: dict[str, WorkloadResult]) -> list[str]:
    """Self-test of the harness against ``BENCHMARK.json``: what was measured
    must be, name for name, what is declared (and therefore printed)."""
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = []
    for name, result in results.items():
        names = set(result.end_to_end() or ()) | set(result.per_layer() or ())
        if names - declared:
            wrong.append(f"{name}: undeclared metrics measured: {sorted(names - declared)}")
        if declared - names:
            wrong.append(f"{name}: declared metrics not measured: {sorted(declared - names)}")
        if result.traced is None:
            continue
        if result.traced["spans"] == 0 or result.traced["nesting_errors"]:
            wrong.append(f"{name}: spans missing or not nested")
        if result.traced["metrics"].get("bench.unattributed_frac") is None:
            wrong.append(f"{name}: bench.unattributed_frac was not computed")
    return wrong


def human_mode(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    if args.smoke:
        # One process per workload runs both passes: at 1/20 size, process
        # start-up would otherwise be most of the self-test.
        scale, seconds, passes = SMOKE_SCALE, 0.0, ["both"]
    else:
        scale, seconds = 1.0, args.seconds
        passes = ["e2e"] * PROCESSES + ([] if args.aa else ["layers"])
    meta = dict(metadata(args.seed), scale=scale, seconds=seconds, passes=passes)
    results = prepare(names, args.seed, scale)
    measure(results, args.seed, scale=scale, seconds=seconds, passes=passes, spans=args.spans)
    status = 0
    if args.aa:
        again = {name: WorkloadResult(name, r.ref) for name, r in results.items()}
        measure(again, args.seed, scale=scale, seconds=seconds, passes=passes)
        if compare_sets(spec, results, again):
            status = 1
        if any(r.failed for r in again.values()):
            status = 1
    for result in results.values():
        print_workload(spec, result)
    if any(r.failed or r.end_to_end() is None for r in results.values()):
        status = 1
    if args.smoke:
        wrong = check_smoke(spec, results)
        for message in wrong:
            print(f"SMOKE FAILURE: {message}", file=sys.stderr)
        if wrong:
            status = 1
    report = document(meta, results)
    out = Path(args.json) if args.json else OUT / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if args.record:
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps(report, sort_keys=True) + "\n")
        print(f"appended one run to {HISTORY}")
    return status


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "BENCHMARK.json").is_file() or not (ROOT / "src" / "repro").is_dir():
        print(
            f"{ROOT} does not hold both BENCHMARK.json and the program's source "
            f"(src/repro): the benchmark runs from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measuring time of the end-to-end pass, per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver contract: 0 = end-to-end metrics only, 1 = per-layer only",
    )
    parser.add_argument("--smoke", action="store_true", help="1/20 size self-test")
    parser.add_argument("--aa", action="store_true", help="two sets of the same code")
    parser.add_argument("--record", action="store_true", help=f"append to {HISTORY.name}")
    parser.add_argument("--spans", default=None, help="write layer spans (Chrome trace)")
    parser.add_argument("--json", default=None, help="where to write the JSON report")
    args = parser.parse_args(argv)
    adopt_orphans()
    # Asked to stop, leave through the ``finally`` blocks: they end what runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return driver_mode(args, spec)
        return human_mode(args, spec)
    except RuntimeError as exc:
        # A reference that cannot be computed (a missing platform capability,
        # a probe that disagrees with its oracle) is a failure with a name.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        reap()
        shutil.rmtree(OUT / f"tmp-{os.getpid()}", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
