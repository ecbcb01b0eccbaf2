"""Rendering and baseline gating for ``python -m repro.qos`` reports."""

from __future__ import annotations

from functools import partial

from repro.experiment import baseline_gate, markdown_table

__all__ = ["render_markdown", "check_against_baseline"]


def render_markdown(report: dict) -> str:
    """The trade-off as a markdown table — one row per (backend, store, recovery)."""
    global_elapsed: dict[tuple[str, str], float] = {}
    for cell in report["cells"].values():
        if cell["recovery"] == "global":
            global_elapsed[(cell["backend"], cell["store"])] = cell["mean_elapsed_s"]

    rows = []
    for key in sorted(report["cells"]):
        cell = report["cells"][key]
        baseline = global_elapsed.get((cell["backend"], cell["store"]))
        if baseline and cell["mean_elapsed_s"] > 0:
            speedup = f"{baseline / cell['mean_elapsed_s']:.2f}x"
        else:
            speedup = "—"
        if cell["multilevel_full_bytes"]:
            moved = (
                f"{cell['multilevel_moved_bytes']:,} / "
                f"{cell['multilevel_full_bytes']:,}"
            )
        else:
            moved = "—"
        rows.append((
            cell["backend"],
            cell["store"],
            cell["recovery"],
            f"{cell['mean_quality']:.4f} / {cell['min_quality']:.4f}",
            f"{cell['mean_elapsed_s'] * 1e3:.3f}",
            speedup,
            cell["tolerated_ops"],
            cell["repairs"],
            cell["recoveries"],
            moved,
        ))
    return markdown_table(
        ("backend", "store", "recovery", "quality (mean/min)", "makespan (virt ms)",
         "speedup vs global", "tolerated ops", "repairs", "recoveries",
         "upper-level bytes (moved/full)"),
        rows,
    )


#: ``check_against_baseline(report, baseline, max_ratio=2.0)`` → failures:
#: deterministic outcomes — digests, qualities, tolerated-operation and byte
#: counts — must match exactly; the virtual makespan may not pass ``max_ratio``.
check_against_baseline = partial(
    baseline_gate,
    exact=(
        "mean_quality", "min_quality", "recoveries", "repairs",
        "tolerated_ops", "checkpoint_bytes",
        "multilevel_moved_bytes", "multilevel_full_bytes",
        ("trials.digest", "per-trial result digests changed"),
    ),
    ratio=(("mean_elapsed_s", "virtual makespan", "{:.6g}s"),),
)
