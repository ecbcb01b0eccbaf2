"""First-divergence localization between two traces.

The house invariant says two runs of the same seeded schedule produce
byte-identical traces modulo the segregated ``rt`` fields.  When that
invariant breaks, a final-digest comparison only says *that* it broke;
:func:`first_divergence` walks the two canonical streams in lockstep and
pins down the first event where they disagree, field by field, together
with the surrounding span context — which op, which step, which rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.events import canonical_event, event_line

__all__ = ["Divergence", "first_divergence", "render_divergence"]


@dataclass(frozen=True)
class Divergence:
    """The first point where two traces disagree."""

    #: Index into both streams of the first divergent event.
    index: int
    #: Human-readable description of the disagreement.
    reason: str
    #: The event at ``index`` on each side (``None`` past end of stream).
    left: dict | None
    right: dict | None
    #: The events common to both streams immediately before ``index``.
    context: tuple[dict, ...] = field(default_factory=tuple)


def _shown(event: dict, key: str) -> str:
    return repr(event[key]) if key in event else "<absent>"


def _field_diffs(left: dict, right: dict) -> list[str]:
    return [
        f"{key}: {_shown(left, key)} != {_shown(right, key)}"
        for key in sorted(set(left) | set(right))
        if key not in left or key not in right or left[key] != right[key]
    ]


def first_divergence(
    left: list[dict], right: list[dict], *, context: int = 3
) -> Divergence | None:
    """The first divergent event between two traces, or ``None`` if equal.

    Comparison is on :func:`canonical_event` — the segregated ``rt``
    fields (wall clock, real-SIGKILL flag, backend identity) are allowed
    to differ.  ``context`` events preceding the divergence are attached
    for span context.
    """
    for index in range(min(len(left), len(right))):
        lcanon = canonical_event(left[index])
        rcanon = canonical_event(right[index])
        if lcanon == rcanon:
            continue
        diffs = _field_diffs(lcanon, rcanon)
        return Divergence(
            index=index,
            reason=f"event {index} differs — " + "; ".join(diffs),
            left=left[index],
            right=right[index],
            context=tuple(left[max(0, index - context) : index]),
        )
    if len(left) != len(right):
        index = min(len(left), len(right))
        shorter, longer = ("left", "right") if len(left) < len(right) else ("right", "left")
        extra = right[index] if len(left) < len(right) else left[index]
        return Divergence(
            index=index,
            reason=(
                f"{shorter} trace ends after {index} events; {longer} "
                f"continues with {extra['type']!r}"
            ),
            left=left[index] if index < len(left) else None,
            right=right[index] if index < len(right) else None,
            context=tuple(left[max(0, index - context) : index]),
        )
    return None


def render_divergence(divergence: Divergence) -> str:
    """Multi-line report: span context, then both sides of the split."""
    lines = [f"first divergence at event {divergence.index}: {divergence.reason}"]
    if divergence.context:
        lines.append("span context (common prefix):")
        start = divergence.index - len(divergence.context)
        for offset, event in enumerate(divergence.context):
            lines.append(f"  [{start + offset}] {event_line(event, canonical=True)}")
    for side, event in (("left", divergence.left), ("right", divergence.right)):
        rendered = "<end of trace>" if event is None else event_line(event, canonical=True)
        lines.append(f"  {side:>5}: {rendered}")
    return "\n".join(lines)
