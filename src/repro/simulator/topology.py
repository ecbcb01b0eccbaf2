"""Failure-domain hierarchies (FDH) — hierarchical hardware layouts.

Section 5 of the paper extends the flat fault-tolerance model with a *failure
domain hierarchy*: hardware elements (nodes, power supply units, switch
enclosures, racks, ...) form a tree; a failure of an element at level ``j``
takes down every node (and thus every process) underneath it.

Levels are numbered **from 1 at the bottom** (the smallest failure domain, a
compute node) **to h at the top** (e.g. a rack or cabinet), matching the
paper's notation ``H_{i,j}`` = element ``i`` of level ``j`` and ``H_j`` =
number of elements at level ``j``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import TopologyError

__all__ = ["FDElement", "FailureDomainHierarchy"]


@dataclass(eq=False)
class FDElement:
    """One element of the failure-domain hierarchy (a node, PSU, rack, ...)."""

    level: int
    index: int
    kind: str
    parent: "FDElement | None" = None
    children: list["FDElement"] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Human-readable identifier, e.g. ``"psu[3]"``."""
        return f"{self.kind}[{self.index}]"

    def ancestor(self, level: int) -> "FDElement":
        """Return the enclosing element at ``level`` (may be ``self``)."""
        if level < self.level:
            raise TopologyError(
                f"{self.name} is at level {self.level}; cannot descend to level {level}"
            )
        elem: FDElement = self
        while elem.level < level:
            if elem.parent is None:
                raise TopologyError(f"{self.name} has no ancestor at level {level}")
            elem = elem.parent
        return elem

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FDElement({self.name}, level={self.level})"


class FailureDomainHierarchy:
    """A complete failure-domain hierarchy.

    Parameters
    ----------
    level_names:
        Names of the levels from bottom to top, e.g.
        ``("node", "psu", "switch", "rack")``.  ``level_names[0]`` is level 1.
    branching:
        ``branching[j]`` is the number of level-``j+1`` children per element of
        level ``j+2`` — i.e. the fan-out *below* each element of every level
        above the bottom.  Its length must be ``len(level_names) - 1``.  The
        hierarchy is built top-down starting from ``top_count`` elements of the
        highest level.
    top_count:
        Number of elements at the top level.

    Example
    -------
    ``FailureDomainHierarchy(("node", "blade", "chassis", "rack"), (4, 8, 3), 12)``
    builds 12 racks x 3 chassis x 8 blades x 4 nodes = 1152 nodes.
    """

    def __init__(
        self,
        level_names: Iterable[str],
        branching: Iterable[int],
        top_count: int,
    ) -> None:
        self.level_names: tuple[str, ...] = tuple(level_names)
        self.branching: tuple[int, ...] = tuple(int(b) for b in branching)
        if len(self.level_names) < 1:
            raise TopologyError("a hierarchy needs at least one level")
        if len(self.branching) != len(self.level_names) - 1:
            raise TopologyError(
                "branching must have exactly len(level_names) - 1 entries "
                f"(got {len(self.branching)} for {len(self.level_names)} levels)"
            )
        if top_count <= 0 or any(b <= 0 for b in self.branching):
            raise TopologyError("element counts and branching factors must be positive")

        self.height: int = len(self.level_names)
        # _levels[j-1] is the list of elements at level j, ordered by index.
        self._levels: list[list[FDElement]] = [[] for _ in range(self.height)]
        top_level = self.height
        for i in range(top_count):
            elem = FDElement(level=top_level, index=i, kind=self.level_names[top_level - 1])
            self._levels[top_level - 1].append(elem)
            self._populate_children(elem)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _populate_children(self, parent: FDElement) -> None:
        if parent.level == 1:
            return
        child_level = parent.level - 1
        fanout = self.branching[child_level - 1]
        for _ in range(fanout):
            child = FDElement(
                level=child_level,
                index=len(self._levels[child_level - 1]),
                kind=self.level_names[child_level - 1],
                parent=parent,
            )
            parent.children.append(child)
            self._levels[child_level - 1].append(child)
            self._populate_children(child)

    @classmethod
    def flat(cls, num_nodes: int) -> "FailureDomainHierarchy":
        """A single-level hierarchy: ``num_nodes`` independent nodes."""
        return cls(("node",), (), num_nodes)

    # ------------------------------------------------------------------
    # Queries (paper notation: H_j, H_{i,j})
    # ------------------------------------------------------------------
    def H(self, level: int) -> int:
        """Number of elements at ``level`` (the paper's ``H_j``)."""
        self._check_level(level)
        return len(self._levels[level - 1])

    def element(self, level: int, index: int) -> FDElement:
        """The paper's ``H_{i,j}``: element ``index`` of ``level``."""
        self._check_level(level)
        try:
            return self._levels[level - 1][index]
        except IndexError as exc:
            raise TopologyError(f"no element {index} at level {level}") from exc

    @property
    def num_nodes(self) -> int:
        """Number of level-1 elements (compute nodes)."""
        return self.H(1)

    def node(self, index: int) -> FDElement:
        """Compute node ``index``."""
        return self.element(1, index)

    def ancestor_index(self, node_index: int, level: int) -> int:
        """Index of the level-``level`` element containing node ``node_index``."""
        return self.node(node_index).ancestor(level).index

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.height:
            raise TopologyError(
                f"level {level} out of range 1..{self.height} for this hierarchy"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = "x".join(str(self.H(lvl)) for lvl in range(1, self.height + 1))
        return f"FailureDomainHierarchy({'/'.join(self.level_names)}: {counts})"
