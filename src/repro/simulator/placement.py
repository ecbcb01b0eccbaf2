"""Process-to-hardware mappings (the paper's mapping function M).

The paper models process placement as a function ``M(p, k)`` that returns the
failure-domain element of level ``k`` on which process ``p`` runs (§5).  The
placement only needs to fix the *node* of every process — the elements at
higher levels follow from the hierarchy.

:func:`block_placement` — ranks fill node 0, then node 1, ... (the usual MPI
default of packing by node) — is the one strategy provided.

T-awareness of *groups* (Eq. 6 of the paper) is a property of the group
construction, implemented in :mod:`repro.ft.groups` on top of a placement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError
from repro.simulator.topology import FailureDomainHierarchy

__all__ = [
    "Placement",
    "block_placement",
]


@dataclass(frozen=True)
class Placement:
    """An immutable mapping from ranks to compute nodes of an FDH."""

    fdh: FailureDomainHierarchy
    node_of_rank: tuple[int, ...]
    strategy: str = "custom"

    def __post_init__(self) -> None:
        num_nodes = self.fdh.num_nodes
        for rank, node in enumerate(self.node_of_rank):
            if not 0 <= node < num_nodes:
                raise PlacementError(
                    f"rank {rank} mapped to node {node}, but the machine has "
                    f"only {num_nodes} nodes"
                )

    @property
    def nprocs(self) -> int:
        """Number of placed processes."""
        return len(self.node_of_rank)

    def node(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return self.node_of_rank[rank]

    def element(self, rank: int, level: int) -> int:
        """The paper's ``M(p, k)``: index of the level-``level`` element of ``rank``."""
        return self.fdh.ancestor_index(self.node(rank), level)

    def ranks_on(self, level: int, index: int) -> list[int]:
        """All ranks running inside element ``index`` of ``level``."""
        return [
            rank
            for rank in range(self.nprocs)
            if self.element(rank, level) == index
        ]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise PlacementError(f"rank {rank} out of range 0..{self.nprocs - 1}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement({self.strategy}, nprocs={self.nprocs}, nodes={self.fdh.num_nodes})"


def block_placement(
    fdh: FailureDomainHierarchy,
    nprocs: int,
    procs_per_node: int | None = None,
) -> Placement:
    """Pack ranks onto nodes in blocks of ``procs_per_node``.

    If ``procs_per_node`` is not given it is chosen as the smallest value that
    fits all processes onto the machine.
    """
    num_nodes = fdh.num_nodes
    if nprocs <= 0:
        raise PlacementError("nprocs must be positive")
    if procs_per_node is None:
        procs_per_node = -(-nprocs // num_nodes)  # ceil division
    if procs_per_node <= 0:
        raise PlacementError("procs_per_node must be positive")
    if procs_per_node * num_nodes < nprocs:
        raise PlacementError(
            f"{nprocs} processes do not fit on {num_nodes} nodes "
            f"with {procs_per_node} processes per node"
        )
    mapping = tuple(rank // procs_per_node for rank in range(nprocs))
    return Placement(fdh=fdh, node_of_rank=mapping, strategy="block")

