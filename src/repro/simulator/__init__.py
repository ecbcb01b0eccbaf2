"""Virtual-time cluster simulator (substrate for the RMA runtime).

This package provides everything below the RMA programming model:

* :mod:`~repro.simulator.timebase` — per-process virtual clocks,
* :mod:`~repro.simulator.costs` — LogGP-style cost model of the machine,
* :mod:`~repro.simulator.topology` — failure-domain hierarchies (FDH, §5),
* :mod:`~repro.simulator.placement` — process-to-node mappings (the paper's M),
* :mod:`~repro.simulator.metrics` — counters shared by all layers,
* :mod:`~repro.simulator.cluster` — the simulated job tying it all together.
"""

from repro.simulator.cluster import Cluster
from repro.simulator.costs import CostModel, cray_xe6_like, ethernet_cluster_like
from repro.simulator.metrics import MetricsRegistry, MetricsSnapshot
from repro.simulator.placement import (
    Placement,
    block_placement,
)
from repro.simulator.timebase import ClockCollection, VirtualClock
from repro.simulator.topology import FailureDomainHierarchy, FDElement

__all__ = [
    "Cluster",
    "CostModel",
    "cray_xe6_like",
    "ethernet_cluster_like",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Placement",
    "block_placement",
    "ClockCollection",
    "VirtualClock",
    "FailureDomainHierarchy",
    "FDElement",
]
