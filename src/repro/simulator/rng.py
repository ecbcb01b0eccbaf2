"""Deterministic random-number helpers.

Every stochastic component of the simulator (failure schedules, synthetic
failure histories, key-value-store workloads) takes an explicit seed and draws
from its own :class:`numpy.random.Generator`, so that simulations are
reproducible and independent components do not perturb each other's streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(
    seed: "int | np.random.Generator | np.random.SeedSequence | None",
) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may already be a generator (returned unchanged), an integer, a
    :class:`numpy.random.SeedSequence` (how the study campaign derives
    independent per-trial streams from structured entropy), or ``None``
    (fresh OS entropy — only useful for exploratory runs, never used by the
    benchmark harness).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

