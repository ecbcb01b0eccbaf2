"""Open-loop traffic: seeded Poisson arrivals with Zipf key skew.

The generator produces the *whole* request trace up front, as a pure
function of its parameters — Poisson-many requests, arrival instants as
sorted uniforms over the normalized timeline (the order statistics of a
Poisson process), Zipf-skewed keys, a Bernoulli read/write mix — and then
pre-assigns every request to the ``(frontend rank, job step)`` that will
admit it.  Pre-assignment is the load-bearing design decision: the serving
kernel stays a pure function of ``(step, rank)``, which is exactly the
contract the localized-replay cursor enforces (a kernel that consulted the
clock to decide what to serve would issue different operations during
replay and abort recovery with a divergence error).

The trace is numpy columns drawn in one vectorised pass — arrival fraction,
key and write delta per request, in arrival (``rid``) order — and a
:class:`Request` exists only while someone indexes or iterates it.  The
frontend is ``rid % nprocs`` and the step never decreases in ``rid``, so
what one ``(step, frontend)`` admits is a strided ``rid`` range.

*Open-loop* means arrival times never react to service times: a request
admitted at step ``s`` arrived at its own instant of the failure-free
timeline whether or not the service is mid-recovery — so queueing delay
during an outage shows up as latency, the thing a closed-loop (lock-step)
driver structurally cannot measure.

Identical seeds yield byte-identical traces (:func:`trace_lines` is the
canonical serialization CI and the determinism tests compare); disjoint
seeds yield disjoint traces.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ServeError

__all__ = ["Request", "RequestGenerator", "trace_lines"]

#: Request verbs of the KV service.
READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class Request:
    """One client request, fully determined at generation time."""

    #: Arrival-order id (0-based; arrival fractions are non-decreasing in it).
    rid: int
    #: Arrival instant as a fraction of the failure-free timeline, in [0, 1).
    frac: float
    #: The rank admitting this request (round-robin frontend assignment).
    frontend: int
    #: The job step that serves it: ``floor(frac * steps)``.
    step: int
    #: ``"read"`` or ``"write"``.
    op: str
    #: Client key (hashed onto a shard by the :class:`~repro.serve.shard.ShardMap`).
    key: int
    #: Accumulated value for writes (0.0 for reads).
    delta: float

    def as_dict(self) -> dict:
        return asdict(self)


class RequestGenerator:
    """Seeded open-loop request source for one service run.

    Parameters mirror the load knobs of a synthetic benchmark driver:
    ``rate_per_step`` (mean arrivals per job step — the Poisson intensity),
    ``zipf_s`` (key-skew exponent; 0 degenerates to uniform), and
    ``read_fraction``.  ``generate()`` is deterministic and side-effect
    free; two generators with equal parameters produce equal traces.
    """

    def __init__(
        self,
        *,
        seed: int,
        steps: int,
        nprocs: int,
        key_space: int,
        rate_per_step: float = 8.0,
        zipf_s: float = 1.1,
        read_fraction: float = 0.5,
    ) -> None:
        if steps < 1 or nprocs < 1 or key_space < 1:
            raise ServeError("traffic needs steps, nprocs and key_space all >= 1")
        if rate_per_step <= 0:
            raise ServeError("rate_per_step must be positive")
        if zipf_s < 0:
            raise ServeError("zipf_s must be non-negative")
        if not 0.0 <= read_fraction <= 1.0:
            raise ServeError("read_fraction must be within [0, 1]")
        self.seed = seed
        self.steps = steps
        self.nprocs = nprocs
        self.key_space = key_space
        self.rate_per_step = rate_per_step
        self.zipf_s = zipf_s
        self.read_fraction = read_fraction

    # ------------------------------------------------------------------
    def _rng(self) -> np.random.Generator:
        """Entropy: the seed plus a stable domain tag — and nothing else.

        The tag enters as a CRC (not a Python hash), so the stream is
        identical across processes and machines; the comparison axes
        (backend, store, recovery) never enter, so every cell of a
        comparison faces the *same* client population.
        """
        return np.random.default_rng(
            np.random.SeedSequence((self.seed, zlib.crc32(b"serve.traffic")))
        )

    def _key_probabilities(self) -> np.ndarray:
        """Zipf(s) mass over the key space (uniform when ``zipf_s == 0``)."""
        weights = 1.0 / np.power(
            np.arange(1, self.key_space + 1, dtype=np.float64), self.zipf_s
        )
        return weights / weights.sum()

    def generate(self) -> "_Trace":
        """The full request trace, in arrival order (a sequence of columns)."""
        rng = self._rng()
        count = int(rng.poisson(self.rate_per_step * self.steps))
        fracs = np.sort(rng.random(count))
        keys = rng.choice(self.key_space, size=count, p=self._key_probabilities())
        reads = rng.random(count) < self.read_fraction
        deltas = rng.integers(1, 10, size=count).astype(np.float64)
        deltas[reads] = 0.0
        return _Trace(fracs, keys, deltas, steps=self.steps, nprocs=self.nprocs)


class _Trace(Sequence):
    """A request trace as columns, in arrival (``rid``) order.

    Only ``frac``, ``key`` and ``delta`` (0.0 for a read) are stored; the
    frontend and step follow from the id and the fraction, and every
    :class:`Request` is a view made on demand.
    """

    def __init__(
        self, frac: np.ndarray, key: np.ndarray, delta: np.ndarray, *, steps: int, nprocs: int
    ) -> None:
        self.frac, self.key, self.delta = frac, key, delta
        self.steps, self.nprocs = steps, nprocs
        step = np.minimum((frac * steps).astype(np.int64), steps - 1)
        #: ``starts[s]``: the first rid step ``s`` serves (``starts[steps] == len``).
        self.starts = np.searchsorted(step, np.arange(steps + 1)).tolist()

    def __len__(self) -> int:
        return len(self.frac)

    def __getitem__(self, rid: int) -> Request:
        rid = range(len(self))[rid]
        frac, delta = float(self.frac[rid]), float(self.delta[rid])
        step = min(int(frac * self.steps), self.steps - 1)
        op = WRITE if delta else READ
        return Request(rid, frac, rid % self.nprocs, step, op, int(self.key[rid]), delta)

    def admitted(self, step: int, frontend: int) -> range:
        """The rids ``(step, frontend)`` admits, in rid order: ``step`` never
        decreases in ``rid``, so they are every ``nprocs``-th of the step's."""
        if not (0 <= step < self.steps and 0 <= frontend < self.nprocs):
            return range(0)
        lo, hi = self.starts[step], self.starts[step + 1]
        return range(lo + (frontend - lo) % self.nprocs, hi, self.nprocs)


def trace_lines(requests: Iterable[Request]):
    """Canonical JSONL lines of a trace (sorted keys, no whitespace).

    This — not the in-memory columns — is what the determinism tests compare:
    byte equality of the serialization proves the traces equal down to float
    bit patterns.
    """
    for request in requests:
        yield json.dumps(request.as_dict(), sort_keys=True, separators=(",", ":"))
