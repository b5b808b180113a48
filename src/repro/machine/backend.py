"""The per-cpu cache backend protocol and registry.

Each :class:`~repro.machine.processor.Processor` prices its touch
batches through one object, its E-cache: the paper's model and its
counter readings concern only that cache (sections 2.1 and 5).  Two
implementations satisfy the protocol, selected per experiment and per
bench run as ``--backend sim|analytic`` (default ``sim``):

- ``sim`` replays every reference through a
  :class:`~repro.machine.cache.DirectMappedCache`, or a
  :class:`~repro.machine.cache.SetAssociativeCache` when the config's
  ``l2_ways > 1``;
- ``analytic`` predicts miss counts from reuse distances with the
  closed form of :class:`~repro.machine.analytic.AnalyticCache`.

A backend prices touch batches as
:class:`~repro.machine.cache.AccessResult` values (refs/hits/misses feed
the performance counters and the cycle accounting), carries cumulative
:class:`~repro.machine.cache.CacheStats` (reports and the tracer read
them), and supports ``invalidate`` (coherence traffic) and ``flush``
(between workload phases).

The simulated backend operates on *physical* lines behind the VM; the
analytic backend skips translation and works on virtual lines directly
-- the :class:`~repro.machine.smp.Machine` routes accordingly.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.machine.analytic import AnalyticCache
from repro.machine.cache import (
    AccessResult,
    CacheStats,
    DirectMappedCache,
    SetAssociativeCache,
)
from repro.machine.configs import MachineConfig

#: the selectable cache backends (CLI: ``--backend``)
BACKEND_NAMES: Tuple[str, ...] = ("sim", "analytic")

#: the default backend: faithful per-reference simulation
DEFAULT_BACKEND = "sim"


@runtime_checkable
class CacheBackend(Protocol):
    """One cpu's E-cache, as its :class:`Processor` drives it."""

    num_lines: int
    stats: CacheStats

    def access(self, lines: np.ndarray) -> AccessResult:
        """Price a touch batch in order; returns the outcome."""

    def invalidate(self, lines: np.ndarray) -> int:
        """Remove distinct lines (coherence traffic); returns lines
        invalidated."""

    def flush(self) -> int:
        """Empty the cache; returns lines evicted."""


#: factory type: config -> per-cpu backend instance
BackendFactory = Callable[[MachineConfig], CacheBackend]


def _sim_cache(config: MachineConfig) -> CacheBackend:
    if config.l2_ways > 1:
        return SetAssociativeCache(
            config.l2_bytes, config.line_bytes, ways=config.l2_ways
        )
    return DirectMappedCache(config.l2_bytes, config.line_bytes)


def _analytic_cache(config: MachineConfig) -> CacheBackend:
    return AnalyticCache(config.l2_lines)


_FACTORIES: Dict[str, BackendFactory] = {
    "sim": _sim_cache,
    "analytic": _analytic_cache,
}


def resolve_backend(name: str) -> BackendFactory:
    """Map a backend name to its per-cpu cache factory."""
    try:
        return _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None
