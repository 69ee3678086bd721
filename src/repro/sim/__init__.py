"""Deterministic discrete-event simulation substrate.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`
  — the kernel (process-interaction style, generator coroutines).
* :class:`Resource`, :class:`Store` — CPUs and queues.
* :class:`RandomStreams` — named, reproducible random substreams.
* :class:`Counter`, :class:`Tally`, :class:`TimeWeightedGauge`,
  :class:`TimeSeries` — measurement probes.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .probes import Counter, SummaryStats, Tally, TimeSeries, TimeWeightedGauge
from .resources import Request, Resource, Store, StoreGet, StorePut
from .rng import RandomStreams
from .trace import TraceRecord, Tracer

#: Always False: the compiled kernel lane is retired (DESIGN.md §13).
#: Kept only because ``benchmarks/e2e/server.py`` imports the name; the
#: next ``benchmark`` PR drops that import and this line with it.
SIM_ACCEL_ACTIVE = False

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Counter",
    "SummaryStats",
    "Tally",
    "TimeSeries",
    "TimeWeightedGauge",
    "Request",
    "Resource",
    "Store",
    "StoreGet",
    "StorePut",
    "RandomStreams",
    "TraceRecord",
    "Tracer",
    "SIM_ACCEL_ACTIVE",
]
