"""Live runtime: the same mirroring core, served over TCP.

The simulation backend (:mod:`repro.core.system`) produces the paper's
figures with a calibrated cost model; this backend runs the identical
protocol logic — rule engines, checkpoint state machines, adaptation —
as real asyncio tasks whose sites talk the binary wire format over
sockets (:mod:`repro.rt.net`; sharded: :mod:`repro.rt.shards`),
demonstrating the system live (DESIGN.md §2: "asyncio prototype easy;
throughput numbers less faithful").
"""

from .channels import AsyncSubscription, Channel
from .sites import AsyncCentralSite, AsyncMainUnit, AsyncMirrorSite, EOS

__all__ = [
    "AsyncSubscription",
    "Channel",
    "AsyncCentralSite",
    "AsyncMainUnit",
    "AsyncMirrorSite",
    "EOS",
]
