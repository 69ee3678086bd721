#!/usr/bin/env python
"""The mirroring framework running live on asyncio, over loopback TCP.

Same protocol code as the simulation backend — rule engines, the
checkpoint 2PC, adaptation — but executed as real asyncio tasks whose
sites exchange binary wire frames over real sockets.  Useful to see the
system behave as software rather than as a model (per DESIGN.md,
figures come from the calibrated simulation; this backend is the
runnable prototype).

Run:  python examples/live_asyncio.py
"""

import asyncio

from repro.core import selective_mirroring
from repro.ois import FlightDataConfig, generate_script
from repro.rt.net import run_net_scenario


async def main() -> None:
    script = generate_script(
        FlightDataConfig(
            n_flights=10,
            positions_per_flight=100,
            event_size=1024,
            seed=13,
        )
    )
    summary = await run_net_scenario(
        script,
        n_mirrors=2,
        config=selective_mirroring(overwrite_len=10),
        n_requests=20,
    )

    print("=== live run over TCP (2 mirrors, selective mirroring) ===")
    print(f"events in               : {summary.events_in}")
    print(f"events mirrored         : {summary.events_mirrored}")
    print(f"processed by central EDE: {summary.events_processed_central}")
    print(f"updates distributed     : {summary.updates_distributed}")
    print(f"requests served         : {summary.requests_served}")
    print(f"checkpoint rounds       : {summary.checkpoint_rounds} "
          f"({summary.checkpoint_commits} committed)")
    print(f"replicas consistent     : {summary.replicas_consistent} "
          "(statuses; positions relaxed by selective mirroring)")
    print(f"wall time               : {summary.wall_seconds:.3f} s")
    print(f"mean update delay       : {summary.mean_update_delay * 1e3:.3f} ms "
          "(host-runtime timing, not the calibrated model)")
    print(f"wire                    : {summary.wire.frames_sent} frames, "
          f"{summary.wire.bytes_sent} bytes sent")


if __name__ == "__main__":
    asyncio.run(main())
