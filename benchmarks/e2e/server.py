"""The system under test: the live cluster as one pinned server process.

Started by the load generator as ``python server.py '<json spec>'``.
It pins itself to the CPU the spec names, optionally installs the span
tracer (before any site object exists), composes one
:class:`~repro.rt.net.NetCentral` and N :class:`~repro.rt.net.NetMirror`
on one asyncio loop over loopback TCP — the composition of
``ShardRuntime.start`` — and then serves until told to quit.

Control runs over the process's own pipes, one JSON object per line:
the first line out announces the ports; ``mark`` answers with the
public counters (and the tracer's aggregates), ``digests`` with the
replica digests, ``quit`` writes the trace file and exits.  ``final``
is ``mark`` after folding the live subscription groups' shared-encode
savings into the wire stats, which the program itself does once, at
teardown - so ask for it once, last.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

_T_SPAWNED = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")


def _counters(central: Any, mirrors: List[Any]) -> Dict[str, Any]:
    """The program's own public counters, read where they live."""
    from dataclasses import asdict

    from repro.rt.net import WireStats

    site = central.site
    wire = WireStats()
    wire.merge(central.stats)
    for mirror in mirrors:
        wire.merge(mirror.stats)
    mains = [site.main] + [m.site.main for m in mirrors]
    subs = list(site.mirror_channel.subscriptions) + list(site.ctrl_channel.subscriptions)
    for mirror in mirrors:
        subs += [mirror.data_sub, mirror.ctrl_sub]
    engine = mirrors[0].subfan.registry.engine.stats if mirrors else None
    return {
        "wire": asdict(wire),
        "frames_shared": central.shared.frames_shared,
        "shared_encodes_saved": central.shared.encodes_saved,
        "engine": asdict(engine) if engine is not None else {},
        "received": site.engine.received,
        "mirrored": site.mirrored_events,
        "processed": [m.ede.processed for m in mains],
        "inbox": [m.inbox.qsize() for m in mains],
        "outbound": [c.outbound.qsize() for c in central.connections.values()],
        "responses": [len(m.responses) for m in mains],
        "snapshot_builds": sum(m.snapshot_builds for m in mains),
        "snapshot_cache_hits": sum(m.snapshot_cache_hits for m in mains),
        "delta_served": sum(m.delta_snapshots_served for m in mains),
        "rounds_started": site.coordinator.rounds_started,
        "rounds_committed": site.coordinator.rounds_committed,
        "backup_peak": site.backup.peak,
        "channel_high_watermark": max((s.high_watermark for s in subs), default=0),
        "channel_blocked_puts": sum(s.blocked_puts for s in subs),
    }


async def _serve(spec: Dict[str, Any], tracer: Optional[Any]) -> None:
    from repro.rt.net import NetCentral, NetMirror
    from repro.sim import SIM_ACCEL_ACTIVE
    from repro.wire import accel as wire_accel
    from workloads import WORKLOADS

    workload = next(w for w in WORKLOADS if w.name == spec["workload"])
    host = "127.0.0.1"
    central = NetCentral(workload.n_mirrors, config=workload.mirror_config())
    mirrors = [
        NetMirror(name, config=central.config) for name in central.mirror_names
    ]
    port = await central.start(host=host)
    client_ports = [await m.serve_clients(host=host) for m in mirrors]
    tasks = [asyncio.create_task(m.run(host, port)) for m in mirrors]
    await central.mirrors_connected.wait()
    site = central.site
    tasks += [
        asyncio.create_task(site.receiving_task()),
        asyncio.create_task(site.sending_task()),
        asyncio.create_task(site.control_task()),
        asyncio.create_task(site.main.event_loop()),
    ]

    def say(obj: Dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    say({
        "ready": True,
        "pid": os.getpid(),
        "central_port": port,
        "client_ports": client_ports,
        "launch_s": time.perf_counter() - _T_SPAWNED,
        "lanes": {
            "wire": "C" if wire_accel.AVAILABLE else "pure",
            "sim": "C" if SIM_ACCEL_ACTIVE else "pure",
        },
    })

    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
    )
    while True:
        line = await reader.readline()
        command = line.decode().strip()
        if not line or command == "quit":
            break
        if command in ("mark", "final"):
            if command == "final":
                central.subfan.collect_shared_stats()
                for mirror in mirrors:
                    mirror.subfan.collect_shared_stats()
            reply = _counters(central, mirrors)
            if tracer is not None:
                reply["trace"] = tracer.by_layer()
            say(reply)
        elif command == "digests":
            mains = [site.main] + [m.site.main for m in mirrors]
            say({
                "digests": [
                    hashlib.sha256(repr(m.ede.state_digest()).encode()).hexdigest()
                    for m in mains
                ]
            })
        else:
            say({"error": f"unknown command {command!r}"})
    if tracer is not None and spec.get("trace_path"):
        tracer.write(spec["trace_path"], spec, _counters(central, mirrors))
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    await central.close()
    for mirror in mirrors:
        await mirror.close()


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    cpu = spec.get("cpu")
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, _SRC)
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    # run_net_scenario's GC pacing: the hot path recycles its buffers,
    # so the default gen-0 trigger fires thousands of times a second
    # over mostly-live objects; collection stays on, in far fewer passes
    thresholds = gc.get_threshold()
    gc.set_threshold(50_000, thresholds[1], thresholds[2])
    asyncio.run(_serve(spec, tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
