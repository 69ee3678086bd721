"""``python -m repro rt`` — run the live runtime from the command line.

Backends:

* ``--net none`` (default) — the in-process asyncio backend
  (:class:`~repro.rt.system.AsyncMirroredServer`).
* ``--net tcp`` — real localhost sockets speaking the binary wire
  format (:mod:`repro.rt.net`); with ``--processes`` the mirrors and
  the thin client run as separate OS processes (the deployment shape),
  without it everything shares one event loop but still crosses TCP.
* ``--net tcp --shards N`` — the sharded multi-central cluster
  (:mod:`repro.rt.shards`): the flight keyspace partitioned over N
  central shards behind an ingress router; with ``--processes`` each
  shard (central + its mirrors) is a real OS process.

Prints a JSON summary to stdout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from dataclasses import asdict
from typing import List, Optional, Sequence

from ..ois.flightdata import FlightDataConfig, generate_script

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro rt",
        description="Run the live mirrored server (asyncio or TCP backend).",
    )
    parser.add_argument(
        "--net", choices=("none", "tcp"), default="none",
        help="transport backend: in-process queues (none) or real sockets (tcp)",
    )
    parser.add_argument(
        "--processes", action="store_true",
        help="with --net tcp: run mirrors and client as separate OS processes",
    )
    parser.add_argument(
        "--shards", type=int, default=0,
        help="with --net tcp: partition the keyspace over N central "
             "shards behind an ingress router (0 = unsharded)",
    )
    parser.add_argument(
        "--strategy", choices=("hash", "airport"), default="hash",
        help="with --shards: keyspace partitioning strategy "
             "(consistent hashing or per-airport ranges)",
    )
    parser.add_argument(
        "--handoffs", type=int, default=0,
        help="workload: airport-handoff events that can move a flight "
             "between shards (default 0)",
    )
    parser.add_argument("--mirrors", type=int, default=2,
                        help="number of mirror sites (default 2)")
    parser.add_argument("--requests", type=int, default=8,
                        help="thin-client initial-state requests (default 8)")
    parser.add_argument("--flights", type=int, default=20,
                        help="workload: number of flights (default 20)")
    parser.add_argument("--positions", type=int, default=50,
                        help="workload: position fixes per flight (default 50)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--subscribers", type=int, default=0,
        help="attach N push subscribers with flight-scoped predicates "
             "(round-robin over the workload's flights; default 0)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(list(argv) if argv is not None else None)
    if args.mirrors < 0 or args.requests < 0:
        raise SystemExit("--mirrors and --requests must be >= 0")
    if args.shards < 0 or args.handoffs < 0:
        raise SystemExit("--shards and --handoffs must be >= 0")
    if args.shards and args.net != "tcp":
        raise SystemExit("--shards requires --net tcp")
    if args.subscribers < 0:
        raise SystemExit("--subscribers must be >= 0")
    if args.subscribers and args.net != "tcp":
        raise SystemExit("--subscribers requires --net tcp")
    if args.subscribers and args.processes:
        raise SystemExit("--subscribers is not plumbed through --processes")
    script = generate_script(
        FlightDataConfig(
            n_flights=args.flights,
            positions_per_flight=args.positions,
            handoffs=args.handoffs,
            seed=args.seed,
        )
    )
    request_times: List[float] = [0.0] * args.requests
    subscribers: List[tuple] = []
    if args.subscribers:
        from ..sub.predicate import ByFlight

        flights = sorted({se.event.key for se in script.fresh_events()})
        subscribers = [
            (f"sub-{i}", ByFlight(flights[i % len(flights)]))
            for i in range(args.subscribers)
        ]

    if args.shards:
        from .shards import ShardProcessRunner, run_sharded_scenario

        if args.processes:
            result = ShardProcessRunner(
                n_shards=args.shards,
                n_mirrors=args.mirrors,
                strategy=args.strategy,
                script=script,
                n_requests=args.requests,
            ).run()
            print(json.dumps(result, indent=2, default=list))
            return 0
        request_keys = sorted({se.event.key for se in script.fresh_events()})
        summary = asyncio.run(
            run_sharded_scenario(
                script=script,
                n_shards=args.shards,
                n_mirrors=args.mirrors,
                strategy=args.strategy,
                request_keys=request_keys[: args.requests],
                subscriptions=subscribers,
            )
        )
        payload = asdict(summary)
        payload.pop("shard_map", None)
        payload["backend"] = "tcp-sharded(single-process)"
        print(json.dumps(payload, indent=2, default=list))
        return 0

    if args.net == "tcp" and args.processes:
        from .net import NetProcessRunner

        result = NetProcessRunner(
            n_mirrors=args.mirrors, n_requests=args.requests, script=script
        ).run()
        print(json.dumps(result, indent=2, default=list))
        return 0

    if args.net == "tcp":
        from .net import run_net_scenario

        summary = asyncio.run(
            run_net_scenario(
                script=script,
                n_mirrors=args.mirrors,
                request_times=request_times,
                subscribers=subscribers,
            )
        )
        payload = asdict(summary)
        payload["backend"] = "tcp(single-process)"
        payload["replicas_consistent"] = summary.replicas_consistent
        payload["events_per_second"] = (
            summary.events_in / summary.wall_seconds
            if summary.wall_seconds > 0
            else 0.0
        )
        print(json.dumps(payload, indent=2, default=list))
        return 0

    from .system import AsyncMirroredServer

    summary = asyncio.run(
        AsyncMirroredServer(n_mirrors=args.mirrors).run(
            script, request_times=request_times
        )
    )
    payload = asdict(summary)
    payload["backend"] = "asyncio"
    payload["replicas_consistent"] = summary.replicas_consistent
    print(json.dumps(payload, indent=2, default=list))
    return 0
