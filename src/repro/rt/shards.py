"""Sharded multi-central cluster: ingress router and process runner.

One central site funnels every update through a single core.  This
module runs **N central shards** — each a full
:class:`~repro.rt.net.NetCluster`, a central with its own mirror set
and its own checkpoint rounds — and puts a thin **ingress router** in
front:

* placement is pure and shared (:mod:`repro.shard.partition`): the
  router, every shard and every client compute the same owner for a
  route key from the tiny :class:`~repro.shard.partition.ShardMap`;
* the router fans the FAA/Delta streams out per shard with **batched
  cross-shard forwards** (one BATCH frame per shard per window, not one
  socket write per event) over the ordered ``source`` connection each
  shard's central site serves;
* airport handoffs run the tombstone + transfer protocol of
  :mod:`repro.shard.handoff` over those same ordered connections, so no
  update is lost or duplicated while a flight changes shards;
* content subscriptions are **scope-routed**: the router registers each
  client predicate only with the shards that can match it
  (:func:`~repro.sub.predicate.route_keys` — flight- and airport-pinned
  predicates go to the owners, unscoped ones go cluster-wide) over one
  ``subscriber`` connection per shard, and a completed handoff
  re-registers the moved flight's subscriptions on the new shard
  *before* the buffered updates ship, so the matched stream is
  shard-count-invariant;
* clients fetch the shard map from the router and connect **directly**
  to the owning shard's serving port for snapshots — the router is on
  the ingest path only, never on the read path.

Checkpoint domains: every shard's coordinator agrees over that shard's
qualified site names only (``shard0/central``, ``shard0/mirror1``, ...),
so rounds in one shard never wait on another.  The live cluster detects
no failure yet; detection and failover per shard are the simulator's
(``python -m repro chaos --shard shardK``, resolved by
:mod:`repro.faults.siteid` against the same qualified names).

Two deployment shapes, mirroring :mod:`repro.rt.net`:

* :func:`run_sharded_scenario` — all shards in one process/event loop,
  every byte over loopback TCP (tests, determinism checks);
* :class:`ShardProcessRunner` — each shard as a real OS process
  (``python -m repro rt --shards N --processes``), spawned through the
  same child skeleton as :class:`~repro.rt.net.NetProcessRunner`'s
  mirrors; a shard that dies fails the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import MirrorConfig
from ..core.events import EOS, UpdateEvent
from ..ois.flightdata import EventScript, FlightDataConfig, generate_script
from ..shard.handoff import RoutingCore, ShardTransfer, merge_digests
from ..shard.partition import ShardMap, shard_name
from ..sub.messages import SubAck, Subscribe
from ..sub.predicate import Predicate, canonical, route_keys, to_nodes
from ..wire import Hello, WireEncoder
from .net import (
    NetCluster,
    WireStats,
    _Children,
    _dial,
    _FrameReader,
    _Link,
    _Listener,
    _latency_report,
    _preassign_ports,
    _run_client,
)
from .tasks import TaskSupervisor

__all__ = [
    "IngressRouter",
    "ShardedRunSummary",
    "run_sharded_scenario",
    "ShardProcessRunner",
    "fetch_shard_map",
]


@dataclass
class ShardedRunSummary:
    """Cluster-wide summary of one sharded run."""

    n_shards: int
    strategy: str
    events_in: int
    events_routed: int
    events_buffered: int
    transfers_started: int
    transfers_completed: int
    same_shard_handoffs: int
    per_shard_events: List[int]
    shard_digests: List[tuple]
    merged_digest: tuple
    replicas_consistent: bool
    checkpoint_rounds: int
    checkpoint_commits: int
    requests_served: int
    client_latencies: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    events_per_second: float = 0.0
    wire: WireStats = field(default_factory=WireStats)
    shard_map: Optional[ShardMap] = None
    subscriptions_registered: int = 0
    sub_acks: int = 0
    subs_reregistered: int = 0
    sub_deliveries: int = 0
    #: sorted ``(flight_key, kind)`` pairs of every delivered matched
    #: event — directly comparable across shard counts (digest-style)
    sub_delivery_log: List[Tuple[str, str]] = field(default_factory=list)


class IngressRouter:
    """Fans the event streams out to the owning shards.

    Owns the :class:`~repro.shard.handoff.RoutingCore` state machine and
    one ``source`` connection per shard.  Forwards are **batched**: each
    shard has a pending-event buffer that ships as one BATCH frame when
    it reaches ``batch_size`` (or when a control frame must overtake it
    — tombstones and transfers flush the buffer first, preserving the
    per-connection order the handoff protocol's correctness rests on).
    All encoding and ``write()`` calls for one emission happen
    synchronously — frame order on each connection therefore equals
    emission order even though reader tasks complete transfers
    concurrently with the script driver.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        batch_size: int = 16,
        stats: Optional[WireStats] = None,
    ):
        self.shard_map = shard_map
        self.partitioner = shard_map.partitioner()
        self.core = RoutingCore(self.partitioner)
        self.batch_size = max(1, batch_size)
        self.stats = stats if stats is not None else WireStats()
        self._writers: List[asyncio.StreamWriter] = []
        self._encoders: List[WireEncoder] = []
        self._pending: List[List[UpdateEvent]] = []
        self._readers: List[asyncio.Task] = []
        self._idle = asyncio.Event()
        #: answers each connection's HELLO with the map; nothing it
        #: serves ever waits, so its supervisor watches nothing
        self._map_listener = _Listener(self.stats, TaskSupervisor(), self._send_map)
        self.map_port: Optional[int] = None
        self.shard_events: List[int] = [0] * shard_map.n_shards
        # -- subscription forwarding state --------------------------------
        self._host = "127.0.0.1"
        self._ports: List[int] = []
        #: shard index -> (writer, encoder) of the subscriber connection
        #: (opened lazily: a shard no predicate can match never gets one)
        self._sub_conns: Dict[int, Tuple[asyncio.StreamWriter, WireEncoder]] = {}
        self._sub_readers: List[asyncio.Task] = []
        #: every registered subscription: client_id, sub_id, nodes,
        #: scope (route_keys result) and the shards already holding it
        self._subs: List[Dict[str, Any]] = []
        #: flight id -> the flight-scoped records that must follow it
        #: through handoffs
        self._flight_subs: Dict[str, List[Dict[str, Any]]] = {}
        self._next_sub_id = 0
        self._acks_expected = 0
        self._ack_event = asyncio.Event()
        self.subs_registered = 0
        self.sub_acks = 0
        self.subs_reregistered = 0
        #: matched events pushed back by the shard brokers, in arrival
        #: order per shard (the cross-shard union is order-free)
        self.sub_events: List[UpdateEvent] = []

    async def connect(self, host: str, ports: Sequence[int]) -> None:
        """Open the per-shard source connections (:func:`_dial` retries:
        in process mode the shard children are still binding their
        ports)."""
        self._host = host
        self._ports = list(ports)
        for index, port in enumerate(ports):
            frames, writer, encoder = await _dial(
                host, port, Hello("source", "router"), self.stats
            )
            await writer.drain()
            self._writers.append(writer)
            self._encoders.append(encoder)
            self._pending.append([])
            self._readers.append(asyncio.create_task(self._reader(index, frames)))

    async def serve_map(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Listen for clients asking for the shard map (one T_SHARD_MAP
        frame per connection; placement is pure, so the map is the whole
        topology handshake)."""
        self.map_port = await self._map_listener.start(host, port)
        return self.map_port

    def _send_map(self, link: _Link, _hello: Hello) -> None:
        """Answer a HELLO on the map port with the map; the link then
        hangs up, once the map has gone out."""
        frame = WireEncoder().encode_shard_map(self.shard_map)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(frame)
        link.write(frame)

    # -- subscriptions ---------------------------------------------------
    async def register_subscription(
        self,
        client_id: str,
        predicate: Predicate,
        sub_id: Optional[int] = None,
    ) -> int:
        """Register one client predicate with every shard that can match
        it, and await the brokers' SUB_ACKs.

        Scoped predicates (every disjunct pins a flight or an airport,
        per :func:`~repro.sub.predicate.route_keys`) go only to the
        owning shards; unscoped ones register cluster-wide.  On return
        every relevant broker holds the predicate, so no subsequently
        routed event can be missed.  Returns the wire ``sub_id``.
        """
        if sub_id is None:
            self._next_sub_id += 1
            sub_id = self._next_sub_id
        pred = canonical(predicate)
        scope = route_keys(pred)
        rec: Dict[str, Any] = {
            "client_id": client_id,
            "sub_id": sub_id,
            "nodes": to_nodes(pred),
            "scope": scope,
            "sent": {},
        }
        self._subs.append(rec)
        self.subs_registered += 1
        if scope is not None:
            for flight_id in scope[0]:
                self._flight_subs.setdefault(flight_id, []).append(rec)
        await self._send_subscribe(rec, self._sub_targets(scope))
        return sub_id

    def _sub_targets(
        self, scope: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]
    ) -> List[int]:
        """Shard indices a subscription scope registers on right now."""
        if scope is None:
            return list(range(self.shard_map.n_shards))
        flights, airports = scope
        owners: Dict[int, bool] = {}
        for flight_id in flights:
            owners[self.core.owner_of(flight_id)] = True
        for airport in airports:
            # only handoff events carry an airport, and a handoff always
            # lands on the shard owning its target airport — so the
            # static placement is the one matching shard
            owners[self.partitioner.owner_of(airport)] = True
        return sorted(owners)

    async def _ensure_sub_conn(
        self, index: int
    ) -> Tuple[asyncio.StreamWriter, WireEncoder]:
        """Open (once) the subscriber connection to shard ``index``."""
        conn = self._sub_conns.get(index)
        if conn is not None:
            return conn
        frames, writer, encoder = await _dial(
            self._host, self._ports[index], Hello("subscriber", "router"),
            self.stats,
        )
        await writer.drain()
        conn = self._sub_conns[index] = (writer, encoder)
        self._sub_readers.append(
            asyncio.create_task(self._sub_reader(index, frames))
        )
        return conn

    async def _send_subscribe(
        self, rec: Dict[str, Any], targets: Sequence[int]
    ) -> int:
        """Send ``rec`` to every target shard not yet holding it; await
        the acks before returning, so callers can order traffic after
        the registration."""
        sent = 0
        for index in targets:
            if rec["sent"].get(index):
                continue
            writer, encoder = await self._ensure_sub_conn(index)
            t0 = time.perf_counter_ns()
            frame = encoder.encode_message(
                Subscribe(rec["client_id"], rec["sub_id"], rec["nodes"])
            )
            self.stats.encode_ns += time.perf_counter_ns() - t0
            self.stats.frames_sent += 1
            self.stats.bytes_sent += len(frame)
            writer.write(frame)
            await writer.drain()
            rec["sent"][index] = True
            sent += 1
        if sent:
            self._acks_expected += sent
            while self.sub_acks < self._acks_expected:
                self._ack_event.clear()
                if self.sub_acks >= self._acks_expected:
                    break
                await self._ack_event.wait()
        return sent

    async def _sub_reader(self, index: int, frames: _FrameReader) -> None:
        """Consume one shard's matched push stream (acks + events)."""
        while True:
            msg = await frames.next_message()
            if msg is None or msg == EOS:
                break
            if isinstance(msg, SubAck):
                self.sub_acks += 1
                self._ack_event.set()
            elif type(msg) is list:
                self.sub_events.extend(msg)
        # the broker's EOS means its matched stream is complete: hang up
        # so the shard side can finish serving before it closes
        conn = self._sub_conns.pop(index, None)
        if conn is not None:
            conn[0].close()

    async def _follow_handoff(self, transfer: ShardTransfer) -> None:
        """A flight changed shards: re-register its flight-scoped
        subscriptions on the new shard *before* the buffered updates are
        flushed there, so the new broker cannot miss a matched event.
        Unscoped subscriptions are already everywhere; the old shard
        keeps its copy harmlessly (it owns no further events for the
        flight)."""
        recs = self._flight_subs.get(transfer.flight_id)
        if not recs:
            return
        for rec in recs:
            self.subs_reregistered += await self._send_subscribe(
                rec, (transfer.to_shard,)
            )

    # -- shipping --------------------------------------------------------
    def _write_frame(self, index: int, frame: bytes) -> None:
        self.stats.frames_sent += 1
        self.stats.bytes_sent += len(frame)
        self._writers[index].write(frame)

    def _flush_shard(self, index: int) -> None:
        pending = self._pending[index]
        if not pending:
            return
        t0 = time.perf_counter_ns()
        if len(pending) == 1:
            frame = self._encoders[index].encode_event(pending[0])
        else:
            frame = self._encoders[index].encode_batch(pending)
        self.stats.encode_ns += time.perf_counter_ns() - t0
        pending.clear()
        self._write_frame(index, frame)

    def _ship(self, emissions: List[Tuple[int, object]]) -> None:
        """Ship one emission list; synchronous, so per-connection frame
        order always matches the routing core's emission order."""
        for index, item in emissions:
            if isinstance(item, UpdateEvent):
                pending = self._pending[index]
                pending.append(item)
                self.shard_events[index] += 1
                if len(pending) >= self.batch_size:
                    self._flush_shard(index)
            else:
                # control (tombstone / transfer install): everything
                # buffered for this shard must precede it on the wire
                self._flush_shard(index)
                t0 = time.perf_counter_ns()
                frame = self._encoders[index].encode_message(item)
                self.stats.encode_ns += time.perf_counter_ns() - t0
                self._write_frame(index, frame)

    async def _reader(self, index: int, frames: _FrameReader) -> None:
        """Consume transfer replies from shard ``index``."""
        while True:
            msg = await frames.next_message()
            if msg is None or msg == EOS:
                break
            if isinstance(msg, ShardTransfer):
                # the new shard's broker must hold the moved flight's
                # subscriptions before any buffered update reaches it
                await self._follow_handoff(msg)
                self._ship(self.core.complete(msg))
                if not self.core.pending:
                    self._idle.set()

    async def route_script(self, script: EventScript) -> None:
        """Route the whole script and drain pending handoffs; the
        streams stay open (no EOS) so a caller can hold the cluster up
        — e.g. until a client process finishes its snapshot reads."""
        core = self.core
        ship = self._ship
        since_yield = 0
        for se in script.fresh_events():
            ship(core.route(se.event))
            since_yield += 1
            if since_yield >= 256:
                since_yield = 0
                # cooperative yield + backpressure: let shard tasks and
                # transfer readers run, and respect transport high-water
                for writer in self._writers:
                    await writer.drain()
        for writer in self._writers:
            await writer.drain()
        # a transfer still pending means updates are buffered at the
        # router; EOS must not overtake them
        while core.pending:
            self._idle.clear()
            if core.pending:
                await self._idle.wait()

    async def send_eos(self) -> None:
        """Flush every shard buffer and close the streams with EOS."""
        for index in range(len(self._writers)):
            self._flush_shard(index)
            self._write_frame(index, self._encoders[index].encode_eos())
        for writer in self._writers:
            await writer.drain()

    async def close(self) -> None:
        for task in (*self._readers, *self._sub_readers):
            if not task.done():
                task.cancel()
        if self._readers or self._sub_readers:
            await asyncio.gather(
                *self._readers, *self._sub_readers, return_exceptions=True
            )
        self._readers = []
        self._sub_readers = []
        for writer in self._writers:
            writer.close()
        self._writers = []
        for writer, _encoder in self._sub_conns.values():
            writer.close()
        self._sub_conns = {}
        await self._map_listener.close()

    async def wait_readers(self) -> None:
        """Wait for the shard connections to close (post-EOS).  The
        subscriber connections end with the shard brokers' own EOS
        (pushed when each shard's broadcast stream drains), never with a
        router-sent one — a subscriber EOS would race ahead of matched
        events still in the shard's pipeline."""
        if self._readers or self._sub_readers:
            await asyncio.gather(
                *self._readers, *self._sub_readers, return_exceptions=True
            )
            self._readers = []
            self._sub_readers = []


async def fetch_shard_map(
    host: str, map_port: int, stats: Optional[WireStats] = None
) -> ShardMap:
    """Ask the router for the cluster's shard map."""
    stats = stats if stats is not None else WireStats()
    frames, writer, _encoder = await _dial(
        host, map_port, Hello("client", "map"), stats
    )
    smap = await frames.next_message()
    writer.close()
    if not isinstance(smap, ShardMap):
        raise RuntimeError(f"expected a shard map, got {smap!r}")
    return smap


async def _run_sharded_client(
    host: str,
    map_port: int,
    keys: Sequence[str],
    stats: WireStats,
) -> List[float]:
    """Shard-aware thin client: fetch the map once, then send each
    request straight to the shard owning its key (no router hop on the
    read path).  Returns request latencies."""
    smap = await fetch_shard_map(host, map_port, stats)
    partitioner = smap.partitioner()
    ports = [smap.port_for(key, partitioner) for key in keys]
    return await _run_client(host, ports, stats)


async def run_sharded_scenario(
    script: Optional[EventScript] = None,
    n_shards: int = 2,
    n_mirrors: int = 1,
    strategy: str = "hash",
    config: Optional[MirrorConfig] = None,
    request_keys: Sequence[str] = (),
    router_batch: int = 16,
    subscriptions: Sequence[Tuple[str, Any]] = (),
    host: str = "127.0.0.1",
) -> ShardedRunSummary:
    """Run one full sharded scenario in a single event loop (every byte
    over loopback TCP — the deterministic test/bench shape).

    ``subscriptions`` is a sequence of ``(client_id, predicate)`` pairs
    the ingress router registers — scope-routed to the owning shards —
    and acks before the first event flows; the matched push stream the
    shard brokers deliver back is summarised in the ``sub_*`` summary
    fields, whose ``sub_delivery_log`` is comparable across shard
    counts."""
    if script is None:
        script = generate_script(FlightDataConfig())
    clusters = [
        NetCluster(n_mirrors, config=config, shard=shard_name(i))
        for i in range(n_shards)
    ]
    router: Optional[IngressRouter] = None
    # a shard that fails ends the scenario with its exception: the
    # router would otherwise wait for ever on a shard that stopped reading
    tasks = TaskSupervisor()
    client_latencies: List[float] = []
    client_stats = WireStats()

    async def drive() -> None:
        nonlocal router
        runners = []
        for cluster in clusters:
            await cluster.start(host=host)
            runners.append(tasks.spawn(cluster.run()))
        router = IngressRouter(
            ShardMap(
                strategy=strategy,
                names=tuple(cluster.shard for cluster in clusters),
                client_ports=tuple(cluster.client_ports[0] for cluster in clusters),
            ),
            batch_size=router_batch,
        )
        await router.connect(host, [cluster.port for cluster in clusters])
        map_port = await router.serve_map(host=host)
        for sub_client, predicate in subscriptions:
            await router.register_subscription(sub_client, predicate)
        client_task = (
            tasks.spawn(
                _run_sharded_client(host, map_port, request_keys, client_stats)
            )
            if request_keys else None
        )
        await router.route_script(script)
        if client_task is not None:
            # the streams stay open (and the shards up) until the client
            # has read its snapshots, as in the process runner
            client_latencies.extend(await client_task)
        await router.send_eos()
        await asyncio.gather(*runners)
        await router.wait_readers()

    try:
        t0 = time.monotonic()
        await tasks.guard(drive())
        wall = time.monotonic() - t0
    finally:
        await tasks.cancel()
        if router is not None:
            await router.close()
        for cluster in clusters:
            await cluster.close()
    assert router is not None
    shard_map = router.shard_map

    replica_digests = [cluster.replica_digests() for cluster in clusters]
    shard_digests = [digests[0] for digests in replica_digests]
    wire = WireStats()
    wire.merge(router.stats)
    wire.merge(client_stats)
    for cluster in clusters:
        wire.merge(cluster.stats())
    mains = [main for cluster in clusters for main in cluster.mains()]
    coordinators = [cluster.central.site.coordinator for cluster in clusters]
    return ShardedRunSummary(
        n_shards=n_shards,
        strategy=strategy,
        events_in=len(script),
        events_routed=router.core.events_routed,
        events_buffered=router.core.events_buffered,
        transfers_started=router.core.transfers_started,
        transfers_completed=router.core.transfers_completed,
        same_shard_handoffs=router.core.same_shard_handoffs,
        per_shard_events=list(router.shard_events),
        shard_digests=shard_digests,
        merged_digest=merge_digests(shard_digests),
        replicas_consistent=all(
            len(set(digests)) <= 1 for digests in replica_digests
        ),
        checkpoint_rounds=sum(c.rounds_started for c in coordinators),
        checkpoint_commits=sum(c.rounds_committed for c in coordinators),
        requests_served=sum(len(m.responses) for m in mains),
        client_latencies=client_latencies,
        wall_seconds=wall,
        events_per_second=(len(script) / wall if wall > 0 else 0.0),
        wire=wire,
        shard_map=shard_map,
        subscriptions_registered=router.subs_registered,
        sub_acks=router.sub_acks,
        subs_reregistered=router.subs_reregistered,
        sub_deliveries=len(router.sub_events),
        sub_delivery_log=sorted(
            (event.key, event.kind) for event in router.sub_events
        ),
    )


# --------------------------------------------------------------------------
# Multiprocess deployment (python -m repro rt --shards N --processes)
# --------------------------------------------------------------------------
async def _shard_child(
    index: int, host: str, port: int, client_ports: List[int], n_mirrors: int,
) -> Dict[str, Any]:
    """One shard in its own process: the whole cluster — central site
    plus its mirror set — on the pre-assigned ports, serving the
    router's source connection to the end of its stream."""
    cluster = NetCluster(n_mirrors, shard=shard_name(index))
    try:
        await cluster.start(host=host, port=port, client_ports=client_ports)
        await cluster.run()
    finally:
        await cluster.close()
    main_unit = cluster.central.site.main
    stats = cluster.stats()
    digests = cluster.replica_digests()
    return {
        "shard": cluster.shard,
        "events_applied": main_unit.ede.processed,
        "handoffs_out": main_unit.handoffs_out,
        "transfers_in": main_unit.transfers_in,
        "requests_served": sum(len(m.responses) for m in cluster.mains()),
        "digest": [list(f) for f in digests[0]],
        "replicas_consistent": len(set(digests)) <= 1,
        "checkpoint_rounds": cluster.central.site.coordinator.rounds_started,
        "frames_received": stats.frames_received,
        "bytes_received": stats.bytes_received,
    }


async def _sharded_client_child(
    host: str, map_port: int, keys: List[str]
) -> Dict[str, Any]:
    """The shard-aware thin client in its own process."""
    latencies = await _run_sharded_client(host, map_port, keys, WireStats())
    return _latency_report(len(keys), latencies)


class ShardProcessRunner:
    """Run the sharded topology as real OS processes.

    The parent hosts only the ingress router and the script source; each
    shard (central + mirrors) is a spawned child process, and the
    shard-aware client is another.  Ports are pre-assigned in the parent
    so children bind deterministically and the shard map can be built
    before any child is up.  A child that dies fails the run.
    """

    def __init__(
        self,
        n_shards: int = 2,
        n_mirrors: int = 1,
        strategy: str = "hash",
        script: Optional[EventScript] = None,
        n_requests: int = 0,
        host: str = "127.0.0.1",
    ):
        self.n_shards = n_shards
        self.n_mirrors = n_mirrors
        self.strategy = strategy
        self.script = (
            script if script is not None else generate_script(FlightDataConfig())
        )
        self.n_requests = n_requests
        self.host = host

    def run(self) -> Dict[str, Any]:
        import tempfile

        serving_per_shard = max(1, self.n_mirrors)
        ports = _preassign_ports(
            self.host, self.n_shards * (1 + serving_per_shard)
        )
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
            return asyncio.run(self._drive(_Children(Path(tmp)), ports))

    async def _drive(
        self, children: _Children, ports: List[int]
    ) -> Dict[str, Any]:
        serving_per_shard = max(1, self.n_mirrors)
        shard_ports = ports[: self.n_shards]
        client_ports = [
            ports[
                self.n_shards + i * serving_per_shard:
                self.n_shards + (i + 1) * serving_per_shard
            ]
            for i in range(self.n_shards)
        ]
        names = [shard_name(i) for i in range(self.n_shards)]
        shard_map = ShardMap(
            strategy=self.strategy,
            names=tuple(names),
            client_ports=tuple(
                client_ports[i][0] if self.n_mirrors > 0 else shard_ports[i]
                for i in range(self.n_shards)
            ),
        )
        router = IngressRouter(shard_map)
        tasks = TaskSupervisor()
        try:
            for i, name in enumerate(names):
                children.spawn(
                    name, _shard_child, i, self.host, shard_ports[i],
                    client_ports[i] if self.n_mirrors > 0 else [],
                    self.n_mirrors,
                )
            watching = tasks.spawn(children.wait())

            async def route() -> float:
                await router.connect(self.host, shard_ports)
                map_port = await router.serve_map(host=self.host)
                if self.n_requests > 0:
                    # spread request keys over the real flight keyspace
                    # so the client exercises every shard's serving port
                    keys: List[str] = []
                    for se in self.script.fresh_events():
                        if se.event.key not in keys:
                            keys.append(se.event.key)
                        if len(keys) >= self.n_requests:
                            break
                    keys = keys or ["DL0000"]
                    children.spawn(
                        "client", _sharded_client_child,
                        self.host, map_port, keys,
                    )
                t0 = time.monotonic()
                await router.route_script(self.script)
                wall = time.monotonic() - t0
                if self.n_requests > 0:
                    # hold EOS (and with it shard shutdown) until the
                    # client has read its snapshots; the wait is
                    # excluded from the fan-out wall time
                    await children.wait("client")
                t1 = time.monotonic()
                await router.send_eos()
                await router.wait_readers()
                wall += time.monotonic() - t1
                await watching  # every child has exited, each with code 0
                return wall

            wall = await tasks.guard(route())
        finally:
            await tasks.cancel()
            await router.close()
            await children.reap()

        shards = [children.report(name) for name in names]
        client = children.report("client") if self.n_requests > 0 else None
        digests = [s.get("digest") for s in shards if "digest" in s]
        merged: List[list] = []
        for digest in digests:
            merged.extend(digest)
        merged.sort(key=lambda flight: flight[0])
        return {
            "backend": "tcp-sharded",
            "n_shards": self.n_shards,
            "strategy": self.strategy,
            "events_in": len(self.script),
            "events_routed": router.core.events_routed,
            "transfers_started": router.core.transfers_started,
            "transfers_completed": router.core.transfers_completed,
            "per_shard_events": list(router.shard_events),
            "events_applied_total": sum(
                s.get("events_applied", 0) for s in shards
            ),
            "wall_seconds": wall,
            "events_per_second": (
                len(self.script) / wall if wall > 0 else 0.0
            ),
            "replicas_consistent": all(
                s.get("replicas_consistent", False) for s in shards
            ),
            "merged_digest": merged,
            "wire": {
                "bytes_sent": router.stats.bytes_sent,
                "frames_sent": router.stats.frames_sent,
                "encode_ns": router.stats.encode_ns,
            },
            "shards": shards,
            "client": client,
        }
