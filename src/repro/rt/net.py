"""The live server over TCP.

This module runs the asyncio site objects of :mod:`repro.rt.sites`
over real TCP connections carrying the binary wire format
(:mod:`repro.wire`):

* the **central site** listens on a TCP port; each mirror's connection
  multiplexes mirrored events (EVENT/BATCH frames), checkpoint control
  traffic (CHKPT/COMMIT down, CHKPT_REP up) and stream shutdown (EOS)
  on one socket.  Because every mirror receives an identical outbound
  frame sequence, the central side encodes each message **once** (one
  shared interning table) and appends the same bytes to every
  connection's cork;
* each **mirror site** additionally listens on its own port so thin
  clients can ask it for initial state (REQUEST/RESPONSE frames) — the
  paper's read-scaling story exercised over real sockets;
* **clients** connect round-robin, mirroring the request balancer of
  the other backends.

Central has one entry point, :meth:`NetCentral.feed`: the source
connection's reader hands it each run it reads, and the run is stamped,
put on the main unit's inbox, mirrored and written in that same turn —
no queue, receiving, sending, broadcast or writer task sits between the
source socket and the mirror transports.  Each connection's
:class:`AdaptiveFlusher` (the cork) hands what it holds to the
transport in one ``writelines`` when the run is done; a control frame
leaves at once, with whatever data it follows, because checkpoint
latency bounds backup-queue growth.  Back-pressure is the transport's:
after a run the reader waits on any connection whose transport is past
its high-water mark, so the slowest mirror paces the stream.  Every
reply the socket layer sends back — a mirror's checkpoint vote, a
client's response, a shard's transfer — is written in the turn that
produces it, and central counts a vote in the turn its handler reads
it.  The source's EOS is the one wind-down signal: :meth:`NetCentral.run`
returns once it has been through the closing round and every mirror
connection has ended.

A live cluster is stood up one way, as a :class:`NetCluster`: a
central and the mirrors it feeds, started, fed, run and closed as one
unit.  Two ways to run it:

* :func:`run_net_scenario` — every role in one process/event loop but
  over real sockets (loopback).  Deterministic enough for tests and
  benchmarks, and what ``tests/rt`` exercises.
* :class:`NetProcessRunner` — central in this process, each mirror and
  the client a child OS process (``multiprocessing`` spawn), the
  deployment shape of ``python -m repro rt --processes``.  A child that
  dies fails the run.

Every outbound connection opens through one dial (:func:`_dial`:
connect, with retry, and say HELLO).

Link chaos (:mod:`repro.faults.link`) plugs into the frame send path:
an optional :class:`~repro.faults.link.LinkFaultController` is
consulted per frame and connection, and its drop / delay / duplicate
verdicts are applied to the real socket writes (a delay holds that
connection's cork behind a timer).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import cycle, islice
from pathlib import Path
from types import SimpleNamespace
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
    Coroutine,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from ..faults.link import LinkFaultController

from ..core.adaptation import AdaptationController
from ..core.config import MirrorConfig
from ..core.events import EventBatch, UpdateEvent
from ..core.functions import default_registry, simple_mirroring
from ..core.invariants import InvariantMonitor
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.flightdata import EventScript, FlightDataConfig, generate_script
from ..shard.handoff import ShardControl, ShardTransfer
from ..shard.partition import qualify_site
from ..sub.messages import SubAck, Subscribe, Unsubscribe
from ..sub.registry import SubscriptionRegistry
from ..wire import (
    EOS as WIRE_EOS,
    RESET as WIRE_RESET,
    FrameSplitter,
    Hello,
    SharedFrameCache,
    WireDecoder,
    WireEncoder,
)
from .channels import AsyncSubscription, Channel
from .sites import EOS, MAX_RUN_EVENTS, AsyncCentralSite, AsyncMirrorSite
from .tasks import TaskSupervisor

__all__ = [
    "AdaptiveFlusher",
    "WireStats",
    "NetRunSummary",
    "NetCentral",
    "NetMirror",
    "NetCluster",
    "SubscriptionFanout",
    "run_net_scenario",
    "NetProcessRunner",
]


# -- memory budget of the socket layer (the site queues: rt/sites.py) ------
#: Bytes asked of a socket per read.  One read is one *chunk*: the
#: frames it completes travel each hop together, so this also bounds
#: what a connection holds decoded but not yet queued.
READ_BYTES = 16 * 1024
#: What one mirror connection's cork may hold before it is written out
#: mid-run; a run of :data:`~repro.rt.sites.MAX_RUN_EVENTS` ordinary
#: events stays well under it, so it leaves in one write.
FLUSH_BYTES = 64 * 1024
#: Bytes a subscriber's transport may hold unsent.  Past it the
#: subscriber is too slow for the stream it asked for: it is
#: disconnected, its registrations die with the connection, and it
#: resumes as a failed-over client does — re-register, snapshot.
SUB_WRITE_BUDGET = 1 << 20
#: Seconds a new connection has to say HELLO.
HELLO_TIMEOUT_S = 5.0
#: Seconds a dial keeps retrying a peer that is not listening yet.
DIAL_RETRY_S = 30.0


@dataclass
class WireStats:
    """Per-run socket/codec accounting (aggregated over connections)."""

    bytes_sent: int = 0
    bytes_received: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    flushes: int = 0
    size_flushes: int = 0
    dry_flushes: int = 0
    #: always 0 (no flush waits on a clock); benchmarks/e2e/measure.py reads it
    deadline_flushes: int = 0
    control_flushes: int = 0
    encode_ns: int = 0
    decode_ns: int = 0
    frames_dropped: int = 0
    frames_duplicated: int = 0
    dead_connection_flushes: int = 0
    frames_shared: int = 0
    shared_encodes_saved: int = 0
    shared_resets: int = 0
    sub_acks: int = 0
    sub_frames_sent: int = 0
    sub_events_delivered: int = 0
    sub_encodes_saved: int = 0
    sub_resets: int = 0
    sub_slow_disconnects: int = 0

    def merge(self, other: "WireStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class NetRunSummary:
    """What a live run produced: counters, consistency evidence and
    wire-level accounting."""

    events_in: int = 0
    events_mirrored: int = 0
    events_processed_central: int = 0
    updates_distributed: int = 0
    requests_served: int = 0
    checkpoint_rounds: int = 0
    checkpoint_commits: int = 0
    adaptations: int = 0
    reversions: int = 0
    #: snapshot serving accounting, aggregated across all sites
    snapshot_builds: int = 0
    snapshot_cache_hits: int = 0
    delta_snapshots_served: int = 0
    bytes_saved_by_delta: int = 0
    adaptation_log: List[tuple] = field(default_factory=list)
    replica_digests: List[tuple] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: seconds from central's stamp to its local apply, averaged
    mean_update_delay: float = 0.0
    #: backpressure evidence: deepest any mirror's inbox ran (in runs)
    #: and how many of its socket reader's puts found it full
    channel_high_watermark: int = 0
    channel_blocked_puts: int = 0
    wire: WireStats = field(default_factory=WireStats)
    #: per-subscriber result dicts (client_id, acks, received events)
    subscriber_results: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def replicas_consistent(self) -> bool:
        return len(set(self.replica_digests)) <= 1


class AdaptiveFlusher:
    """One mirror connection's cork.

    A passive object owned by the central site's source path (no
    tasks, locks or queues): frames are added while a run is being
    mirrored, and :meth:`flush` hands everything held to the transport
    in one ``writelines`` when the run — or a control frame — is done,
    so a frame never sits here while the link is idle.  Frames are kept
    as the immutable bytes the encoder produced (often shared across all
    connections by the SharedFrameCache): no per-frame bytearray append,
    no re-copy of bytes that were already contiguous.  A cork that
    reaches :data:`FLUSH_BYTES` is written out at once.
    """

    def __init__(self, writer: asyncio.StreamWriter, stats: WireStats):
        self._writer = writer
        self._stats = stats
        #: a closed/reset peer marks the cork dead instead of letting the
        #: exception kill the source path (chaos drills close sockets
        #: mid-stream); once dead, adds and flushes are no-ops
        self.dead = False
        self._chunks: List[bytes] = []
        self._bytes = 0
        self._high_water = writer.transport.get_write_buffer_limits()[1]

    def qsize(self) -> int:
        """Frames held for the next write."""
        return len(self._chunks)

    def add(self, frame: bytes) -> None:
        if self.dead:
            return
        self._chunks.append(frame)
        self._bytes += len(frame)
        if self._bytes >= FLUSH_BYTES:
            self.flush("size")

    def flush(self, reason: str = "dry") -> None:
        """Write everything held in one ``writelines``.  ``reason`` is
        ``"dry"`` (a run is done), ``"control"`` or ``"size"``."""
        if not self._chunks:
            return
        chunks = self._chunks
        sent = self._bytes
        self._chunks = []
        self._bytes = 0
        stats = self._stats
        if self.dead or self._writer.is_closing():
            # peer already gone: drop silently, the reader side of the
            # connection is what reports the failure
            self.dead = True
            stats.dead_connection_flushes += 1
            return
        self._writer.writelines(chunks)
        stats.flushes += 1
        stats.bytes_sent += sent
        if reason == "dry":
            stats.dry_flushes += 1
        elif reason == "control":
            stats.control_flushes += 1
        else:
            stats.size_flushes += 1

    @property
    def backed_up(self) -> bool:
        """The transport holds more than its high-water mark (its
        protocol has paused writing)."""
        return (
            not self.dead
            and self._writer.transport.get_write_buffer_size() > self._high_water
        )

    async def drain(self) -> None:
        """Wait until the transport is below its low-water mark."""
        try:
            await self._writer.drain()
        except ConnectionError:
            # the transport died under us (peer reset / chaos kill)
            self.dead = True
            self._stats.dead_connection_flushes += 1


@dataclass
class _FrameEnvelope:
    """What the link-fault controller sees for one outbound frame
    (duck-typed stand-in for the cluster transport's Message)."""

    kind: str  # "data" | "control"
    size: int


class _MirrorConnection:
    """Central-side state for one connected mirror."""

    def __init__(self, name: str, writer: asyncio.StreamWriter, stats: WireStats):
        self.name = name
        self.cork = AdaptiveFlusher(writer, stats)
        #: connection-local encoder, used only under fault injection —
        #: the codec's cross-frame state (interning tables, uid deltas)
        #: means a dropped or duplicated *frame* would desynchronize the
        #: peer's decoder, so faults apply per message, before encoding
        self.encoder = WireEncoder()
        self.done = asyncio.Event()
        #: fault path: frames behind a delay verdict, (release time,
        #: frame) in send order, and the timer that releases the head
        self._delayed: Deque[Tuple[float, bytes]] = deque()
        self._timer: Optional[asyncio.TimerHandle] = None

    @property
    def outbound(self) -> AdaptiveFlusher:
        """What waits for this connection's transport: the cork."""
        return self.cork

    def send(self, frame: bytes, delay: float = 0.0) -> None:
        """Cork ``frame``; with a ``delay`` (a fault verdict) it waits
        that long, and every later frame waits behind it, in order."""
        if not delay and not self._delayed:
            self.cork.add(frame)
            return
        loop = asyncio.get_running_loop()
        release = loop.time() + delay
        if self._delayed:
            release = max(release, self._delayed[-1][0])
        else:
            self.cork.flush("dry")  # what precedes the delayed frame
        self._delayed.append((release, frame))
        if self._timer is None:
            self._timer = loop.call_at(release, self._release)

    def _release(self) -> None:
        """Timer: move every frame now due into the cork and write it."""
        delayed = self._delayed
        due = max(delayed[0][0], asyncio.get_running_loop().time())
        while delayed and delayed[0][0] <= due:
            self.cork.add(delayed.popleft()[1])
        self.cork.flush("dry")
        self._timer = None
        if delayed:
            self._timer = asyncio.get_running_loop().call_at(
                delayed[0][0], self._release
            )

    def close(self) -> None:
        """Stop sending: cancel a pending release, write what is held."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._delayed.clear()
        self.cork.flush("control")


class NetCentral:
    """Central site served over TCP.

    Wraps an :class:`AsyncCentralSite` whose mirror/control channels
    are bound to this object: :meth:`send` encodes each message once and
    corks it for every live mirror connection, :meth:`drain` writes the
    corks out at the end of a run.
    """

    def __init__(
        self,
        n_mirrors: int,
        config: Optional[MirrorConfig] = None,
        adaptation: bool = False,
        fault_controller: Optional["LinkFaultController"] = None,
        site_name: str = "central",
        mirror_names: Optional[Sequence[str]] = None,
    ):
        self.n_mirrors = n_mirrors
        self.config = config if config is not None else simple_mirroring()
        self.stats = WireStats()
        self.fault_controller = fault_controller
        self._t0 = time.monotonic()
        self.site_name = site_name
        if mirror_names is None:
            mirror_names = [f"mirror{i+1}" for i in range(n_mirrors)]
        self.mirror_names = list(mirror_names)
        participants = {site_name} | set(self.mirror_names)
        controller = (
            AdaptationController(self.config, registry=default_registry())
            if adaptation
            else None
        )
        self.site = AsyncCentralSite(
            self.config,
            Channel(f"net.{site_name}.data", self),
            Channel(f"net.{site_name}.ctrl", self, kind="control"),
            participants,
            adaptation=controller, site=site_name,
        )
        self.site.main.delta_snapshots = self.config.delta_snapshots
        self.site.main.delta_fallback_fraction = self.config.delta_fallback_fraction
        self.connections: Dict[str, _MirrorConnection] = {}
        #: the connections a publish reaches: attached, not yet closed
        self._live: List[_MirrorConnection] = []
        self.mirrors_connected = asyncio.Event()
        if n_mirrors == 0:
            self.mirrors_connected.set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: List[asyncio.Task] = []
        self.port: Optional[int] = None
        # shared-encode fan-out: every mirror connection carries an
        # identical outbound frame sequence (events + control messages),
        # so each message is encoded a single time into the
        # SharedFrameCache and the same immutable bytes go to every
        # cork.  A mirror attaching after the stream started invalidates
        # the cache generation: the cache hands back a RESET frame that
        # goes to every member so all decoders restart from the same
        # clean interning state.
        self.shared = SharedFrameCache()
        #: content-based subscription fan-out riding the same push path;
        #: inert (guarded no-ops) until a subscriber connects
        self.subfan = SubscriptionFanout(self.stats)
        #: set by _end_stream: nothing is sent after EOS
        self._ended = False
        #: what :meth:`run` supervises; the source connection's handler,
        #: which no supervisor spawned, reports its failure here
        self._tasks = TaskSupervisor()
        # recycled: the fault controller only reads kind/size, so one
        # mutable envelope serves every frame
        self._envelope = _FrameEnvelope(kind="data", size=0)

    def _elapsed(self) -> float:
        return time.monotonic() - self._t0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listening socket; returns the bound port."""
        self._server = await asyncio.start_server(
            _tracked_handler(self._on_connection, self._conn_tasks), host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def run(self) -> None:
        """Run the central site for its whole life: its main unit's
        event loop, supervised with the source handler's :meth:`feed`
        (the first to fail ends the run with its exception); then, the
        source's EOS applied, send EOS to every mirror and subscriber
        and return once each mirror connection has ended."""
        tasks = self._tasks
        applying = tasks.spawn(self.site.main.event_loop())

        async def finished() -> None:
            await applying
            await self._end_stream()

        try:
            await tasks.guard(finished())
        finally:
            await tasks.cancel()

    async def feed(self, item: Any) -> None:
        """Central's one entry point: once every mirror has connected,
        handle one item of the source stream whole
        (:meth:`AsyncCentralSite.on_input`)."""
        await self.mirrors_connected.wait()
        await self.site.on_input(item)

    # -- the site's link (see repro.rt.channels.Link) -----------------------
    def send(self, kind: str, payload: Any) -> None:
        """Cork one message for every live mirror; a control message
        leaves at once, with whatever data it follows.

        Under fault injection each connection encodes with its own
        table (see :meth:`_send_faulty`); otherwise the message is
        encoded once and the same bytes go to every cork."""
        if self._ended:
            return
        if kind == "data":
            # subscription lane: matched-set fan-out on the same payload
            # the mirrors get (link faults model the central->mirror
            # links, not the subscriber port)
            self.subfan.fanout(payload)
        live = self._live
        if self.fault_controller is not None:
            for conn in live:
                self._send_faulty(conn, kind, payload)
        else:
            stats = self.stats
            t0 = time.perf_counter_ns()
            frame = self.shared.encode(payload)
            stats.encode_ns += time.perf_counter_ns() - t0
            stats.frames_sent += len(live)
            for conn in live:
                conn.cork.add(frame)
        if kind == "control":
            self._flush("control")

    async def drain(self) -> None:
        """End of a run: write every cork out in one ``writelines``
        each, push the subscribers' share, then wait on any mirror whose
        transport is past its high-water mark — the slowest mirror paces
        the stream."""
        self._flush("dry")
        self.subfan.flush()
        backed_up = [conn.cork for conn in self._live if conn.cork.backed_up]
        for cork in backed_up:
            await cork.drain()

    def _flush(self, reason: str) -> None:
        for conn in self._live:
            conn.cork.flush(reason)

    def _send_faulty(self, conn: _MirrorConnection, kind: str, payload: Any) -> None:
        """The controller judges the message for this connection; the
        survivors are encoded on the connection's own codec state — a
        dropped message leaves no trace in it, and a duplicated one is
        encoded twice (the second copy is nearly all interning
        references).  The controller sees the message's modeled size, so
        size-conditioned link rules see comparable values."""
        stats = self.stats
        envelope = self._envelope
        envelope.kind = kind
        envelope.size = getattr(payload, "size", 0)
        verdict = self.fault_controller.on_send(
            envelope, self.site_name, conn.name, self._elapsed()
        )
        copies, delay = 1, 0.0
        if verdict is not None:
            if verdict.drop:
                stats.frames_dropped += 1
                return
            delay = verdict.delay
            copies += verdict.duplicates
            stats.frames_duplicated += verdict.duplicates
        for _ in range(copies):
            t0 = time.perf_counter_ns()
            frame = conn.encoder.encode_message(payload)
            stats.encode_ns += time.perf_counter_ns() - t0
            stats.frames_sent += 1
            conn.send(frame, delay)

    def _attach(self, conn: _MirrorConnection) -> None:
        """Admit a mirror connection to the fan-out.  Publishing is
        synchronous and every run ends with its corks written, so this
        runs between two publishes: the RESET of a late attach reaches
        every member after the old generation's last frame and before
        the new one's first."""
        self.connections[conn.name] = conn
        self._live.append(conn)
        if self.fault_controller is None:
            # join the shared broadcast group; a late attach (the cache
            # already carries interning/uid state some decoder never
            # saw) invalidates the generation and the returned RESET
            # frame resynchronizes every member's decoder
            reset_frame = self.shared.attach(conn.name)
            if reset_frame is not None:
                self.stats.shared_resets += 1
                self.stats.frames_sent += len(self._live)
                for member in self._live:
                    member.cork.add(reset_frame)
                self._flush("control")
        if len(self.connections) >= self.n_mirrors:
            self.mirrors_connected.set()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        frames = _FrameReader(reader, self.stats)
        hello = await frames.first_message()
        if not isinstance(hello, Hello):
            writer.close()
            return
        if hello.role == "mirror":
            await self._serve_mirror(hello.name, writer, frames)
        elif hello.role == "client":
            await _serve_client(self.site.main, writer, frames, self.stats)
        elif hello.role == "subscriber":
            await _serve_subscriber(self.subfan, hello.name, writer, frames)
        elif hello.role == "source":
            await self._serve_source(writer, frames)
        else:
            writer.close()

    async def _serve_mirror(
        self, name: str, writer: asyncio.StreamWriter,
        frames: "_FrameReader",
    ) -> None:
        conn = _MirrorConnection(name, writer, self.stats)
        if self._ended:  # the stream is over: EOS at once, no fan-out
            self.stats.frames_sent += 1
            conn.send(conn.encoder.encode_eos())
            conn.cork.flush("control")
        else:
            self._attach(conn)
        try:
            while True:
                msg = await frames.next_message()
                if msg is None or msg == WIRE_EOS:
                    break
                self.site.on_vote(msg)
        except Exception as exc:
            # no supervisor spawned this handler either (see _serve_source)
            self._tasks.fail(exc)
        finally:
            if conn in self._live:  # stop the fan-out to this one
                self._live.remove(conn)
                if self.fault_controller is None:
                    self.shared.detach(name)
            conn.close()
            writer.close()
            conn.done.set()

    async def _serve_source(
        self, writer: asyncio.StreamWriter, frames: "_FrameReader",
    ) -> None:
        """Serve a source connection (the ingress router's event stream).

        Each run a read completed is fed to the site in the turn that
        reads it (:meth:`feed`): one decoded chunk, the run in hand and
        the central inbox are all that sit between this socket and
        central's apply.  Handoff tombstones and transfer installs ride
        the same connection (their ordering against events is the
        handoff protocol's correctness argument).  The shard's transfer
        *replies* go back on this socket, each written by the main
        unit's ``shard_out`` sink in the turn that extracts the flight;
        the protocol bounds them to one per tombstone the router sent.
        No supervisor spawned this handler, so a failure in :meth:`feed`
        goes to the one :meth:`run` keeps.
        """
        encoder = WireEncoder()

        def reply(transfer: ShardTransfer) -> None:
            if not writer.is_closing():
                _reply(writer, self.stats, encoder.encode_message, transfer)

        self.site.main.shard_out = reply
        try:
            ended = False
            while not ended:
                chunk = await frames.next_chunk()
                ended = chunk is None
                for item in _runs(chunk or ()):
                    if type(item) is list or isinstance(item, ShardControl):
                        await self.feed(item)
                    elif item == WIRE_EOS:
                        ended = True
                        break
            await self.feed(EOS)
        except Exception as exc:
            self._tasks.fail(exc)
        finally:
            # by the time the router sends EOS it has received every
            # transfer reply (it only closes the stream when no handoff
            # is pending), so nothing is owed on this socket any more
            writer.close()

    async def _end_stream(self) -> None:
        """Send EOS to every mirror connection and every subscriber —
        nothing is sent after it — and wait until each mirror connection
        has ended."""
        self._ended = True
        # EOS bypasses fault injection (a chaos-dropped shutdown frame
        # would wedge the topology, not exercise it)
        self.subfan.eos()
        faulty = self.fault_controller is not None
        frame = None if faulty else self.shared.encode_eos()
        for conn in self._live:
            self.stats.frames_sent += 1
            conn.send(conn.encoder.encode_eos() if faulty else frame)
        self._flush("control")
        # a snapshot: the dict must not be iterated across an await
        for conn in list(self.connections.values()):
            await conn.done.wait()

    async def close(self) -> None:
        """Close the listener and every connection still being served
        (idempotent, so error-path ``finally`` blocks can call it
        unconditionally)."""
        server, self._server = self._server, None
        if server is not None:
            self.stats.frames_shared += self.shared.frames_shared
            self.stats.shared_encodes_saved += self.shared.encodes_saved
            self.subfan.collect_shared_stats()
            server.close()
            await server.wait_closed()
        # the listener spawns one handler task per accepted connection;
        # server.close() does NOT cancel the in-flight ones, so an
        # error-path close with live peers would leak them into the loop
        await _cancel_tracked(self._conn_tasks)


_ConnHandler = Callable[
    [asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]
]


def _tracked_handler(
    handler: _ConnHandler, registry: List[asyncio.Task]
) -> _ConnHandler:
    """Wrap a start_server callback so its per-connection tasks are
    registered for cancellation at close time."""

    async def wrapped(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None  # always inside a task: start_server callback
        registry.append(task)
        try:
            await handler(reader, writer)
        except asyncio.CancelledError:
            # close-time cancellation of a still-open connection (e.g. a
            # subscriber that outlives the stream) is a normal shutdown
            # path, not an error for the loop's exception handler
            writer.close()
        finally:
            registry.remove(task)

    return wrapped


async def _cancel_tracked(registry: List[asyncio.Task]) -> None:
    """Cancel every still-live tracked connection handler."""
    tasks = [t for t in registry if not t.done()]
    for task in tasks:
        task.cancel()
    if tasks:
        await asyncio.gather(*tasks, return_exceptions=True)


class _FrameReader:
    """Decode messages from one socket stream, a chunk at a time.

    A single TCP read can complete many frames — a client's HELLO and
    first REQUEST routinely coalesce, and under load one read carries
    hundreds of events.  :meth:`next_chunk` hands out everything a read
    completed, so the consumer pays its queue hops once per chunk;
    :meth:`next_message` hands the same messages out one by one.  Both
    draw on one queue that travels with the connection from the
    preamble read to a serve loop, so no frame is dropped at the handoff.
    """

    __slots__ = ("_reader", "_splitter", "_decoder", "_stats", "_pending")

    def __init__(self, reader: asyncio.StreamReader, stats: WireStats) -> None:
        self._reader = reader
        self._splitter = FrameSplitter()
        self._decoder = WireDecoder()
        self._stats = stats
        self._pending: deque = deque()

    async def next_chunk(self) -> Optional[List[Any]]:
        """Return every message pending or, failing that, completed by
        the next read; None once the peer closed or reset."""
        pending = self._pending
        decode = self._decoder.decode_body
        stats = self._stats
        while not pending:
            try:
                data = await self._reader.read(READ_BYTES)
            except (ConnectionResetError, BrokenPipeError):
                # a peer that died mid-stream: it reset the connection,
                # or a write to it failed first
                data = b""
            if not data:
                return None
            frames = self._splitter.feed(data)
            stats.frames_received += len(frames)
            received = 8 * len(frames)
            t0 = time.perf_counter_ns()
            for mtype, body in frames:
                received += len(body)
                msg = decode(mtype, body)
                # RESET is connection-state maintenance, already applied
                # to the decoder's tables — never a message to deliver
                if msg is not WIRE_RESET:
                    pending.append(msg)
            stats.decode_ns += time.perf_counter_ns() - t0
            stats.bytes_received += received
        chunk = list(pending)
        pending.clear()
        return chunk

    async def next_message(self) -> Any:
        """Return the next decoded message; None once the peer closed."""
        if not self._pending:
            self._pending.extend(await self.next_chunk() or ())
        return self._pending.popleft() if self._pending else None

    async def first_message(self) -> Any:
        """A new connection's opening message (its HELLO); None when
        the peer hangs up or says nothing for :data:`HELLO_TIMEOUT_S`
        — a listener holds no task for a silent peer."""
        try:
            return await asyncio.wait_for(self.next_message(), HELLO_TIMEOUT_S)
        except asyncio.TimeoutError:
            return None

    def push_back(self, msg: Any) -> None:
        """Return a peeked message so the next read hands it out again
        (role dispatch reads one frame ahead)."""
        self._pending.appendleft(msg)


def _runs(chunk: Iterable[Any]) -> Iterator[Any]:
    """Regroup one chunk for its next hop: consecutive events (EVENT and
    BATCH frames alike) become lists of at most :data:`MAX_RUN_EVENTS`;
    any other message passes through in place, ending the run before it
    — a control frame keeps its position in the stream."""
    run: List[UpdateEvent] = []
    for msg in chunk:
        if isinstance(msg, UpdateEvent):
            run.append(msg)
        elif isinstance(msg, EventBatch):
            run.extend(msg.events)
        else:
            if run:
                yield run
                run = []
            yield msg
            continue
        if len(run) >= MAX_RUN_EVENTS:
            yield run
            run = []
    if run:
        yield run


def _reply(
    writer: asyncio.StreamWriter, stats: WireStats,
    encode: Callable[[Any], bytes], msg: Any,
) -> None:
    """Encode ``msg`` and write it on its own, in the caller's turn: a
    response, a checkpoint vote or a transfer reply."""
    t0 = time.perf_counter_ns()
    frame = encode(msg)
    stats.encode_ns += time.perf_counter_ns() - t0
    stats.frames_sent += 1
    stats.bytes_sent += len(frame)
    stats.flushes += 1
    stats.control_flushes += 1
    writer.write(frame)


async def _serve_client(
    main: Any, writer: asyncio.StreamWriter,
    frames: _FrameReader, stats: WireStats,
) -> None:
    """Serve REQUEST frames from one thin-client connection.  Requests
    decoded but not yet answered count into the main unit's pending
    gauge (the monitored variable votes carry); between two of them the
    loop yields, so a pipelined burst cannot hold the event path up."""
    encoder = WireEncoder()
    owed = 0
    try:
        while True:
            chunk = await frames.next_chunk()
            if chunk is None:
                break
            owed = sum(1 for msg in chunk if isinstance(msg, InitStateRequest))
            main._pending_requests += owed
            for msg in chunk:
                if isinstance(msg, InitStateRequest):
                    if main.request_service_delay > 0:
                        await asyncio.sleep(main.request_service_delay)
                    state = getattr(main.ede, "state", None)
                    response = main._serve_one(msg, state)
                    main.responses.append(response)
                    # a gauge: meant to be seen across the awaits
                    main._pending_requests -= 1  # lint: allow-async-interleaving
                    owed -= 1
                    _reply(writer, stats, encoder.encode_response, response)
                    await writer.drain()
                    if owed:
                        await asyncio.sleep(0)
                elif msg == WIRE_EOS:
                    return
    finally:
        main._pending_requests -= owed
        writer.close()


#: A standalone RESET frame (constant bytes): dropped onto a subscriber
#: connection whenever the next frame will come from a *different*
#: encoder than the last one, so the connection's single decoder never
#: sees interning references into a table it does not hold.
_RESET_FRAME = WireEncoder().reset()


class _SubscriberConn:
    """Server-side handle for one subscriber connection.

    ``encoder`` is the per-connection ack encoder; every ack is fenced
    with its RESET (see :class:`SubscriptionFanout`).  ``client_keys``
    tracks which clients registered *via* this connection — a plain
    subscriber registers itself, the sharded ingress router proxies many
    clients over one connection — with each one's interest key
    (:meth:`SubscriptionRegistry.client_key`); ``key_sum``, their
    running sum, is the connection's combined interest.  ``pending``
    holds frames not yet handed to the transport.
    """

    __slots__ = (
        "conn_id", "name", "writer", "encoder", "client_keys", "key_sum",
        "group", "pending",
    )

    def __init__(self, conn_id: str, name: str, writer: asyncio.StreamWriter):
        self.conn_id = conn_id
        self.name = name
        self.writer = writer
        self.encoder = WireEncoder()
        self.client_keys: Dict[str, int] = {}
        self.key_sum = 0
        self.group: Optional["_SubGroup"] = None
        self.pending: List[bytes] = []


class _SubGroup:
    """One subscription group: every member connection carries the same
    combined predicate signature, so matched events are encoded once on
    the group's :class:`~repro.wire.SharedFrameCache` and the immutable
    bytes fan out to all members."""

    __slots__ = ("signature", "cache", "members")

    def __init__(self, signature: str):
        self.signature = signature
        self.cache = SharedFrameCache()
        self.members: Dict[str, _SubscriberConn] = {}


class SubscriptionFanout:
    """Per-subscription-group push fan-out for one serving site.

    The broadcast path stays untouched: mirrors receive the whole
    mirrored stream as before.  Subscriber connections instead receive
    only the events their predicates match, grouped by canonical
    signature — all connections that asked for the same slice share one
    :class:`~repro.wire.SharedFrameCache`, so each distinct matched-set
    is encoded exactly once per event no matter how many subscribers
    hold it (the Gryphon broker shape).

    Encoder-switch discipline: a connection's decoder holds exactly one
    interning/uid state, but a subscriber connection receives frames
    from two encoders (its ack encoder and its group's shared cache).
    Every switch is fenced with a RESET — acks are always preceded by
    the ack encoder's RESET, and joining a group always lands a RESET
    (the cache's own when it was dirty, a bare one otherwise) before
    any group frame.

    Frames collect per connection until :meth:`flush` — called by
    whoever drives the fan-out, once per chunk of input — hands each
    connection's to its transport in one write.  Overload policy: a
    subscriber whose transport then holds more than
    :data:`SUB_WRITE_BUDGET` unsent bytes is disconnected
    (``sub_slow_disconnects``); the stream is neither slowed nor
    buffered without limit for one reader.

    With no subscribers every method is a guarded no-op, so the default
    topology's byte stream is untouched.
    """

    def __init__(self, stats: WireStats):
        self.registry = SubscriptionRegistry()
        self.stats = stats
        self._groups: Dict[str, _SubGroup] = {}
        #: connections holding frames for the next flush
        self._unflushed: List[_SubscriberConn] = []
        self._conn_of: Dict[str, _SubscriberConn] = {}
        #: wire sub_ids are client-scoped (every client counts from 1);
        #: registry ids are global — map client -> wire id -> registry id
        self._wire_ids: Dict[str, Dict[int, int]] = {}
        self._next_conn = 0

    @property
    def active(self) -> bool:
        return bool(self._groups)

    def group_count(self) -> int:
        return len(self._groups)

    # -- connection lifecycle -------------------------------------------
    def attach(self, name: str, writer: asyncio.StreamWriter) -> _SubscriberConn:
        self._next_conn += 1
        return _SubscriberConn(f"{name}#{self._next_conn}", name, writer)

    def drop(self, conn: _SubscriberConn) -> None:
        """Connection gone: its clients' subscriptions die with it (a
        reconnecting client re-registers, which is the failover story)."""
        self._leave_group(conn)
        for client_id in conn.client_keys:
            self.registry.unsubscribe(client_id)
            self._wire_ids.pop(client_id, None)
            if self._conn_of.get(client_id) is conn:
                del self._conn_of[client_id]
        conn.client_keys.clear()
        conn.key_sum = 0

    # -- control plane ---------------------------------------------------
    def apply(self, conn: _SubscriberConn, msg: Any) -> None:
        """Apply one SUBSCRIBE/UNSUBSCRIBE, write the fenced ack, and
        regroup the connection (all synchronous: membership and cache
        state never straddle an await)."""
        stats = self.stats
        if isinstance(msg, Subscribe):
            table = self._wire_ids.setdefault(msg.client_id, {})
            sub = self.registry.subscribe_nodes(
                msg.client_id, msg.nodes, table.get(msg.sub_id)
            )
            table[msg.sub_id] = sub.sub_id
            ack_sub = msg.sub_id
        else:
            table = self._wire_ids.get(msg.client_id, {})
            if msg.sub_id is None:
                self.registry.unsubscribe(msg.client_id)
                self._wire_ids.pop(msg.client_id, None)
            else:
                internal = table.pop(msg.sub_id, None)
                if internal is not None:
                    self.registry.unsubscribe(msg.client_id, internal)
                if not table:
                    self._wire_ids.pop(msg.client_id, None)
            ack_sub = msg.sub_id if msg.sub_id is not None else 0
        key = self.registry.client_key(msg.client_id)
        conn.key_sum += key - conn.client_keys.pop(msg.client_id, 0)
        if key:
            conn.client_keys[msg.client_id] = key
            self._conn_of[msg.client_id] = conn
        else:
            self._conn_of.pop(msg.client_id, None)
        active = self.registry.active_count(msg.client_id)
        self._write(conn, conn.encoder.reset())
        stats.sub_resets += 1
        self._write(
            conn, conn.encoder.encode_sub_ack(SubAck(msg.client_id, ack_sub, active))
        )
        stats.sub_acks += 1
        stats.sub_frames_sent += 2
        self._regroup(conn)

    def _write(self, conn: _SubscriberConn, frame: bytes) -> None:
        self.stats.bytes_sent += len(frame)
        if not conn.pending:
            self._unflushed.append(conn)
        conn.pending.append(frame)

    def flush(self) -> None:
        """One write per connection for everything queued since the
        last flush; then hold each connection to its budget."""
        if not self._unflushed:
            return
        conns, self._unflushed = self._unflushed, []
        for conn in conns:
            frames, conn.pending = conn.pending, []
            writer = conn.writer
            if writer.is_closing():
                continue
            writer.writelines(frames)
            if writer.transport.get_write_buffer_size() > SUB_WRITE_BUDGET:
                self.stats.sub_slow_disconnects += 1
                self.drop(conn)
                # abort, not close: close would keep the backlog in
                # memory until a reader that stopped reading takes it
                writer.transport.abort()

    def _leave_group(self, conn: _SubscriberConn) -> None:
        group = conn.group
        if group is None:
            return
        group.cache.detach(conn.conn_id)
        del group.members[conn.conn_id]
        if not group.members:
            self.stats.sub_encodes_saved += group.cache.encodes_saved
            del self._groups[group.signature]
        conn.group = None

    def _regroup(self, conn: _SubscriberConn) -> None:
        """Move the connection to the group keyed by its combined
        signature, fencing its decoder with a RESET on every join."""
        combined = (
            f"{len(conn.client_keys)}:{conn.key_sum:x}"
            if conn.client_keys else ""
        )
        if conn.group is not None and conn.group.signature == combined:
            return
        self._leave_group(conn)
        if not combined:
            return
        group = self._groups.get(combined)
        if group is None:
            group = self._groups[combined] = _SubGroup(combined)
        group.members[conn.conn_id] = conn
        conn.group = group
        reset_frame = group.cache.attach(conn.conn_id)
        self.stats.sub_resets += 1
        if reset_frame is not None:
            # dirty cache: every member's decoder restarts together
            for member in group.members.values():
                self._write(member, reset_frame)
                self.stats.sub_frames_sent += 1
        else:
            # clean cache, but THIS decoder holds ack/old-group state
            self._write(conn, _RESET_FRAME)
            self.stats.sub_frames_sent += 1

    # -- data plane ------------------------------------------------------
    def fanout(self, payload: Any) -> None:
        """Push ``payload``'s matched events to subscriber groups.

        One registry call yields every event's matched clients
        (:meth:`SubscriptionRegistry.match_clients_batch`); their groups
        each encode their matched subset once.  The frames wait for
        :meth:`flush`.
        """
        if not self._groups:
            return
        if isinstance(payload, EventBatch):
            events: Sequence[UpdateEvent] = payload.events
        elif isinstance(payload, UpdateEvent):
            events = (payload,)
        else:
            return
        per_group: Dict[str, List[UpdateEvent]] = {}
        matched_clients = self.registry.match_clients_batch(events)
        conn_of = self._conn_of
        for event, clients in zip(events, matched_clients):
            hit: Dict[str, bool] = {}
            for client_id in clients:
                conn = conn_of.get(client_id)
                group = conn.group if conn is not None else None
                if group is not None and group.signature not in hit:
                    hit[group.signature] = True
                    per_group.setdefault(group.signature, []).append(event)
        stats = self.stats
        for sig, matched in per_group.items():
            group = self._groups[sig]
            t0 = time.perf_counter_ns()
            if len(matched) == 1:
                frame = group.cache.encode(matched[0])
            else:
                frame = group.cache.encode(EventBatch(list(matched)))
            stats.encode_ns += time.perf_counter_ns() - t0
            fan = len(group.members)
            stats.sub_frames_sent += fan
            stats.sub_events_delivered += len(matched) * fan
            for member in group.members.values():
                self._write(member, frame)

    def eos(self) -> None:
        """End of stream: every group's members get a shared EOS frame
        (connections without a live subscription end at socket close)."""
        for group in self._groups.values():
            frame = group.cache.encode_eos()
            for member in group.members.values():
                self._write(member, frame)
                self.stats.sub_frames_sent += 1
        self.flush()

    def collect_shared_stats(self) -> None:
        """Fold the live groups' shared-encode savings into stats
        (emptied groups already folded theirs at teardown)."""
        for group in self._groups.values():
            self.stats.sub_encodes_saved += group.cache.encodes_saved


async def _serve_subscriber(
    fanout: SubscriptionFanout, name: str,
    writer: asyncio.StreamWriter, frames: _FrameReader,
) -> None:
    """Serve one subscriber connection: SUBSCRIBE/UNSUBSCRIBE frames in,
    fenced SUB_ACKs plus the matched event stream out."""
    conn = fanout.attach(name, writer)
    try:
        ended = False
        while not ended and not writer.is_closing():
            chunk = await frames.next_chunk()
            if chunk is None:
                break
            for msg in chunk:
                if isinstance(msg, (Subscribe, Unsubscribe)):
                    fanout.apply(conn, msg)
                elif msg == WIRE_EOS:
                    ended = True
                    break
            fanout.flush()
            await writer.drain()
    finally:
        fanout.drop(conn)
        writer.close()


async def _run_subscriber(
    host: str, port: int, client_id: str, predicates: Sequence[Any],
    stats: WireStats, ready: Optional[asyncio.Event] = None,
) -> Dict[str, Any]:
    """Subscriber client: register ``predicates``, then collect every
    pushed matched event until EOS.  ``ready`` is set once all acks are
    in — callers gate the source on it so no matched event is missed."""
    frames, writer, encoder = await _dial(
        host, port, Hello("subscriber", client_id), stats
    )
    for i, pred in enumerate(predicates):
        frame = encoder.encode_message(
            Subscribe.from_predicate(client_id, i + 1, pred)
        )
        stats.frames_sent += 1
        stats.bytes_sent += len(frame)
        writer.write(frame)
    await writer.drain()
    acks = 0
    events: List[UpdateEvent] = []
    while True:
        msg = await frames.next_message()
        if msg is None or msg == WIRE_EOS:
            break
        if isinstance(msg, SubAck):
            acks += 1
            if ready is not None and acks >= len(predicates):
                ready.set()
        elif isinstance(msg, EventBatch):
            events.extend(msg.events)
        elif isinstance(msg, UpdateEvent):
            events.append(msg)
    writer.close()
    if ready is not None:
        ready.set()  # never leave the caller gated on a dead connection
    return {"client_id": client_id, "acks": acks, "events": events}


class NetMirror:
    """Mirror site connected to the central server over TCP.

    A mirror is its socket reader plus its main unit's event loop.  The
    reader takes the central connection's stream a chunk per turn, in
    stream order: each run of events is backed up
    (:meth:`AsyncMirrorSite.on_run`), matched against the subscribers
    once and put on the main unit's inbox once; a handoff control frame
    is queued in place; a CHKPT's vote is written back on the same
    socket in the turn that reads it, and a COMMIT is applied there
    (:meth:`AsyncMirrorSite.on_control`).  The event loop applies what
    the inbox holds, a budget at a time, so client requests interleave
    with applies.  Also listens on its own port for thin-client REQUEST
    traffic.
    """

    def __init__(self, name: str, config: Optional[MirrorConfig] = None):
        self.name = name
        self.config = config if config is not None else simple_mirroring()
        self.stats = WireStats()
        self.site = AsyncMirrorSite(name)
        if self.config.check_invariants:
            self.site.monitor = InvariantMonitor()
        self.site.main.delta_snapshots = self.config.delta_snapshots
        self.site.main.delta_fallback_fraction = self.config.delta_fallback_fraction
        #: the reader's put side of the main unit's inbox (the same
        #: queue), counting how often the inbox was full
        self.data_sub = AsyncSubscription(f"{name}.data", self.site.main.inbox)
        #: inert, reads 0 / 0: nothing queues control on a mirror.
        #: benchmarks/e2e/server.py's ``_counters`` still totals it, until
        #: ROADMAP 1(e) gives that reader a stats() mapping
        self.ctrl_sub = SimpleNamespace(high_watermark=0, blocked_puts=0)
        self.port: Optional[int] = None
        self._client_server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: List[asyncio.Task] = []
        #: subscription fan-out over this mirror's client port — the
        #: "mirror as content broker" half of the story
        self.subfan = SubscriptionFanout(self.stats)

    async def serve_clients(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open this mirror's own client-facing port.

        The port serves two roles, told apart by the HELLO preamble:
        thin clients asking for initial state (REQUEST/RESPONSE) and
        subscribers registering predicates for the matched push stream.
        """

        async def handle(
            reader: asyncio.StreamReader, writer: asyncio.StreamWriter
        ) -> None:
            frames = _FrameReader(reader, self.stats)
            first = await frames.first_message()
            if isinstance(first, Hello) and first.role == "subscriber":
                await _serve_subscriber(self.subfan, first.name, writer, frames)
                return
            if first is None or first == WIRE_EOS:
                writer.close()
                return
            # request path: hand the peeked frame back (the serve loop
            # ignores a client HELLO, as before)
            frames.push_back(first)
            await _serve_client(self.site.main, writer, frames, self.stats)

        self._client_server = await asyncio.start_server(
            _tracked_handler(handle, self._conn_tasks), host, port
        )
        self.port = self._client_server.sockets[0].getsockname()[1]
        return self.port

    async def run(self, host: str, port: int) -> None:
        """Connect to central and run the mirror site to completion: the
        socket reader and the main unit's event loop, supervised — the
        first of the two to fail cancels the other and its exception is
        raised."""
        # the uplink's encoder writes HELLO, the votes and EOS
        frames, writer, encoder = await _dial(
            host, port, Hello("mirror", self.name), self.stats
        )
        tasks = TaskSupervisor()
        try:
            applying = tasks.spawn(self.site.main.event_loop())
            await tasks.guard(self._reader_loop(frames, writer, encoder, applying))
        finally:
            writer.close()  # first: a second cancellation may cut the rest short
            await tasks.cancel()
            await self.close()

    async def close(self) -> None:
        """Close the client-facing listener (idempotent)."""
        server, self._client_server = self._client_server, None
        if server is not None:
            server.close()
            await server.wait_closed()
            self.subfan.collect_shared_stats()
        await _cancel_tracked(self._conn_tasks)

    async def _reader_loop(
        self, frames: "_FrameReader", writer: asyncio.StreamWriter,
        encoder: WireEncoder, applying: "asyncio.Task[None]",
    ) -> None:
        """Take the central connection's stream into the site a chunk
        per turn (a lone event travels as itself).  At end of stream —
        clean EOS, or central vanished — end the subscribers' and the
        inbox's streams, wait for the event loop to apply what is
        queued, and close the uplink with EOS."""
        site, inbox, subfan, stats = self.site, self.data_sub, self.subfan, self.stats
        while True:
            chunk = await frames.next_chunk()
            ended = chunk is None
            for item in _runs(chunk or ()):
                if type(item) is list:
                    site.on_run(item)
                    payload = item[0] if len(item) == 1 else EventBatch(item)
                    subfan.fanout(payload)
                    await inbox.put(payload)
                elif isinstance(item, ShardControl):
                    # handoff control frames take the data path: their
                    # whole contract is ordering against the event stream
                    await inbox.put(item)
                elif item == WIRE_EOS:
                    ended = True
                    break
                else:
                    vote = site.on_control(item)
                    if vote is not None:
                        _reply(writer, stats, encoder.encode_message, vote)
                        await writer.drain()
            if ended:
                break
            # the chunk is dealt with, trailing control frame and all:
            # subscribers get what it matched in one write each
            subfan.flush()
        subfan.eos()
        await inbox.put(EOS)
        await applying
        frame = encoder.encode_eos()
        stats.frames_sent += 1
        stats.bytes_sent += len(frame)
        writer.write(frame)
        await writer.drain()


async def _dial(
    host: str, port: int, hello: Hello, stats: WireStats,
) -> Tuple[_FrameReader, asyncio.StreamWriter, WireEncoder]:
    """Open a connection to ``host:port`` and say ``hello`` on it;
    returns the connection's frame reader, writer and encoder.  A peer
    that is not listening yet is dialled again for :data:`DIAL_RETRY_S`
    seconds: in the multiprocess shapes it may still be starting up."""
    deadline = time.monotonic() + DIAL_RETRY_S
    while True:
        try:
            reader, writer = await asyncio.open_connection(host, port)
            break
        except OSError:
            if time.monotonic() >= deadline:
                raise
            await asyncio.sleep(0.05)
    encoder = WireEncoder()
    frame = encoder.encode_hello(hello)
    stats.frames_sent += 1
    stats.bytes_sent += len(frame)
    writer.write(frame)
    return _FrameReader(reader, stats), writer, encoder


async def _run_client(
    host: str, ports: Iterable[int], stats: WireStats,
) -> List[float]:
    """Thin client: one request per entry of ``ports``, sent there, each
    RESPONSE awaited; a port's connection opens on its first request and
    ends with EOS.  Returns request latencies (seconds)."""
    conns: Dict[int, Tuple[_FrameReader, asyncio.StreamWriter, WireEncoder]] = {}
    latencies: List[float] = []
    try:
        for i, port in enumerate(ports):
            conn = conns.get(port)
            if conn is None:
                conn = conns[port] = await _dial(
                    host, port, Hello("client", "thin"), stats
                )
            frames, writer, encoder = conn
            issued = time.monotonic()
            request = InitStateRequest(client_id=f"thin{i}", issued_at=issued)
            frame = encoder.encode_request(request)
            stats.frames_sent += 1
            stats.bytes_sent += len(frame)
            writer.write(frame)
            await writer.drain()
            response = await frames.next_message()
            if isinstance(response, InitStateResponse):
                latencies.append(time.monotonic() - issued)
    finally:
        for _frames, writer, encoder in conns.values():
            try:
                writer.write(encoder.encode_eos())
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()
    return latencies


class NetCluster:
    """A central site and the mirrors it feeds: the server of the
    paper's Fig. 2, and the one way a live cluster is stood up.

    ``shard`` qualifies every site name (``shard0/central``,
    ``shard0/mirror1``), so a shard's checkpoint coordinator agrees over
    its own sites only; unsharded, the names are bare.  A caller starts
    the cluster, feeds ``central`` its source stream and EOS (or lets a
    source connection do it), awaits :meth:`run` and ends with
    :meth:`close`: the source's EOS ends central's run, which ends every
    mirror's.
    """

    def __init__(
        self,
        n_mirrors: int = 1,
        config: Optional[MirrorConfig] = None,
        adaptation: bool = False,
        fault_controller: Optional["LinkFaultController"] = None,
        shard: str = "",
    ):
        self.shard = shard
        self.central = NetCentral(
            n_mirrors,
            config=config,
            adaptation=adaptation,
            fault_controller=fault_controller,
            site_name=qualify_site(shard, "central"),
            mirror_names=[
                qualify_site(shard, f"mirror{i + 1}") for i in range(n_mirrors)
            ],
        )
        self.mirrors = [
            NetMirror(name, config=self.central.config)
            for name in self.central.mirror_names
        ]
        self.port: Optional[int] = None
        #: where clients are served: each mirror's port, or central's
        #: when there is no mirror
        self.client_ports: List[int] = []
        #: the site runs; the first to raise ends :meth:`run` with it
        self._tasks = TaskSupervisor()

    async def start(
        self, host: str = "127.0.0.1", port: int = 0,
        client_ports: Sequence[int] = (),
    ) -> int:
        """Bind central's port and each mirror's client port (``0``:
        any free one), then spawn ``central.run()`` and every
        ``mirror.run()``; returns central's port."""
        port = self.port = await self.central.start(host=host, port=port)
        for i, mirror in enumerate(self.mirrors):
            requested = client_ports[i] if client_ports else 0
            self.client_ports.append(
                await mirror.serve_clients(host=host, port=requested)
            )
        if not self.mirrors:
            self.client_ports = [port]
        self._tasks.spawn(self.central.run())
        for mirror in self.mirrors:
            self._tasks.spawn(mirror.run(host, port))
        return port

    async def run(self) -> None:
        """Return once the source's EOS has wound the cluster down, or
        raise the first failure among its sites."""
        runs = list(self._tasks.tasks)

        async def wound_down() -> None:
            await asyncio.gather(*runs)

        await self._tasks.guard(wound_down())

    async def close(self) -> None:
        """Cancel whatever still runs and close every listener
        (idempotent: the one teardown of every path)."""
        await self._tasks.cancel()
        await self.central.close()
        for mirror in self.mirrors:
            await mirror.close()

    # -- results ---------------------------------------------------------
    def mains(self) -> List[Any]:
        """Every site's main unit, central's first."""
        return [self.central.site.main] + [m.site.main for m in self.mirrors]

    def replica_digests(self) -> List[tuple]:
        return [main.ede.state_digest() for main in self.mains()]

    def stats(self) -> WireStats:
        merged = WireStats()
        merged.merge(self.central.stats)
        for mirror in self.mirrors:
            merged.merge(mirror.stats)
        return merged


async def run_net_scenario(
    script: Optional[EventScript] = None,
    n_mirrors: int = 1,
    n_requests: int = 0,
    config: Optional[MirrorConfig] = None,
    adaptation: bool = False,
    fault_controller: Optional["LinkFaultController"] = None,
    subscribers: Sequence[Tuple[str, Any]] = (),
    host: str = "127.0.0.1",
) -> NetRunSummary:
    """Run one full scenario over real loopback sockets (single event
    loop, every byte through TCP).

    One thin client issues ``n_requests`` requests, one after another,
    round-robin over the mirrors (central when mirror-less).
    ``subscribers`` is a sequence of ``(client_id, predicate)`` pairs:
    each opens a subscriber connection (round-robin over the mirror
    client ports, the central port when mirror-less), registers its
    predicate, and collects the matched push stream; all registrations
    are acked before the source starts, so delivery is complete."""
    if script is None:
        script = generate_script(FlightDataConfig())
    cluster = NetCluster(
        n_mirrors, config=config, adaptation=adaptation,
        fault_controller=fault_controller,
    )
    central = cluster.central
    # GC pacing: the hot path recycles its buffers, so the cyclic
    # collector's default gen-0 trigger (~700 container allocations)
    # fires thousands of times per run scanning mostly-live objects.
    # Raise the gen-0 threshold for the duration of the scenario —
    # collection stays enabled (memory stays bounded), it just runs in
    # far fewer, better-amortised passes.  Thresholds are restored on
    # exit so callers and tests see no global change.
    gc_thresholds = gc.get_threshold()
    gc.set_threshold(50_000, gc_thresholds[1], gc_thresholds[2])
    # Supervised: a site or client task that raises ends the scenario
    # with its exception (the rest would only block behind it).
    # Whatever the outcome, the finally leaves no task, socket or port
    # behind.
    tasks = TaskSupervisor()
    client_stats = WireStats()

    async def drive() -> List[Dict[str, Any]]:
        await cluster.start(host=host)
        running = tasks.spawn(cluster.run())
        client_ports = cluster.client_ports
        sub_tasks: List[asyncio.Task] = []
        sub_ready: List[asyncio.Event] = []
        for i, (sub_client, predicate) in enumerate(subscribers):
            ready = asyncio.Event()
            sub_ready.append(ready)
            sub_tasks.append(
                tasks.spawn(
                    _run_subscriber(
                        host, client_ports[i % len(client_ports)],
                        sub_client, [predicate], client_stats,
                        ready=ready,
                    )
                )
            )
        # every subscription acked before the first event flows
        for ready in sub_ready:
            await ready.wait()

        async def source() -> None:
            # feed runs of 64, as socket reads would
            events = (se.event for se in script.fresh_events())
            while run := list(islice(events, 64)):
                await central.feed(run)

        drivers = [tasks.spawn(source())]
        if n_requests:
            targets = islice(cycle(client_ports), n_requests)
            drivers.append(tasks.spawn(_run_client(host, targets, client_stats)))
        await asyncio.gather(*drivers)
        await central.feed(EOS)
        await running
        return list(await asyncio.gather(*sub_tasks))

    try:
        t0 = time.monotonic()
        subscriber_results = await tasks.guard(drive())
    finally:
        await tasks.cancel()
        await cluster.close()
        gc.set_threshold(*gc_thresholds)

    stats = cluster.stats()
    stats.merge(client_stats)
    site = central.site
    mains = cluster.mains()
    subs = [m.data_sub for m in cluster.mirrors]
    return NetRunSummary(
        events_in=len(script),
        events_mirrored=site.mirrored_events,
        events_processed_central=site.main.ede.processed,
        updates_distributed=len(site.main.updates),
        requests_served=sum(len(m.responses) for m in mains),
        checkpoint_rounds=site.coordinator.rounds_started,
        checkpoint_commits=site.coordinator.rounds_committed,
        adaptations=site.adaptation.adaptations if site.adaptation else 0,
        reversions=site.adaptation.reversions if site.adaptation else 0,
        snapshot_builds=sum(m.snapshot_builds for m in mains),
        snapshot_cache_hits=sum(m.snapshot_cache_hits for m in mains),
        delta_snapshots_served=sum(m.delta_snapshots_served for m in mains),
        bytes_saved_by_delta=sum(m.bytes_saved_by_delta for m in mains),
        adaptation_log=list(site.adaptation_log),
        replica_digests=cluster.replica_digests(),
        wall_seconds=time.monotonic() - t0,
        mean_update_delay=site.main.update_delays.mean(),
        channel_high_watermark=max((s.high_watermark for s in subs), default=0),
        channel_blocked_puts=sum(s.blocked_puts for s in subs),
        wire=stats,
        subscriber_results=subscriber_results,
    )


# --------------------------------------------------------------------------
# Multiprocess deployment shapes (python -m repro rt --processes)
# --------------------------------------------------------------------------
#: Seconds between two looks at the children's exit codes.
CHILD_POLL_S = 0.02
#: Seconds a SIGTERMed child has to exit before it is left behind.
REAP_S = 10.0


_ChildMain = Callable[..., Coroutine[Any, Any, Dict[str, Any]]]


def _child_main(
    target: _ChildMain, args: Tuple[Any, ...], result_path: str
) -> None:
    """Entry point of every child process (spawn-safe: top level): run
    ``target(*args)`` on a fresh event loop and write the report it
    returns, as JSON, to ``result_path``."""
    report = asyncio.run(target(*args))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


class _Children:
    """The child processes of one run, each with its report file under
    ``tmpdir`` (the maslite-style spawn/report idiom).

    A child is spawned by name and runs :func:`_child_main`.  A child
    that exits with a non-zero code fails every :meth:`wait` on the
    children, so a run that spawns ``wait()`` under its supervisor fails
    as soon as any child dies, instead of waiting on a peer that will
    never speak."""

    def __init__(self, tmpdir: Path):
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._dir = tmpdir
        self._procs: Dict[str, "BaseProcess"] = {}

    def spawn(self, name: str, target: _ChildMain, *args: Any) -> None:
        proc = self._ctx.Process(
            target=_child_main, name=name,
            args=(target, args, str(self._dir / f"{name}.json")),
        )
        proc.start()
        self._procs[name] = proc

    async def wait(self, *names: str) -> None:
        """Until each named child (no names: every child) has exited;
        raises :class:`ChildProcessError` as soon as any child, named or
        not, exits with a non-zero code."""
        procs = self._procs
        while True:
            for name, proc in procs.items():
                if proc.exitcode:
                    raise ChildProcessError(
                        f"child {name!r} exited with code {proc.exitcode}"
                    )
            if not any(procs[name].is_alive() for name in names or procs):
                return
            await asyncio.sleep(CHILD_POLL_S)

    async def reap(self) -> None:
        """SIGTERM every child still alive, then wait for each to exit
        (idempotent: the teardown of every path)."""
        procs = list(self._procs.values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + REAP_S
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            await asyncio.sleep(CHILD_POLL_S)
        for proc in procs:
            # a zero-timeout join returns at once either way: pure reap
            proc.join(timeout=0)  # lint: allow-async-blocking

    def report(self, name: str) -> Dict[str, Any]:
        """The report child ``name`` wrote, or an error entry when it
        wrote none."""
        try:
            with open(self._dir / f"{name}.json", encoding="utf-8") as fh:
                report: Dict[str, Any] = json.load(fh)
        except FileNotFoundError:
            return {"error": "no result file"}
        return report


def _latency_report(requests: int, latencies: List[float]) -> Dict[str, Any]:
    """A client child's report."""
    return {
        "requests": requests,
        "responses": len(latencies),
        "mean_latency_s": sum(latencies) / len(latencies) if latencies else 0.0,
    }


async def _mirror_child(
    name: str, host: str, port: int, client_port: int
) -> Dict[str, Any]:
    """One mirror in its own process: serve clients on ``client_port``
    and mirror central at ``host:port`` to the end of its stream."""
    mirror = NetMirror(name)
    await mirror.serve_clients(host=host, port=client_port)
    await mirror.run(host, port)
    main = mirror.site.main
    return {
        "site": name,
        "events_applied": main.ede.processed,
        "requests_served": len(main.responses),
        "digest": list(main.ede.state_digest()),
        "frames_received": mirror.stats.frames_received,
        "bytes_received": mirror.stats.bytes_received,
    }


async def _client_child(host: str, ports: List[int]) -> Dict[str, Any]:
    """The thin client in its own process: one request per port."""
    return _latency_report(len(ports), await _run_client(host, ports, WireStats()))


def _preassign_ports(host: str, count: int) -> List[int]:
    """Grab free port numbers synchronously (called before the event
    loop starts: bind-and-release must not run inside a coroutine)."""
    import socket

    ports: List[int] = []
    placeholders = []
    for _ in range(count):
        s = socket.socket()
        s.bind((host, 0))
        ports.append(s.getsockname()[1])
        placeholders.append(s)
    for s in placeholders:
        s.close()
    return ports


class NetProcessRunner:
    """Run the topology as real OS processes (the CLI deployment shape).

    The parent process hosts the central site; each mirror and the thin
    client run in spawned child processes and report their results
    through JSON files in a scratch directory.  A child that dies fails
    the run.
    """

    def __init__(self, n_mirrors: int = 1, n_requests: int = 0,
                 script: Optional[EventScript] = None,
                 host: str = "127.0.0.1"):
        self.n_mirrors = n_mirrors
        self.n_requests = n_requests
        self.script = script if script is not None else generate_script(
            FlightDataConfig()
        )
        self.host = host

    def run(self) -> Dict[str, Any]:
        import tempfile

        # pre-assign client ports so children can bind deterministically
        client_ports = _preassign_ports(self.host, self.n_mirrors)
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            return asyncio.run(self._drive(_Children(Path(tmp)), client_ports))

    async def _drive(
        self, children: _Children, client_ports: List[int]
    ) -> Dict[str, Any]:
        central = NetCentral(n_mirrors=self.n_mirrors)
        site = central.site
        names = central.mirror_names
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=self.host)
            for name, client_port in zip(names, client_ports):
                children.spawn(
                    name, _mirror_child, name, self.host, port, client_port
                )
            central_run = tasks.spawn(central.run())
            if self.n_requests > 0:
                serving = cycle(client_ports or [port])
                targets = list(islice(serving, self.n_requests))
                children.spawn("client", _client_child, self.host, targets)
            watching = tasks.spawn(children.wait())

            async def stream() -> float:
                t0 = time.monotonic()
                for se in self.script.fresh_events():
                    await central.feed([se.event])
                if self.n_requests > 0:
                    await children.wait("client")
                await central.feed(EOS)
                await central_run
                wall = time.monotonic() - t0
                await watching  # every child has exited, each with code 0
                return wall

            wall = await tasks.guard(stream())
        finally:
            await tasks.cancel()
            await central.close()
            await children.reap()

        mirrors = [children.report(name) for name in names]
        client = children.report("client") if self.n_requests > 0 else None
        central_digest = list(site.main.ede.state_digest())
        digests = [central_digest] + [
            m.get("digest") for m in mirrors if "digest" in m
        ]
        return {
            "backend": "tcp",
            "events_in": len(self.script),
            "events_mirrored": site.mirrored_events,
            "checkpoint_rounds": site.coordinator.rounds_started,
            "checkpoint_commits": site.coordinator.rounds_committed,
            "wall_seconds": wall,
            "events_per_second": (
                len(self.script) / wall if wall > 0 else 0.0
            ),
            "wire": {
                "bytes_sent": central.stats.bytes_sent,
                "frames_sent": central.stats.frames_sent,
                "flushes": central.stats.flushes,
                "encode_ns": central.stats.encode_ns,
                "decode_ns": central.stats.decode_ns,
            },
            "replicas_consistent": len({json.dumps(d) for d in digests}) <= 1,
            "mirrors": mirrors,
            "client": client,
        }
