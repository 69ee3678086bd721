"""Real-socket runtime backend: the live server over localhost TCP.

The asyncio backend in :mod:`repro.rt.system` wires sites together with
in-process queues.  This module runs the *same* site objects over real
TCP connections carrying the binary wire format (:mod:`repro.wire`):

* the **central site** listens on a TCP port; each mirror's connection
  multiplexes mirrored events (EVENT/BATCH frames), checkpoint control
  traffic (CHKPT/COMMIT down, CHKPT_REP up) and stream shutdown (EOS)
  on one socket.  Because every mirror receives an identical outbound
  frame sequence, the central side encodes each message **once** (one
  shared interning table) and fans the same bytes out to all
  connections — per-connection writers only pace, fault-inject and
  flush;
* each **mirror site** additionally listens on its own port so thin
  clients can ask it for initial state (REQUEST/RESPONSE frames) — the
  paper's read-scaling story exercised over real sockets;
* **clients** connect round-robin, mirroring the request balancer of
  the other backends.

Outbound event frames pass through an :class:`AdaptiveFlusher` — a
coalescer that ships the buffered frames when they reach a byte budget
or a frame budget, or when the connection's outbound queue runs dry:
frames gather only while more are already waiting behind them, never
against a clock.  The frame budget *adapts* with the same hysteresis
shape as the paper's adaptation rules (§3.2.2): sustained sender backlog
above a threshold fattens batches (throughput mode), and the budget
reverts once the backlog falls back below a restore level (latency mode).
Control frames always flush immediately: checkpoint latency bounds
backup-queue growth, so it is never traded for throughput.

Two ways to run the topology:

* :func:`run_net_scenario` — every role in one process/event loop but
  over real sockets (loopback).  Deterministic enough for tests and
  benchmarks, and what ``tests/rt`` exercises.
* :class:`NetProcessRunner` — central, mirrors and client as separate
  OS processes (``multiprocessing`` spawn), the deployment shape of
  ``python -m repro rt --net tcp``.

Link chaos (:mod:`repro.faults.link`) plugs into the frame send path:
an optional :class:`~repro.faults.link.LinkFaultController` is
consulted per frame, and its drop / delay / duplicate verdicts are
applied to the real socket writes.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Awaitable,
    Callable,
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
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.flightdata import EventScript, FlightDataConfig, generate_script
from ..shard.handoff import ShardControl
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
from .channels import AsyncChannel, AsyncSubscription
from .sites import (
    CONTROL_BOUND,
    EOS,
    MAX_RUN_EVENTS,
    AsyncCentralSite,
    AsyncMirrorSite,
)
from .system import AsyncRunSummary
from .tasks import TaskSupervisor

__all__ = [
    "AdaptiveFlusher",
    "WireStats",
    "NetRunSummary",
    "NetCentral",
    "NetMirror",
    "SubscriptionFanout",
    "run_net_scenario",
    "NetProcessRunner",
]


# -- memory budget of the socket layer (the site queues: rt/sites.py) ------
#: Bytes asked of a socket per read.  One read is one *chunk*: the
#: frames it completes travel each hop together, so this also bounds
#: what a connection holds decoded but not yet queued.
READ_BYTES = 16 * 1024
#: ``NetCentral._uplink`` holds mirrored events and control messages on
#: their way to the encoder.  Full: ``sending_task`` (for a COMMIT,
#: ``control_task``) blocks in ``publish``.  Drained by the broadcast
#: loop, which blocks only on a full ``outbound``.
UPLINK_BOUND = 128
#: ``_MirrorConnection.outbound`` holds encoded frames for one mirror.
#: Full: the broadcast loop blocks — the slowest mirror paces the stream.
#: Drained by the connection's writer loop, which blocks only on its
#: socket: a mirror that stops reading holds the stream in central's
#: TCP send buffer.
OUTBOUND_BOUND = 256
#: What one mirror connection's :class:`AdaptiveFlusher` may hold between
#: ``outbound`` and the socket.  Nobody waits on it: frames gather only
#: while ``outbound`` has more behind them, and the writer loop ships
#: them when either budget is met, a control frame arrives or
#: ``outbound`` runs dry — then it blocks only on its socket.
FLUSH_BYTES = 64 * 1024
#: Frames per write while the writer keeps up with the broadcast loop.
FLUSH_FRAMES = 8
#: Frames per write once ``outbound`` backs up to :data:`FAT_BACKLOG`
#: (fewer, larger writes drain it faster), until it has fallen back to
#: :data:`RESTORE_BACKLOG`; both are depths of ``outbound``, so both sit
#: below :data:`OUTBOUND_BOUND`, and the gap between them is the
#: hysteresis that keeps the budget from flapping.
FAT_FLUSH_FRAMES = 64
FAT_BACKLOG = 32
RESTORE_BACKLOG = 8
#: ``NetMirror.data_sub`` holds runs of events off the central
#: connection.  Full: the mirror's reader blocks and stops reading its
#: socket.  Drained by the mirror's ``receiving_task``.
MIRROR_DATA_BOUND = 8
#: Bytes a subscriber's transport may hold unsent.  Past it the
#: subscriber is too slow for the stream it asked for: it is
#: disconnected, its registrations die with the connection, and it
#: resumes as a failed-over client does — re-register, snapshot.
SUB_WRITE_BUDGET = 1 << 20
#: Seconds a new connection has to say HELLO.
HELLO_TIMEOUT_S = 5.0


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
    flusher_adaptations: int = 0
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
class NetRunSummary(AsyncRunSummary):
    """Live-run summary plus wire-level accounting."""

    wire: WireStats = field(default_factory=WireStats)
    #: per-subscriber result dicts (client_id, acks, received events)
    subscriber_results: List[Dict[str, Any]] = field(default_factory=list)


class AdaptiveFlusher:
    """Output coalescing by size, with a frame budget that adapts.

    A passive policy object owned by one connection's single sender
    task (no internal tasks, locks or timers): the sender adds encoded
    frames, flushes when :attr:`should_flush` says a budget is met, and
    flushes whatever is held before it waits for more — a frame never
    sits here while the link is idle.

    ``note_backlog`` implements the paper-style hysteresis pair: when
    the sender's outbound backlog reaches :data:`FAT_BACKLOG` the frame
    budget jumps to :data:`FAT_FLUSH_FRAMES` (fewer, larger writes —
    throughput over latency); once backlog falls to
    :data:`RESTORE_BACKLOG` the budget reverts to :data:`FLUSH_FRAMES`.
    """

    def __init__(self, writer: asyncio.StreamWriter, stats: WireStats):
        self._writer = writer
        self._stats = stats
        self.frame_budget = FLUSH_FRAMES
        self.fat_mode = False
        #: a closed/reset peer marks the flusher dead instead of letting
        #: the exception kill the writer loop (chaos drills close
        #: sockets mid-stream); once dead, adds and flushes are no-ops
        self.dead = False
        # buffer *chain*: frames are kept as the immutable bytes objects
        # the encoder produced (often shared across all connections by
        # the SharedFrameCache) and handed to the transport in one
        # writelines() per flush — no per-frame bytearray append, no
        # re-copy of bytes that were already contiguous
        self._chunks: List[bytes] = []
        self._bytes = 0

    @property
    def pending_frames(self) -> int:
        return len(self._chunks)

    @property
    def should_flush(self) -> bool:
        return (
            self._bytes >= FLUSH_BYTES
            or len(self._chunks) >= self.frame_budget
        )

    def add(self, frame: bytes) -> None:
        if self.dead:
            return
        self._chunks.append(frame)
        self._bytes += len(frame)

    def note_backlog(self, depth: int) -> None:
        if not self.fat_mode and depth >= FAT_BACKLOG:
            self.fat_mode = True
            self.frame_budget = FAT_FLUSH_FRAMES
            self._stats.flusher_adaptations += 1
        elif self.fat_mode and depth <= RESTORE_BACKLOG:
            self.fat_mode = False
            self.frame_budget = FLUSH_FRAMES
            self._stats.flusher_adaptations += 1

    async def flush(self, reason: str = "size") -> None:
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
        try:
            self._writer.writelines(chunks)
            stats.flushes += 1
            stats.bytes_sent += sent
            if reason == "dry":
                stats.dry_flushes += 1
            elif reason == "control":
                stats.control_flushes += 1
            else:
                stats.size_flushes += 1
            await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # the transport died under us (peer reset / chaos kill):
            # mark the connection dead so the writer loop winds down
            # instead of crashing the serving task
            self.dead = True
            stats.dead_connection_flushes += 1


@dataclass
class _FrameEnvelope:
    """What the link-fault controller sees for one outbound frame
    (duck-typed stand-in for the cluster transport's Message)."""

    kind: str  # "data" | "control"
    size: int


async def _apply_link_faults(
    faults: Optional["LinkFaultController"], envelope: _FrameEnvelope,
    src: str, dst: str, now: float, stats: WireStats,
) -> int:
    """Consult the controller; returns number of copies to send (0 =
    dropped), sleeping out any injected delay."""
    if faults is None:
        return 1
    verdict = faults.on_send(envelope, src, dst, now)
    if verdict is None:
        return 1
    if verdict.drop:
        stats.frames_dropped += 1
        return 0
    if verdict.delay > 0:
        await asyncio.sleep(verdict.delay)
    if verdict.duplicates:
        stats.frames_duplicated += verdict.duplicates
    return 1 + verdict.duplicates


class _MirrorConnection:
    """Central-side state for one connected mirror."""

    def __init__(self, name: str):
        self.name = name
        #: outbound work for this connection's writer: (kind, item) where
        #: item is pre-encoded bytes (shared-encode fast path) or the
        #: message object itself (fault-injection path)
        self.outbound: asyncio.Queue = asyncio.Queue(maxsize=OUTBOUND_BOUND)
        #: connection-local encoder, used only under fault injection —
        #: the codec's cross-frame state (interning tables, uid deltas)
        #: means a dropped or duplicated *frame* would desynchronize the
        #: peer's decoder, so faults apply per message, before encoding
        self.encoder = WireEncoder()
        self.done = asyncio.Event()
        self.closed = False


class NetCentral:
    """Central site served over TCP.

    Wraps an :class:`AsyncCentralSite` whose mirror/control channels
    fan out to per-connection sender tasks instead of local queues.
    """

    def __init__(
        self,
        n_mirrors: int,
        config: Optional[MirrorConfig] = None,
        adaptation: bool = False,
        request_service_delay: float = 0.0,
        snapshot_fast_path: bool = False,
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
        mirror_channel = AsyncChannel(f"net.{site_name}.data")
        ctrl_channel = AsyncChannel(f"net.{site_name}.ctrl", kind="control")
        participants = {site_name} | set(self.mirror_names)
        controller = (
            AdaptationController(self.config, registry=default_registry())
            if adaptation
            else None
        )
        self.site = AsyncCentralSite(
            self.config, mirror_channel, ctrl_channel, participants,
            adaptation=controller, site=site_name,
        )
        self.site.main.distribute_updates = True
        self.site.main.request_service_delay = request_service_delay
        if snapshot_fast_path:
            self.site.main.coalesce_requests = True
            self.site.main.serve_cached_snapshots = True
        self.site.main.delta_snapshots = self.config.delta_snapshots
        self.site.main.delta_fallback_fraction = self.config.delta_fallback_fraction
        self.connections: Dict[str, _MirrorConnection] = {}
        self.mirrors_connected = asyncio.Event()
        if n_mirrors == 0:
            self.mirrors_connected.set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: List[asyncio.Task] = []
        self.port: Optional[int] = None
        # shared-encode fan-out: every mirror connection carries an
        # identical outbound frame sequence (events + control broadcasts),
        # so the central site's channels are subscribed ONCE and each
        # message is encoded a single time into the SharedFrameCache;
        # per-connection writers then pace, fault-inject and flush the
        # same immutable bytes independently.  A mirror attaching after
        # the stream started invalidates the cache generation: the cache
        # hands back a RESET frame that is broadcast to every member so
        # all decoders restart from the same clean interning state.
        # Both subscriptions deliver into the one queue the broadcast
        # loop drains: mirrors see events and control in publish order.
        self._uplink: asyncio.Queue = asyncio.Queue(maxsize=UPLINK_BOUND)
        self._data_sub = self.site.mirror_channel.subscribe(
            "net.uplink", into=self._uplink
        )
        self._ctrl_sub = self.site.ctrl_channel.subscribe(
            "net.uplink", into=self._uplink
        )
        self.shared = SharedFrameCache()
        #: content-based subscription fan-out riding the same push path;
        #: inert (guarded no-ops) until a subscriber connects
        self.subfan = SubscriptionFanout(self.stats)
        self._eos_pending = 2  # data channel + control channel
        self._broadcast_tasks: List[asyncio.Task] = []

    def _elapsed(self) -> float:
        return time.monotonic() - self._t0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listening socket; returns the bound port."""
        self._server = await asyncio.start_server(
            _tracked_handler(self._on_connection, self._conn_tasks), host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._broadcast_tasks = [asyncio.create_task(self._broadcast_loop())]
        return self.port

    async def _distribute(self, kind: str, frame: Any) -> None:
        """Queue one frame for every live mirror, waiting for room
        (broadcast loop only: every mirror sees the same order)."""
        item = (kind, frame)
        for conn in self.connections.values():
            if not conn.closed:
                if conn.outbound.full():
                    await conn.outbound.put(item)
                else:
                    conn.outbound.put_nowait(item)

    async def _broadcast_loop(self) -> None:
        """Encode each outbound message exactly once; fan the same bytes
        out to every live mirror connection's writer.

        Under fault injection the message *object* is fanned out instead
        and each connection encodes with its own table: link faults are
        per destination, and the decoder on the other end can only stay
        in sync (interning, uid deltas) with frames it actually receives
        — so a dropped message must never have been encoded for that
        connection at all.
        """
        stats = self.stats
        faulty = self.fault_controller is not None
        uplink = self._uplink
        subfan = self.subfan
        unflushed = 0
        while True:
            if unflushed and (uplink.empty() or unflushed >= 64):
                # one subscriber write per run of events: when the
                # queue runs dry, or the run gets long
                subfan.flush()
                unflushed = 0
            kind, payload = await uplink.get()
            if kind == "attach":
                await self._attach(payload)
                continue
            if payload == EOS:
                self._eos_pending -= 1
                if self._eos_pending > 0:
                    continue
                # EOS bypasses fault injection (a chaos-dropped shutdown
                # frame would wedge the topology, not exercise it)
                subfan.eos()
                await self._distribute(
                    "eos", None if faulty else self.shared.encode_eos()
                )
                break
            if kind == "data":
                # subscription lane: matched-set fan-out on the same
                # payload the mirrors get (link faults model the
                # central->mirror links, not the subscriber port)
                subfan.fanout(payload)
                unflushed += 1
            if faulty:
                await self._distribute(kind, payload)
                continue
            t0 = time.perf_counter_ns()
            frame = self.shared.encode(payload)
            stats.encode_ns += time.perf_counter_ns() - t0
            await self._distribute(kind, frame)

    async def _attach(self, conn: _MirrorConnection) -> None:
        """Admit a mirror connection to the fan-out — from inside the
        broadcast loop, between two messages, so the RESET of a late
        attach reaches every member after the old generation's last
        frame and before the new one's first."""
        if conn.closed:
            return
        self.connections[conn.name] = conn
        if self.fault_controller is None:
            # join the shared broadcast group; a late attach (the cache
            # already carries interning/uid state some decoder never
            # saw) invalidates the generation and the returned RESET
            # frame resynchronizes every member's decoder
            reset_frame = self.shared.attach(conn.name)
            if reset_frame is not None:
                self.stats.shared_resets += 1
                await self._distribute("data", reset_frame)
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
        conn = _MirrorConnection(name)
        sender = asyncio.create_task(self._writer_loop(conn, writer))
        await self._uplink.put(("attach", conn))
        try:
            while True:
                msg = await frames.next_message()
                if msg is None or msg == WIRE_EOS:
                    break
                if not isinstance(msg, Hello):
                    await self.site.ctrl_in.put(msg)
        finally:
            conn.closed = True  # stop the broadcast fan-out to this one
            if self.fault_controller is None:
                self.shared.detach(name)
            await conn.outbound.put(("close", b""))
            await asyncio.gather(sender, return_exceptions=True)
            writer.close()
            conn.done.set()

    async def _writer_loop(
        self, conn: _MirrorConnection, writer: asyncio.StreamWriter,
    ) -> None:
        """Pace, fault-inject and flush outbound frames for one
        connection.  Without a fault controller the items are frames the
        broadcast loop already encoded (shared bytes, zero per-connection
        encode work); with one, the items are message objects and this
        loop encodes the survivors on ``conn.encoder`` — a dropped
        message leaves no trace in the connection's codec state, and a
        duplicated one is encoded twice (the second copy is nearly all
        interning references)."""
        flusher = AdaptiveFlusher(writer, self.stats)
        stats = self.stats
        faulty = self.fault_controller is not None
        # recycled once per connection: the fault controller only reads
        # kind/size, so one mutable envelope serves every frame (no
        # per-event object churn on the hot path)
        envelope = _FrameEnvelope(kind="data", size=0)
        outbound = conn.outbound
        while not flusher.dead:
            # frames coalesce only while more are already queued behind
            # them; when the queue runs dry the link is idle, so what is
            # held ships now — batching follows load, not a clock
            if outbound.empty():
                if flusher.pending_frames:
                    await flusher.flush("dry")
                    continue  # the drain may have let more in
                kind, item = await outbound.get()
            else:
                kind, item = outbound.get_nowait()
            if kind == "close":
                await flusher.flush("control")
                break
            if kind == "eos":
                stats.frames_sent += 1
                flusher.add(conn.encoder.encode_eos() if faulty else item)
                await flusher.flush("control")
                continue
            if faulty:
                # the message object travels here; the controller sees
                # its modeled size so size-conditioned link rules see
                # comparable values, and survivors are encoded on this
                # connection's own codec state
                envelope.kind = kind
                envelope.size = getattr(item, "size", 0)
                copies = await _apply_link_faults(
                    self.fault_controller, envelope,
                    self.site_name, conn.name, self._elapsed(), stats,
                )
                for _ in range(copies):
                    t0 = time.perf_counter_ns()
                    frame = conn.encoder.encode_message(item)
                    stats.encode_ns += time.perf_counter_ns() - t0
                    stats.frames_sent += 1
                    flusher.add(frame)
            else:
                # clean fast path: item is the shared pre-encoded frame;
                # nothing is allocated between queue and buffer chain
                stats.frames_sent += 1
                flusher.add(item)
            flusher.note_backlog(outbound.qsize())
            if kind == "control":
                await flusher.flush("control")
            elif flusher.should_flush:
                await flusher.flush("size")
        conn.closed = True
        # release a broadcast loop waiting for room here: no writer
        # will make any now (later frames skip a closed connection)
        while not outbound.empty():
            outbound.get_nowait()

    async def _serve_source(
        self, writer: asyncio.StreamWriter, frames: "_FrameReader",
    ) -> None:
        """Serve the ingress router's event-stream connection.

        The sharded runtime (:mod:`repro.rt.shards`) feeds each shard's
        central site over one ordered TCP connection instead of an
        in-process queue: EVENT/BATCH frames enter ``data_in`` exactly
        where the local source coroutine would put them, handoff
        tombstones and transfer installs ride the same connection (their
        ordering against events is the handoff protocol's correctness
        argument), and the shard's own transfer *replies* travel back on
        this socket from the main unit's ``shard_out`` queue.
        """
        main = self.site.main
        out = main.shard_out
        if out is None:
            out = main.shard_out = asyncio.Queue()
        reply_task = asyncio.create_task(self._transfer_writer(writer, out))
        data_in = self.site.data_in
        try:
            while True:
                chunk = await frames.next_chunk()
                ended = chunk is None
                for item in _runs(chunk or ()):
                    if type(item) is list or isinstance(item, ShardControl):
                        await data_in.put(item)
                    elif item == WIRE_EOS:
                        ended = True
                        break
                if ended:
                    await data_in.put(EOS)
                    break
        finally:
            # by the time the router sends EOS it has received every
            # transfer reply (it only closes the stream when no handoff
            # is pending), so the writer drains nothing after this
            await out.put(None)
            await asyncio.gather(reply_task, return_exceptions=True)
            writer.close()

    async def _transfer_writer(
        self, writer: asyncio.StreamWriter, out: asyncio.Queue,
    ) -> None:
        """Ship transfer replies back to the router (None = stop)."""
        encoder = WireEncoder()
        stats = self.stats
        while True:
            transfer = await out.get()
            if transfer is None:
                break
            t0 = time.perf_counter_ns()
            frame = encoder.encode_message(transfer)
            stats.encode_ns += time.perf_counter_ns() - t0
            stats.frames_sent += 1
            stats.bytes_sent += len(frame)
            stats.flushes += 1
            stats.control_flushes += 1
            writer.write(frame)
            await writer.drain()

    async def shutdown_stream(self) -> None:
        """Propagate end-of-stream to every mirror connection."""
        await self.site.mirror_channel.publish(EOS)
        await self.site.ctrl_channel.publish(EOS)

    async def wait_mirrors_done(self) -> None:
        for conn in self.connections.values():
            await conn.done.wait()

    async def close(self) -> None:
        """Stop broadcast tasks and close the listener (idempotent, so
        error-path ``finally`` blocks can call it unconditionally)."""
        tasks, self._broadcast_tasks = self._broadcast_tasks, []
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
            self.stats.frames_shared += self.shared.frames_shared
            self.stats.shared_encodes_saved += self.shared.encodes_saved
            self.subfan.collect_shared_stats()
        server, self._server = self._server, None
        if server is not None:
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
        the next read; None once the peer closed."""
        pending = self._pending
        decode = self._decoder.decode_body
        stats = self._stats
        while not pending:
            data = await self._reader.read(READ_BYTES)
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
                    t0 = time.perf_counter_ns()
                    frame = encoder.encode_response(response)
                    stats.encode_ns += time.perf_counter_ns() - t0
                    stats.frames_sent += 1
                    stats.bytes_sent += len(frame)
                    stats.flushes += 1
                    stats.control_flushes += 1
                    writer.write(frame)
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
    reader, writer = await asyncio.open_connection(host, port)
    encoder = WireEncoder()
    writer.write(encoder.encode_hello(Hello("subscriber", client_id)))
    stats.frames_sent += 1
    for i, pred in enumerate(predicates):
        frame = encoder.encode_message(
            Subscribe.from_predicate(client_id, i + 1, pred)
        )
        stats.frames_sent += 1
        stats.bytes_sent += len(frame)
        writer.write(frame)
    await writer.drain()
    frames = _FrameReader(reader, stats)
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

    Runs the stock :class:`AsyncMirrorSite` over subscriptions fed by
    the socket reader; checkpoint votes travel back on the same socket.
    Also listens on its own port for thin-client REQUEST traffic.
    """

    def __init__(self, name: str, config: Optional[MirrorConfig] = None,
                 request_service_delay: float = 0.0,
                 snapshot_fast_path: bool = False):
        self.name = name
        self.config = config if config is not None else simple_mirroring()
        self.stats = WireStats()
        self.data_sub = AsyncSubscription(
            f"{name}.data", capacity=MIRROR_DATA_BOUND
        )
        self.ctrl_sub = AsyncSubscription(f"{name}.ctrl", capacity=CONTROL_BOUND)
        self.reply_to: asyncio.Queue = asyncio.Queue(maxsize=CONTROL_BOUND)
        self.site = AsyncMirrorSite(name, self.data_sub, self.ctrl_sub, self.reply_to)
        self.site.main.request_service_delay = request_service_delay
        if snapshot_fast_path:
            self.site.main.coalesce_requests = True
            self.site.main.serve_cached_snapshots = True
        self.site.main.delta_snapshots = self.config.delta_snapshots
        self.site.main.delta_fallback_fraction = self.config.delta_fallback_fraction
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
        """Connect to central and run the mirror site to completion."""
        reader, writer = await asyncio.open_connection(host, port)
        tasks = TaskSupervisor()

        async def drain() -> None:
            hello_enc = WireEncoder()
            writer.write(hello_enc.encode_hello(Hello("mirror", self.name)))
            await writer.drain()
            self.stats.frames_sent += 1
            site_tasks = [
                tasks.spawn(self.site.receiving_task()),
                tasks.spawn(self.site.control_task()),
                tasks.spawn(self.site.main.event_loop()),
            ]
            reply_writer = tasks.spawn(self._reply_loop(writer, hello_enc))
            await self._reader_loop(reader)
            await asyncio.gather(*site_tasks)
            # site fully drained: close the uplink
            await self.reply_to.put(EOS)
            await reply_writer

        try:
            await tasks.guard(drain())
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

    async def _reader_loop(self, reader: asyncio.StreamReader) -> None:
        """Move the central connection's stream into the site, a chunk
        per hop: each run of events is matched against the subscribers
        once and queued once (a lone event travels as itself)."""
        frames = _FrameReader(reader, self.stats)
        data_sub, ctrl_sub, subfan = self.data_sub, self.ctrl_sub, self.subfan
        while True:
            chunk = await frames.next_chunk()
            ended = chunk is None
            for item in _runs(chunk or ()):
                if type(item) is list:
                    payload = item[0] if len(item) == 1 else EventBatch(item)
                    subfan.fanout(payload)
                    await data_sub.put(payload)
                    data_sub.delivered += 1
                elif isinstance(item, ShardControl):
                    # handoff control frames take the DATA path: their
                    # whole contract is ordering against the event stream
                    await data_sub.put(item)
                    data_sub.delivered += 1
                elif item == WIRE_EOS:
                    ended = True
                    break
                else:
                    await ctrl_sub.put(item)
                    ctrl_sub.delivered += 1
            if ended:
                # clean EOS, or central vanished: end of stream either way
                subfan.eos()
                await data_sub.put(EOS)
                await ctrl_sub.put(EOS)
                break
            # the chunk is dealt with, trailing control frame and all:
            # subscribers get what it matched in one write each
            subfan.flush()

    async def _reply_loop(
        self, writer: asyncio.StreamWriter, encoder: WireEncoder
    ) -> None:
        stats = self.stats
        while True:
            reply = await self.reply_to.get()
            if reply == EOS:
                frame = encoder.encode_eos()
                stats.frames_sent += 1
                stats.bytes_sent += len(frame)
                writer.write(frame)
                await writer.drain()
                break
            t0 = time.perf_counter_ns()
            frame = encoder.encode_message(reply)
            stats.encode_ns += time.perf_counter_ns() - t0
            stats.frames_sent += 1
            stats.bytes_sent += len(frame)
            stats.flushes += 1
            stats.control_flushes += 1
            writer.write(frame)
            await writer.drain()


async def _run_client(
    host: str, ports: Sequence[int], request_times: Sequence[float],
    stats: WireStats, time_factor: float = 0.0,
) -> List[float]:
    """Round-robin thin client: one connection per target port, issuing
    ``request_times`` requests and awaiting each RESPONSE.  Returns
    request latencies (seconds)."""
    conns: List[Tuple[asyncio.StreamWriter, _FrameReader, WireEncoder]] = []
    for port in ports:
        reader, writer = await asyncio.open_connection(host, port)
        encoder = WireEncoder()
        writer.write(encoder.encode_hello(Hello("client", "thin")))
        await writer.drain()
        conns.append((writer, _FrameReader(reader, stats), encoder))
    latencies: List[float] = []
    start = time.monotonic()
    for i, at in enumerate(sorted(request_times)):
        if time_factor > 0:
            delay = start + at * time_factor - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
        writer, frames, encoder = conns[i % len(conns)]
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
    for writer, frames, encoder in conns:
        writer.write(encoder.encode_eos())
        await writer.drain()
        writer.close()
    return latencies


async def run_net_scenario(
    script: Optional[EventScript] = None,
    n_mirrors: int = 1,
    request_times: Sequence[float] = (),
    config: Optional[MirrorConfig] = None,
    adaptation: bool = False,
    request_service_delay: float = 0.0,
    snapshot_fast_path: bool = False,
    fault_controller: Optional["LinkFaultController"] = None,
    subscribers: Sequence[Tuple[str, Any]] = (),
    host: str = "127.0.0.1",
) -> NetRunSummary:
    """Run one full scenario over real loopback sockets (single event
    loop, every byte through TCP).

    ``subscribers`` is a sequence of ``(client_id, predicate)`` pairs:
    each opens a subscriber connection (round-robin over the mirror
    client ports, the central port when mirror-less), registers its
    predicate, and collects the matched push stream; all registrations
    are acked before the source starts, so delivery is complete."""
    if script is None:
        script = generate_script(FlightDataConfig())
    central = NetCentral(
        n_mirrors=n_mirrors,
        config=config,
        adaptation=adaptation,
        request_service_delay=request_service_delay,
        snapshot_fast_path=snapshot_fast_path,
        fault_controller=fault_controller,
    )
    # GC pacing: the hot path recycles its buffers, so the cyclic
    # collector's default gen-0 trigger (~700 container allocations)
    # fires thousands of times per run scanning mostly-live objects.
    # Raise the gen-0 threshold for the duration of the scenario —
    # collection stays enabled (memory stays bounded), it just runs in
    # far fewer, better-amortised passes.  Thresholds are restored on
    # exit so callers and tests see no global change.
    gc_thresholds = gc.get_threshold()
    gc.set_threshold(50_000, gc_thresholds[1], gc_thresholds[2])
    # Supervised: a site task that raises ends the scenario with its
    # exception (the rest would only block behind it).  Whatever the
    # outcome, the finally leaves no task, socket or port behind.
    tasks = TaskSupervisor()
    mirrors: List[NetMirror] = []
    client_stats = WireStats()
    site = central.site

    async def drive() -> Tuple[List[float], List[Dict[str, Any]]]:
        port = await central.start(host=host)
        mirrors.extend(
            NetMirror(
                f"mirror{i+1}", config=central.config,
                request_service_delay=request_service_delay,
                snapshot_fast_path=snapshot_fast_path,
            )
            for i in range(n_mirrors)
        )
        client_ports: List[int] = []
        for mirror in mirrors:
            client_ports.append(await mirror.serve_clients(host=host))
        if not client_ports:
            client_ports = [port]  # no mirrors: ask central directly

        mirror_tasks = [tasks.spawn(m.run(host, port)) for m in mirrors]
        await central.mirrors_connected.wait()

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

        central_tasks = [
            tasks.spawn(site.receiving_task()),
            tasks.spawn(site.sending_task()),
            tasks.spawn(site.control_task()),
            tasks.spawn(site.main.event_loop()),
        ]

        async def source() -> None:
            # feed in chunks, as a socket would: one data_in hop per
            # chunk (the receiving task stamps members one by one)
            chunk: List[UpdateEvent] = []
            for se in script.fresh_events():
                chunk.append(se.event)
                if len(chunk) >= 64:
                    await site.data_in.put(chunk)
                    chunk = []
            if chunk:
                await site.data_in.put(chunk)
            await site.data_in.put(EOS)

        drivers = [tasks.spawn(source())]
        latencies: List[float] = []
        if request_times:
            drivers.append(
                tasks.spawn(
                    _run_client(host, client_ports, request_times, client_stats)
                )
            )
        results = await asyncio.gather(*drivers)
        if request_times:
            latencies = results[1]
        await site.stream_done.wait()
        await central.shutdown_stream()
        await central.wait_mirrors_done()
        await asyncio.gather(*mirror_tasks)
        await site.ctrl_in.put(EOS)
        await asyncio.gather(*central_tasks)
        subscriber_results = await asyncio.gather(*sub_tasks)
        await central.close()
        return latencies, list(subscriber_results)

    try:
        t0 = time.monotonic()
        latencies, subscriber_results = await tasks.guard(drive())
    finally:
        await tasks.cancel()
        await central.close()
        for mirror in mirrors:
            await mirror.close()
        gc.set_threshold(*gc_thresholds)

    stats = WireStats()
    stats.merge(central.stats)
    stats.merge(client_stats)
    for mirror in mirrors:
        stats.merge(mirror.stats)
    mains = [site.main] + [m.site.main for m in mirrors]
    subs = [central_sub
            for channel in (site.mirror_channel, site.ctrl_channel)
            for central_sub in channel.subscriptions]
    subs += [m.data_sub for m in mirrors] + [m.ctrl_sub for m in mirrors]
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
        replica_digests=[site.main.ede.state_digest()]
        + [m.site.main.ede.state_digest() for m in mirrors],
        wall_seconds=time.monotonic() - t0,
        mean_update_delay=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        channel_high_watermark=max((s.high_watermark for s in subs), default=0),
        channel_blocked_puts=sum(s.blocked_puts for s in subs),
        wire=stats,
        subscriber_results=subscriber_results,
    )


# --------------------------------------------------------------------------
# Multiprocess deployment shape (python -m repro rt --net tcp)
# --------------------------------------------------------------------------
def _mirror_process_main(name: str, host: str, port: int,
                         client_port: int, result_path: str) -> None:
    """Entry point of one mirror OS process (spawn-safe: top level)."""

    async def main() -> None:
        mirror = NetMirror(name)
        await mirror.serve_clients(host=host, port=client_port)
        await mirror.run(host, port)
        # terminal report write: the run is over, nothing shares this loop
        with open(result_path, "w", encoding="utf-8") as fh:  # lint: allow-async-blocking
            json.dump(
                {
                    "site": name,
                    "events_applied": mirror.site.main.ede.processed,
                    "requests_served": len(mirror.site.main.responses),
                    "digest": list(mirror.site.main.ede.state_digest()),
                    "frames_received": mirror.stats.frames_received,
                    "bytes_received": mirror.stats.bytes_received,
                },
                fh,
            )

    asyncio.run(main())


def _client_process_main(host: str, ports: List[int], n_requests: int,
                         result_path: str) -> None:
    """Entry point of the thin-client OS process."""

    async def main() -> None:
        stats = WireStats()
        latencies = await _run_client(
            host, ports, [0.0] * n_requests, stats
        )
        # terminal report write: the run is over, nothing shares this loop
        with open(result_path, "w", encoding="utf-8") as fh:  # lint: allow-async-blocking
            json.dump(
                {
                    "requests": n_requests,
                    "responses": len(latencies),
                    "mean_latency_s": (
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                },
                fh,
            )

    asyncio.run(main())


async def _join_process(
    proc: "BaseProcess", timeout: Optional[float] = None
) -> None:
    """Reap a child process without stalling the event loop.

    ``Process.join`` blocks the whole loop (and with it the central
    site's serving tasks), so poll ``is_alive`` with short async sleeps
    up to ``timeout`` seconds (forever when ``None``), then reap with a
    zero-timeout join — which returns immediately either way.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while proc.is_alive():
        if deadline is not None and time.monotonic() >= deadline:
            break
        await asyncio.sleep(0.02)
    # a zero-timeout join returns immediately either way: pure reap
    proc.join(timeout=0)  # lint: allow-async-blocking


class NetProcessRunner:
    """Run the topology as real OS processes (the CLI deployment shape).

    The parent process hosts the central site; each mirror and the thin
    client run in spawned child processes and report their results
    through JSON files in a scratch directory.
    """

    def __init__(self, n_mirrors: int = 1, n_requests: int = 0,
                 script: Optional[EventScript] = None,
                 config: Optional[MirrorConfig] = None,
                 host: str = "127.0.0.1"):
        self.n_mirrors = n_mirrors
        self.n_requests = n_requests
        self.script = script if script is not None else generate_script(
            FlightDataConfig()
        )
        self.config = config
        self.host = host

    def _preassign_ports(self, count: int) -> List[int]:
        """Grab free port numbers synchronously (called before the event
        loop starts: bind-and-release must not run inside a coroutine)."""
        import socket

        ports: List[int] = []
        placeholders = []
        for _ in range(count):
            s = socket.socket()
            s.bind((self.host, 0))
            ports.append(s.getsockname()[1])
            placeholders.append(s)
        for s in placeholders:
            s.close()
        return ports

    def run(self) -> Dict[str, Any]:
        import multiprocessing
        import tempfile
        from pathlib import Path

        ctx = multiprocessing.get_context("spawn")
        # pre-assign client ports so children can bind deterministically
        client_ports = self._preassign_ports(self.n_mirrors)
        with tempfile.TemporaryDirectory(prefix="repro-net-") as tmp:
            tmpdir = Path(tmp)
            summary = asyncio.run(
                self._drive(ctx, tmpdir, client_ports)
            )
            return summary

    async def _drive(
        self, ctx: Any, tmpdir: str, client_ports: List[int]
    ) -> Dict[str, Any]:
        central = NetCentral(n_mirrors=self.n_mirrors, config=self.config)
        port = await central.start(host=self.host)

        procs = []
        central_tasks: List[asyncio.Task] = []
        client_proc = None
        try:
            mirror_results = []
            for i in range(self.n_mirrors):
                name = f"mirror{i+1}"
                result_path = str(tmpdir / f"{name}.json")
                mirror_results.append(result_path)
                proc = ctx.Process(
                    target=_mirror_process_main,
                    args=(name, self.host, port, client_ports[i], result_path),
                )
                proc.start()
                procs.append(proc)
            await central.mirrors_connected.wait()

            site = central.site
            central_tasks = [
                asyncio.create_task(site.receiving_task()),
                asyncio.create_task(site.sending_task()),
                asyncio.create_task(site.control_task()),
                asyncio.create_task(site.main.event_loop()),
            ]

            client_result = str(tmpdir / "client.json")
            if self.n_requests > 0:
                targets = client_ports if client_ports else [port]
                client_proc = ctx.Process(
                    target=_client_process_main,
                    args=(self.host, targets, self.n_requests, client_result),
                )
                client_proc.start()

            t0 = time.monotonic()
            for se in self.script.fresh_events():
                await site.data_in.put(se.event)
            await site.data_in.put(EOS)
            await site.stream_done.wait()
            if client_proc is not None:
                await _join_process(client_proc)
            await central.shutdown_stream()
            await central.wait_mirrors_done()
            await site.ctrl_in.put(EOS)
            await asyncio.gather(*central_tasks)
            await central.close()
            wall = time.monotonic() - t0
            for proc in procs:
                await _join_process(proc, timeout=30)
        finally:
            # a failed or cancelled run must not leak child processes or
            # the bound port: cancel whatever is still running, SIGTERM
            # + join any live child (terminate() is SIGTERM on POSIX)
            leftovers = [t for t in central_tasks if not t.done()]
            for task in leftovers:
                task.cancel()
            if leftovers:
                await asyncio.gather(*leftovers, return_exceptions=True)
            await central.close()
            children = procs + ([client_proc] if client_proc is not None else [])
            for proc in children:
                if proc.is_alive():
                    proc.terminate()
            for proc in children:
                await _join_process(proc, timeout=10)

        # postlude: every child has exited, the loop is idle — plain
        # file reads of the children's result files are fine here
        mirrors = []
        for path in mirror_results:
            try:
                with open(path, encoding="utf-8") as fh:  # lint: allow-async-blocking
                    mirrors.append(json.load(fh))
            except FileNotFoundError:
                mirrors.append({"error": "no result file"})
        client = None
        if client_proc is not None:
            try:
                with open(client_result, encoding="utf-8") as fh:  # lint: allow-async-blocking
                    client = json.load(fh)
            except FileNotFoundError:
                client = {"error": "no result file"}
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
