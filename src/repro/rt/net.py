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

Every connection a site accepts or dials is one :class:`_Link`, an
``asyncio.BufferedProtocol`` served in the transport's own read
callback: each read (at most :data:`READ_BYTES`) is split and decoded
in one call by the connection's :class:`~repro.wire.FrameWalker` — one
C function on the codec's C lane — into runs of events and the other
messages in place, and handed, item by item, to the step of the
connection's role — central's source, a mirror's votes, a thin client,
a subscriber, a mirror's uplink to central — which does the work in
that same callback.  A source run is stamped, put on the main unit's
inbox, mirrored and written to every mirror's cork there (central's
one entry point, :meth:`NetCentral.feed`, does the same for an
in-process caller): the events the rules pass are encoded in one call,
still one EVENT frame each, and the same ``bytes`` goes to every cork.
On a mirror a run is backed up, matched against the subscribers and
put on the inbox in the callback that reads it, and a vote is written
back there.  Each main unit applies a run in one call.  No task and no
stream buffer sits between a socket and a site's code.  A step that
must wait — a full inbox, a transport past its high-water mark, a
request's service delay, the yield between two pipelined requests —
hands the wait back: the link pauses reading, awaits it in a task
under the site's supervisor, steps the rest of what it read, in order,
and reads again.  Back-pressure is
the transports': a paused link leaves the peer's bytes in its socket,
and ``pause_writing`` / ``resume_writing`` tell a step when to wait for
its own.  Each connection's :class:`AdaptiveFlusher` (the cork) hands
what it holds to the transport in one ``writelines`` when a run is
done; a control frame leaves at once, with whatever data it follows,
because checkpoint latency bounds backup-queue growth.  The source's
EOS is the one wind-down signal: :meth:`NetCentral.run` returns once it
has been through the closing round and every mirror connection has
ended.  A mirror connection that ends before that leaves agreement
(:meth:`AsyncCentralSite.on_mirror_lost`).

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
connect, with retry, and say HELLO): a mirror's uplink as a link, the
clients' and the router's connections as a :class:`_FrameReader` they
await, which reads through the same walker.

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
from functools import partial
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
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from ..faults.link import LinkFaultController

from ..core.adaptation import AdaptationController
from ..core.config import MirrorConfig
from ..core.events import EOS, EventBatch, UpdateEvent
from ..core.functions import default_registry, simple_mirroring
from ..core.invariants import InvariantMonitor
from ..core.maincore import sum_accounting
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.flightdata import EventScript, FlightDataConfig, generate_script
from ..shard.handoff import ShardControl, ShardTransfer
from ..shard.partition import qualify_site
from ..sub.messages import SubAck, Subscribe, Unsubscribe
from ..sub.registry import SubscriptionRegistry
from ..wire import FrameWalker, Hello, SharedFrameCache, WireEncoder
from .channels import AsyncSubscription, Channel
from .sites import MAX_RUN_EVENTS, AsyncCentralSite, AsyncMirrorSite, _settled
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
    #: and how many of its uplink's puts found it full
    channel_high_watermark: int = 0
    channel_blocked_puts: int = 0
    wire: WireStats = field(default_factory=WireStats)
    #: mirror connections that ended before central's stream did
    mirrors_lost: int = 0
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

    def __init__(self, writer: "_Link", stats: WireStats):
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
            # peer already gone: drop silently, the link's own
            # connection_lost is what reports the end
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
        """Wait until the transport is below its low-water mark (or
        gone: the next flush then finds it closing and goes dead)."""
        await self._writer.drain()


@dataclass
class _FrameEnvelope:
    """What the link-fault controller sees for one outbound frame
    (duck-typed stand-in for the cluster transport's Message)."""

    kind: str  # "data" | "control"
    size: int


class _MirrorConnection:
    """Central-side state for one connected mirror."""

    def __init__(self, name: str, writer: "_Link", stats: WireStats):
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
    corks out at the end of a run.  Its listener serves every accepted
    connection as a :class:`_Link` whose role its HELLO names: source,
    mirror, client or subscriber.
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
        self.connections: Dict[str, _MirrorConnection] = {}
        #: the connections a publish reaches: attached, not yet closed
        self._live: List[_MirrorConnection] = []
        self.mirrors_connected = asyncio.Event()
        if n_mirrors == 0:
            self.mirrors_connected.set()
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
        #: what :meth:`run` supervises: the links' waits, and the
        #: failures of the source and mirror links' read callbacks
        self._tasks = TaskSupervisor()
        self._listener = _Listener(self.stats, self._tasks, self._dispatch)
        # recycled: the fault controller only reads kind/size, so one
        # mutable envelope serves every frame
        self._envelope = _FrameEnvelope(kind="data", size=0)

    def _elapsed(self) -> float:
        return time.monotonic() - self._t0

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listening socket; returns the bound port."""
        self.port = await self._listener.start(host, port)
        return self.port

    async def run(self) -> None:
        """Run the central site for its whole life: its main unit's
        event loop, supervised with every link's waits and read
        callbacks (the first to fail ends the run with its exception);
        then, the source's EOS applied, send EOS to every mirror and
        subscriber and return once each mirror connection has ended."""

        async def life() -> None:
            await self.site.main.event_loop()
            await self._end_stream()

        try:
            await self._tasks.guard(life())
        finally:
            await self._tasks.cancel()

    async def feed(self, item: Any) -> None:
        """Central's one entry point: once every mirror has connected,
        handle one item of the source stream whole
        (:meth:`AsyncCentralSite.on_input`)."""
        await self.mirrors_connected.wait()
        await _settled(self.site.on_input(item))

    def _dispatch(self, link: "_Link", hello: Hello) -> Optional["_Role"]:
        """The role of a connection that said ``hello`` (None: hang up)."""
        role = hello.role
        if role == "source":
            return _Source(self, link)
        if role == "mirror":
            return _Downlink(self, link, hello.name)
        if role == "client":
            return _Client(link, self.site.main, self.stats)
        if role == "subscriber":
            return _Subscriber(link, self.subfan, hello.name)
        return None

    # -- the site's link (see repro.rt.channels.Link) -----------------------
    def send(self, kind: str, payload: Any) -> None:
        """Cork one message for every live mirror; a control message
        leaves at once, with whatever data it follows.  A list of
        events is a run of them, each its own EVENT frame.

        Under fault injection each connection encodes with its own
        table, each event judged on its own (see :meth:`_send_faulty`);
        otherwise the message — or the whole run, in one call — is
        encoded once and the same bytes go to every cork."""
        if self._ended:
            return
        if kind == "data":
            # subscription lane: matched-set fan-out on the same payload
            # the mirrors get (link faults model the central->mirror
            # links, not the subscriber port)
            self.subfan.fanout(payload)
        live = self._live
        run = type(payload) is list
        if self.fault_controller is not None:
            for item in payload if run else (payload,):
                for conn in live:
                    self._send_faulty(conn, kind, item)
        else:
            stats = self.stats
            t0 = time.perf_counter_ns()
            if run:
                frame = self.shared.encode_events(payload)
                stats.frames_sent += len(live) * len(payload)
            else:
                frame = self.shared.encode(payload)
                stats.frames_sent += len(live)
            stats.encode_ns += time.perf_counter_ns() - t0
            for conn in live:
                conn.cork.add(frame)
        if kind == "control":
            self._flush("control")

    def drain(self) -> Optional[Awaitable[None]]:
        """End of a run: write every cork out in one ``writelines``
        each and push the subscribers' share; returns the wait on the
        mirrors whose transport is past its high-water mark — the
        slowest mirror paces the stream — or None when there is none."""
        self._flush("dry")
        self.subfan.flush()
        backed_up = [conn.cork for conn in self._live if conn.cork.backed_up]
        return self._drain(backed_up) if backed_up else None

    @staticmethod
    async def _drain(corks: List[AdaptiveFlusher]) -> None:
        for cork in corks:
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
        """Close the listener and abort every link still open
        (idempotent, so error-path ``finally`` blocks can call it
        unconditionally)."""
        if self._listener.serving:
            self.stats.frames_shared += self.shared.frames_shared
            self.stats.shared_encodes_saved += self.shared.encodes_saved
            self.subfan.collect_shared_stats()
        await self._listener.close()


#: What a role's step returns: None when the item is dealt with, or
#: what the link must await before it steps the next one.
_Waiting = Optional[Awaitable[None]]


class _Role:
    """What a :class:`_Link` serves: :meth:`step` takes one item read
    (``None``: the peer's stream ended), :meth:`closed` runs once the
    link is closed, whatever closed it.  A ``fatal`` role's failure is
    its site's; any other's closes the link and nothing else."""

    fatal = False

    def step(self, item: Any) -> _Waiting:
        raise NotImplementedError

    def closed(self) -> None:
        """The link is closed: let go of what the connection held."""


class _Source(_Role):
    """Central's source connection (the ingress router's event stream).

    Each run a read completed is fed to the site in the read's own
    callback (:meth:`AsyncCentralSite.on_input`): one decoded read, the
    run in hand and the central inbox are all that sit between this
    socket and central's apply.  Handoff tombstones and transfer
    installs ride the same connection (their ordering against events is
    the handoff protocol's correctness argument).  The shard's transfer
    *replies* go back on this socket, each written by the main unit's
    ``shard_out`` sink in the turn that extracts the flight; the
    protocol bounds them to one per tombstone the router sent.  The end
    of the stream — EOS, or the source gone — is central's EOS.
    """

    fatal = True

    def __init__(self, central: NetCentral, link: "_Link"):
        self.central = central
        self.link = link
        encoder = WireEncoder()
        stats = central.stats

        def reply(transfer: ShardTransfer) -> None:
            if not link.is_closing():
                _reply(link, stats, encoder.encode_message, transfer)

        central.site.main.shard_out = reply

    def step(self, item: Any) -> Optional[Awaitable[None]]:
        central = self.central
        if item is None:
            return self._end()
        if type(item) is not list and not isinstance(item, ShardControl):
            return None
        if not central.mirrors_connected.is_set():
            return central.feed(item)
        return central.site.on_input(item)

    async def _end(self) -> None:
        await self.central.feed(EOS)
        # by the time the router sends EOS it has received every
        # transfer reply (it only closes the stream when no handoff is
        # pending), so nothing is owed on this socket any more
        self.link.close()


class _Downlink(_Role):
    """Central's connection to one mirror: the mirrored stream out
    through the connection's cork, votes in, each counted in the
    callback that reads it (:meth:`AsyncCentralSite.on_vote`).  The end
    of the mirror's stream before central's own EOS is the mirror's
    death: it leaves agreement (:meth:`AsyncCentralSite.on_mirror_lost`)
    and is not re-admitted mid-stream."""

    fatal = True

    def __init__(self, central: NetCentral, link: "_Link", name: str):
        self.central = central
        self.link = link
        conn = self.conn = _MirrorConnection(name, link, central.stats)
        if central._ended:  # the stream is over: EOS at once, no fan-out
            central.stats.frames_sent += 1
            conn.send(conn.encoder.encode_eos())
            conn.cork.flush("control")
        else:
            central._attach(conn)

    def step(self, msg: Any) -> _Waiting:
        if msg is None:
            self.link.close()
            if not self.central._ended:
                self.central.site.on_mirror_lost(self.conn.name)
            return None
        self.central.site.on_vote(msg)
        return None

    def closed(self) -> None:
        central, conn = self.central, self.conn
        if conn in central._live:  # stop the fan-out to this one
            central._live.remove(conn)
            if central.fault_controller is None:
                central.shared.detach(conn.name)
        conn.close()
        conn.done.set()


def _walk(walker: FrameWalker, stats: WireStats, data: Any) -> List[Any]:
    """Split and decode what one read brought in one walk
    (:meth:`FrameWalker.walk <repro.wire.FrameWalker.walk>`: runs of
    events, other messages in place, RESETs applied and never
    delivered), counting frames, bytes and decode time."""
    decoder = walker.decoder
    frames, received = decoder.frames_in, decoder.bytes_in
    t0 = time.perf_counter_ns()
    items = walker.walk(data)
    stats.decode_ns += time.perf_counter_ns() - t0
    stats.frames_received += decoder.frames_in - frames
    stats.bytes_received += decoder.bytes_in - received
    return items


class _Link(asyncio.BufferedProtocol):
    """One connection of a site, served in its transport's callbacks.

    Each read lands in a :data:`READ_BYTES` buffer; the read callback
    hands it to the connection's :class:`~repro.wire.FrameWalker`, which
    splits and decodes it in one call into runs of at most
    :data:`~repro.rt.sites.MAX_RUN_EVENTS` events and the other
    messages in place (:func:`_walk`), and steps each item, in order,
    through its ``role``, which does its work there and then.  A step
    that must wait returns the awaitable: the link pauses reading,
    awaits it in a task under the site's supervisor, steps what is left
    in ``backlog`` and resumes reading.
    The end of the peer's stream — an EOS frame, a close or a reset —
    is stepped once, as ``None``, after everything read before it.  A
    failure while reading or stepping fails the site's run through its
    supervisor when the role is fatal, and closes this link either way;
    nothing reaches the loop's exception handler.  A read that breaks
    on a malformed frame first steps what it decoded before it, so a
    HELLO in the same read picks the role the failure is judged under.

    The link is also its connection's writer, with the part of the
    ``StreamWriter`` surface the site code uses: ``write`` /
    ``writelines`` (dropped once the connection is closing),
    ``is_closing``, ``transport`` and :meth:`drain`, which waits for the
    transport's ``resume_writing``.
    """

    def __init__(
        self, stats: WireStats, tasks: TaskSupervisor,
        home: Optional[Set["_Link"]] = None,
    ):
        self.stats = stats
        self.tasks = tasks
        self.role: _Role = _Role()
        self.transport: Any = None
        #: items read and not yet stepped
        self.backlog: Deque[Any] = deque()
        self._buffer = memoryview(bytearray(READ_BYTES))
        self._walker = FrameWalker(MAX_RUN_EVENTS)
        #: the listener's open links (None: a dialled link)
        self._home = home
        self._waiting: Optional[asyncio.Task] = None
        self._ended = False  # the end of the peer's stream was stepped
        self._lost = False  # the connection is gone
        self._closed = False  # closed here: nothing more is stepped
        self._write_paused = False
        self._resumed: Optional[asyncio.Future] = None

    # -- the transport's callbacks ---------------------------------------
    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        if self._home is not None:
            self._home.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        try:
            self.backlog.extend(
                _walk(self._walker, self.stats, self._buffer[:nbytes])
            )
        except Exception as exc:  # a malformed frame, say
            self._read_failed(exc)
            return
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._lost = True
        if self._home is not None:
            self._home.discard(self)
        self._wake()
        if self._closed:
            return
        self.backlog.append(None)
        if self._waiting is None:
            self._pump()

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake()

    # -- stepping ----------------------------------------------------------
    def _step(self, item: Any) -> _Waiting:
        if self._ended:
            return None  # nothing counts after the end of the stream
        if item is None or item == EOS:
            self._ended = True
            item = None
        return self.role.step(item)

    def _pump(self) -> None:
        """Step the backlog until it is empty or a step must wait."""
        backlog = self.backlog
        try:
            while backlog and not self._closed:
                waiting = self._step(backlog.popleft())
                if waiting is not None:
                    self.transport.pause_reading()
                    task = self._waiting = self.tasks.spawn(self._wait(waiting))
                    task.add_done_callback(partial(_discard, waiting))
                    return
        except Exception as exc:
            self._fail(exc)
            return
        if self._lost:
            self.close()

    async def _wait(self, waiting: Awaitable[None]) -> None:
        """Await what a step handed back, then step the rest of the
        backlog, awaiting in turn, and read again."""
        backlog = self.backlog
        try:
            await waiting
            while backlog and not self._closed:
                waiting = self._step(backlog.popleft())
                if waiting is not None:
                    await waiting
        except asyncio.CancelledError:
            self.abort()  # the site is winding down
            raise
        except Exception as exc:
            self._fail(exc)
        finally:
            self._waiting = None
        if self._lost:
            self.close()
        elif not self._closed:
            self.transport.resume_reading()

    def _read_failed(self, exc: Exception) -> None:
        """Step what the read decoded before ``exc`` — a HELLO there
        picks the role the failure is judged under — then fail."""
        self.backlog.extend(getattr(exc, "items", ()))
        self._pump()
        waiting = self._waiting
        if waiting is None:
            self._fail(exc)
        else:
            waiting.add_done_callback(lambda _task: self._fail(exc))

    def _fail(self, exc: Exception) -> None:
        if self.role.fatal:
            self.tasks.fail(exc)
        self.close()

    # -- the writer's side ------------------------------------------------
    def write(self, data: bytes) -> None:
        if not self.is_closing():
            self.transport.write(data)

    def writelines(self, chunks: Iterable[bytes]) -> None:
        if not self.is_closing():
            self.transport.writelines(chunks)

    def is_closing(self) -> bool:
        return self._lost or self.transport.is_closing()

    def drained(self) -> _Waiting:
        """The wait for the transport to take more, when it has paused
        writing; otherwise None."""
        return self.drain() if self._write_paused and not self._lost else None

    async def drain(self) -> None:
        """Until the transport resumes writing, or the connection is gone."""
        if not self._write_paused or self._lost:
            return
        if self._resumed is None:
            self._resumed = asyncio.get_running_loop().create_future()
        await self._resumed

    def _wake(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)

    def close(self) -> None:
        """Close here, after what is written has gone out; nothing more
        is stepped."""
        if self._shut():
            self.transport.close()

    def abort(self) -> None:
        """Close here at once, dropping what is unsent."""
        if self._shut():
            self.transport.abort()

    def _shut(self) -> bool:
        if self._closed:
            return False
        self._closed = True
        task = self._waiting
        if task is not None and task is not asyncio.current_task():
            task.cancel()
        self.role.closed()
        return True


def _discard(waiting: Awaitable[None], _task: asyncio.Task) -> None:
    """A link's wait is over: close the coroutine it awaited, which is
    a no-op unless the wait was cancelled before it could start."""
    finish = getattr(waiting, "close", None)
    if finish is not None:
        finish()


class _Hello(_Role):
    """A listener link's first role: read HELLO, then re-point the link
    to the role ``dispatch`` returns for it (None: hang up).  A peer
    that says nothing for :data:`HELLO_TIMEOUT_S` is hung up on — a
    listener holds no task for it."""

    def __init__(
        self, link: _Link,
        dispatch: Callable[[_Link, Hello], Optional[_Role]],
    ):
        self.link = link
        self.dispatch = dispatch
        self.deadline = asyncio.get_running_loop().call_later(
            HELLO_TIMEOUT_S, link.close
        )

    def step(self, msg: Any) -> _Waiting:
        self.deadline.cancel()
        role = self.dispatch(self.link, msg) if isinstance(msg, Hello) else None
        if role is None:
            self.link.close()
        else:
            self.link.role = role
        return None

    def closed(self) -> None:
        self.deadline.cancel()


class _Listener:
    """A listening socket that serves each accepted connection as a
    :class:`_Link`, starting with :class:`_Hello`; :meth:`close` aborts
    the links still open."""

    def __init__(
        self, stats: WireStats, tasks: TaskSupervisor,
        dispatch: Callable[[_Link, Hello], Optional[_Role]],
    ):
        self._stats = stats
        self._tasks = tasks
        self._dispatch = dispatch
        self._server: Optional[asyncio.base_events.Server] = None
        #: the accepted links not yet closed
        self.links: Set[_Link] = set()

    @property
    def serving(self) -> bool:
        return self._server is not None

    async def start(self, host: str, port: int) -> int:
        """Bind ``host:port`` (``0``: any free port); returns the port."""

        def accept() -> _Link:
            link = _Link(self._stats, self._tasks, home=self.links)
            link.role = _Hello(link, self._dispatch)
            return link

        self._server = await asyncio.get_running_loop().create_server(
            accept, host, port
        )
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop listening and abort every open link (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        waits = [link._waiting for link in self.links if link._waiting is not None]
        for link in list(self.links):
            link.abort()
        if server is not None:
            await server.wait_closed()
        await asyncio.gather(*waits, return_exceptions=True)


class _FrameReader:
    """Decode messages from one dialled socket stream, a chunk at a time.

    The awaiting side of a connection — a thin client, a subscriber, the
    ingress router — reads through this, with the same
    :class:`~repro.wire.FrameWalker` a link reads through: events come
    as runs (lists), other messages in place.  A single TCP read can
    complete many frames (under load one read carries hundreds of
    events): :meth:`next_chunk` hands out everything a read completed,
    :meth:`next_message` the same items one by one; both draw on one
    queue, so no frame is dropped between them.
    """

    __slots__ = ("_reader", "_walker", "_stats", "_pending")

    def __init__(self, reader: asyncio.StreamReader, stats: WireStats) -> None:
        self._reader = reader
        self._walker = FrameWalker(MAX_RUN_EVENTS)
        self._stats = stats
        self._pending: deque = deque()

    async def next_chunk(self) -> Optional[List[Any]]:
        """Return every item pending or, failing that, completed by the
        next read; None once the peer closed or reset."""
        pending = self._pending
        while not pending:
            try:
                data = await self._reader.read(READ_BYTES)
            except (ConnectionResetError, BrokenPipeError):
                # a peer that died mid-stream: it reset the connection,
                # or a write to it failed first
                data = b""
            if not data:
                return None
            pending.extend(_walk(self._walker, self._stats, data))
        chunk = list(pending)
        pending.clear()
        return chunk

    async def next_message(self) -> Any:
        """Return the next item — a run of events or a message; None
        once the peer closed."""
        if not self._pending:
            self._pending.extend(await self.next_chunk() or ())
        return self._pending.popleft() if self._pending else None


def _reply(
    writer: _Link, stats: WireStats,
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


class _Client(_Role):
    """A thin client's connection: each REQUEST is answered in the
    callback that reads it.  Requests read and not yet answered count
    into the main unit's pending gauge (the monitored variable votes
    carry); between two of them the link yields, so a pipelined burst
    cannot hold the event path up."""

    def __init__(self, link: _Link, main: Any, stats: WireStats):
        self.link = link
        self.main = main
        self.stats = stats
        self.encoder = WireEncoder()
        #: this connection's share of the pending gauge
        self.owed = 0

    def step(self, msg: Any) -> _Waiting:
        if msg is None:
            self.link.close()
            return None
        if not isinstance(msg, InitStateRequest):
            return None
        if self.main.request_service_delay > 0:
            self._owe(1 + len(self.link.backlog))
            return self._answer_later(msg)
        return self._answer(msg)

    def _answer(self, request: InitStateRequest) -> _Waiting:
        main = self.main
        now = main.clock()
        response = main.respond(request, main.serve(request, now), now)
        main.responses.append(response)
        self._owe(len(self.link.backlog))
        _reply(self.link, self.stats, self.encoder.encode_response, response)
        waiting = self.link.drained()
        if waiting is None and self.owed:
            waiting = asyncio.sleep(0)
        return waiting

    async def _answer_later(self, request: InitStateRequest) -> None:
        await asyncio.sleep(self.main.request_service_delay)
        await _settled(self._answer(request))

    def _owe(self, owed: int) -> None:
        self.main._pending_requests += owed - self.owed
        self.owed = owed

    def closed(self) -> None:
        self._owe(0)


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

    def __init__(self, conn_id: str, name: str, writer: _Link):
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
    def attach(self, name: str, writer: _Link) -> _SubscriberConn:
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
        """Push ``payload``'s matched events — an event, an
        :class:`EventBatch` or a run (a list) — to subscriber groups.

        One registry call yields every event's matched clients
        (:meth:`SubscriptionRegistry.match_clients_batch`); their groups
        each encode their matched subset once.  The frames wait for
        :meth:`flush`.
        """
        if not self._groups:
            return
        if isinstance(payload, EventBatch):
            events: Sequence[UpdateEvent] = payload.events
        elif type(payload) is list:
            events = payload
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


class _Subscriber(_Role):
    """One subscriber connection: SUBSCRIBE/UNSUBSCRIBE frames in, each
    applied in the callback that reads it; fenced SUB_ACKs plus the
    matched event stream out, the acks of one read in one write."""

    def __init__(self, link: _Link, fanout: SubscriptionFanout, name: str):
        self.link = link
        self.fanout = fanout
        self.conn = fanout.attach(name, link)

    def step(self, msg: Any) -> _Waiting:
        if msg is None:
            self.link.close()
            return None
        if isinstance(msg, (Subscribe, Unsubscribe)):
            self.fanout.apply(self.conn, msg)
        if self.link.backlog:
            return None
        self.fanout.flush()
        return self.link.drained()

    def closed(self) -> None:
        self.fanout.drop(self.conn)


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
        if msg is None or msg == EOS:
            break
        if isinstance(msg, SubAck):
            acks += 1
            if ready is not None and acks >= len(predicates):
                ready.set()
        elif type(msg) is list:
            events.extend(msg)
    writer.close()
    if ready is not None:
        ready.set()  # never leave the caller gated on a dead connection
    return {"client_id": client_id, "acks": acks, "events": events}


class NetMirror:
    """Mirror site connected to the central server over TCP.

    A mirror is its uplink to central plus its main unit's event loop.
    The uplink (:class:`_Uplink`) takes the central connection's stream
    in the callback that reads it, in stream order: each run of events
    is backed up (:meth:`AsyncMirrorSite.on_run`), matched against the
    subscribers once and put on the main unit's inbox once; a handoff
    control frame is queued in place; a CHKPT's vote is written back on
    the same socket, and a COMMIT is applied there
    (:meth:`AsyncMirrorSite.on_control`).  The event loop applies what
    the inbox holds, a budget at a time, so client requests interleave
    with applies.  Also listens on its own port for thin clients and
    subscribers.
    """

    def __init__(self, name: str, config: Optional[MirrorConfig] = None):
        self.name = name
        self.config = config if config is not None else simple_mirroring()
        self.stats = WireStats()
        self.site = AsyncMirrorSite(name, config=self.config)
        if self.config.check_invariants:
            self.site.monitor = InvariantMonitor()
        #: the uplink's put side of the main unit's inbox (the same
        #: queue), counting how often the inbox was full
        self.data_sub = AsyncSubscription(f"{name}.data", self.site.main.inbox)
        #: inert, reads 0 / 0: nothing queues control on a mirror.
        #: benchmarks/e2e/server.py's ``_counters`` still totals it, until
        #: ROADMAP 1(e) gives that reader a stats() mapping
        self.ctrl_sub = SimpleNamespace(high_watermark=0, blocked_puts=0)
        self.port: Optional[int] = None
        #: what :meth:`run` supervises: the event loop, the links' waits
        #: and the uplink's read callbacks
        self._tasks = TaskSupervisor()
        #: subscription fan-out over this mirror's client port — the
        #: "mirror as content broker" half of the story
        self.subfan = SubscriptionFanout(self.stats)
        self._listener = _Listener(self.stats, self._tasks, self._dispatch)

    async def serve_clients(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open this mirror's own client-facing port.

        The port serves two roles, told apart by the HELLO preamble:
        thin clients asking for initial state (REQUEST/RESPONSE) and
        subscribers registering predicates for the matched push stream.
        """
        self.port = await self._listener.start(host, port)
        return self.port

    def _dispatch(self, link: _Link, hello: Hello) -> Optional[_Role]:
        if hello.role == "client":
            return _Client(link, self.site.main, self.stats)
        if hello.role == "subscriber":
            return _Subscriber(link, self.subfan, hello.name)
        return None

    async def run(self, host: str, port: int) -> None:
        """Connect to central and run the mirror site to completion: its
        main unit's event loop, supervised with the uplink — the first
        failure ends the run with its exception.  The end of central's
        stream (its EOS, or central gone) ends the inbox's stream; once
        the event loop has applied it, the mirror says EOS."""
        tasks = self._tasks
        link = _Link(self.stats, tasks)
        uplink = link.role = _Uplink(self, link)
        # the uplink's encoder writes HELLO, the votes and EOS
        _, _, uplink.encoder = await _dial(
            host, port, Hello("mirror", self.name), self.stats, link
        )
        try:
            await tasks.guard(self.site.main.event_loop())
            frame = uplink.encoder.encode_eos()
            self.stats.frames_sent += 1
            self.stats.bytes_sent += len(frame)
            link.write(frame)
            await link.drain()
        finally:
            link.close()  # first: a second cancellation may cut the rest short
            await tasks.cancel()
            await self.close()

    async def close(self) -> None:
        """Close the client-facing listener and its links (idempotent)."""
        if self._listener.serving:
            self.subfan.collect_shared_stats()
        await self._listener.close()


class _Uplink(_Role):
    """A mirror's connection to central, stepped in stream order: a run
    is backed up, matched against the subscribers and put on the inbox;
    a handoff control frame goes to the inbox in place; a CHKPT's vote
    is written back and a COMMIT applied.  Subscribers get what a read
    matched in one write each — when the read is done, or before a step
    waits.  The end of central's stream ends the subscribers' and the
    inbox's."""

    fatal = True

    def __init__(self, mirror: NetMirror, link: _Link):
        self.mirror = mirror
        self.link = link
        self.encoder = WireEncoder()

    def step(self, item: Any) -> _Waiting:
        mirror = self.mirror
        if type(item) is list:
            mirror.site.on_run(item)
            payload = item[0] if len(item) == 1 else EventBatch(item)
            mirror.subfan.fanout(payload)
            waiting = mirror.data_sub.offer(payload)
        elif isinstance(item, ShardControl):
            # handoff control frames take the data path: their whole
            # contract is ordering against the event stream
            waiting = mirror.data_sub.offer(item)
        elif item is None:
            mirror.subfan.eos()
            return mirror.data_sub.offer(EOS)
        else:
            vote = mirror.site.on_control(item)
            waiting = None
            if vote is not None:
                _reply(self.link, mirror.stats, self.encoder.encode_message, vote)
                waiting = self.link.drained()
        if waiting is not None or not self.link.backlog:
            mirror.subfan.flush()
        return waiting


async def _dial(
    host: str, port: int, hello: Hello, stats: WireStats,
    link: Optional[_Link] = None,
) -> Tuple[Any, Any, WireEncoder]:
    """Open a connection to ``host:port`` and say ``hello`` on it;
    returns the connection's reader, writer and encoder: a
    :class:`_FrameReader` and a ``StreamWriter``, or, when the caller
    serves the connection with its own ``link``, that link twice.  A
    peer that is not listening yet is dialled again for
    :data:`DIAL_RETRY_S` seconds: in the multiprocess shapes it may
    still be starting up."""
    deadline = time.monotonic() + DIAL_RETRY_S
    reader = writer = None
    while True:
        try:
            if link is None:
                reader, writer = await asyncio.open_connection(host, port)
            else:
                await asyncio.get_running_loop().create_connection(
                    lambda: link, host, port
                )
                reader = writer = link
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
    if link is None:
        reader = _FrameReader(reader, stats)
    return reader, writer, encoder


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
    summary = NetRunSummary(
        events_in=len(script),
        events_mirrored=site.mirrored_events,
        events_processed_central=site.main.ede.processed,
        updates_distributed=len(site.main.updates),
        requests_served=sum(len(m.responses) for m in mains),
        checkpoint_rounds=site.coordinator.rounds_started,
        checkpoint_commits=site.coordinator.rounds_committed,
        adaptations=site.adaptation.adaptations if site.adaptation else 0,
        reversions=site.adaptation.reversions if site.adaptation else 0,
        mirrors_lost=site.mirrors_lost,
        adaptation_log=list(site.adaptation_log),
        replica_digests=cluster.replica_digests(),
        wall_seconds=time.monotonic() - t0,
        mean_update_delay=site.main.update_delays.mean(),
        channel_high_watermark=max((s.high_watermark for s in subs), default=0),
        channel_blocked_puts=sum(s.blocked_puts for s in subs),
        wire=stats,
        subscriber_results=subscriber_results,
    )
    sum_accounting(summary, mains)
    return summary


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
