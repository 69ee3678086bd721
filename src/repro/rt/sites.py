"""Live (asyncio) central and mirror sites.

Each site runs the same unit split as the simulation backend — an
auxiliary unit (receiving/sending/control tasks) and a main unit (EDE +
request service) — as asyncio tasks.  All protocol logic is the *same
objects* the simulation uses: :class:`~repro.core.rules.RuleEngine`,
:class:`~repro.core.checkpoint.CheckpointCoordinator` /
:class:`MainUnitCheckpointer`, :class:`~repro.core.queues.BackupQueue`
and :class:`~repro.core.adaptation.AdaptationController`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..core.adaptation import (
    MONITOR_BACKUP_QUEUE,
    MONITOR_PENDING_REQUESTS,
    MONITOR_READY_QUEUE,
    AdaptationController,
)
from ..core.checkpoint import (
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from ..core.config import MirrorConfig
from ..core.events import EventBatch, UpdateEvent, VectorTimestamp
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.ede import EventDerivationEngine
from ..core.queues import BackupQueue
from ..shard.handoff import (
    ShardControl,
    ShardHandoff,
    ShardTransfer,
    extract_transfer,
    install_transfer,
)
from .channels import AsyncChannel, AsyncSubscription

__all__ = [
    "EOS",
    "RecentWindow",
    "AsyncMainUnit",
    "AsyncCentralSite",
    "AsyncMirrorSite",
]

EOS = "__end_of_stream__"

# -- memory budget ---------------------------------------------------------
# Every queue is bounded and a full queue blocks its producer, so a burst
# is held in the *sender's* TCP buffer, not in this heap.  The data path,
#
#   source reader -> data_in -> ready -> {inbox, uplink} -> outbound
#     -> socket -> mirror reader -> data_sub -> mirror inbox
#
# has no cycle: each queue is drained by a task that blocks only on
# queues to its right, and the ends (a main unit's event loop, the
# kernel) block on nothing.  The control path does loop (CHKPT down,
# CHKPT_REP up, COMMIT down), but the protocol sets its volume, not the
# load — one round collects at a time — so its queues never fill.
# (rt/net.py declares the socket layer's share: uplink, outbound, data_sub.)

#: ``data_in`` holds chunks of events (one TCP read's worth, at most
#: :data:`MAX_RUN_EVENTS` each).  Full: the source connection's reader
#: blocks and stops reading — the source sees TCP back-pressure.
#: Drained by ``receiving_task``.
DATA_IN_BOUND = 8
#: ``ready`` holds stamped events (the paper's ready queue, a monitored
#: variable).  Full: ``receiving_task`` blocks.  Drained by ``sending_task``.
READY_BOUND = 64
#: ``main.inbox`` of the central site holds single events (or one batch
#: per mirrored batch).  Full: ``sending_task`` blocks.  Drained by
#: ``event_loop``.  A mirror's holds runs of at most
#: :data:`MAX_RUN_EVENTS`; full: its ``receiving_task`` blocks, then
#: ``data_sub`` fills and the mirror stops reading its socket.
CENTRAL_INBOX_BOUND = 256
MIRROR_INBOX_BOUND = 8
#: ``main.requests`` holds in-process initial-state requests.  Full: the
#: request driver blocks.  Drained by ``request_loop``.
REQUESTS_BOUND = 256
#: ``ctrl_in`` / ``reply_to`` hold checkpoint votes on their way to the
#: coordinator: at most one per site per round in flight.
CONTROL_BOUND = 256
#: Most events one queue item carries over TCP.
MAX_RUN_EVENTS = 256
#: Events ``event_loop`` applies before it yields to the other tasks.
EVENT_LOOP_BUDGET = 512


class RecentWindow:
    """What a site keeps of a series that grows with uptime: the count,
    the running total (of a numeric series, see :meth:`add`) and the
    last 256 items.  ``len()`` is the count ever appended; indexing is
    by position in the whole series, for items still in the window."""

    __slots__ = ("count", "total", "_recent")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._recent: Deque[Any] = deque(maxlen=256)

    def append(self, item: Any) -> None:
        self.count += 1
        self._recent.append(item)

    def add(self, value: float) -> None:
        """:meth:`append` a number, keeping the running total."""
        self.total += value
        self.append(value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> Any:
        offset = (index + self.count if index < 0 else index) - self.count
        if not -len(self._recent) <= offset < 0:
            raise IndexError(f"item {index} of {self.count} is not retained")
        return self._recent[offset]


class AsyncMainUnit:
    """EDE host + request service for one live site."""

    def __init__(
        self,
        site: str,
        clock: Callable[[], float] = time.monotonic,
        request_service_delay: float = 0.0,
        engine_factory: Optional[Callable[[], Any]] = None,
        inbox_bound: int = CENTRAL_INBOX_BOUND,
    ):
        self.site = site
        self.clock = clock
        #: wall-clock seconds each initial-state request takes to serve
        #: (stands in for the snapshot-build CPU cost the simulation
        #: backend models explicitly)
        self.request_service_delay = request_service_delay
        #: business logic: anything with process(event) -> outputs and
        #: state_digest(); defaults to the airline EDE.  Engines exposing
        #: .state.snapshot() serve real snapshots; others get a stub.
        self.ede = engine_factory() if engine_factory is not None else EventDerivationEngine()
        self.checkpointer = MainUnitCheckpointer(site)
        self.inbox: asyncio.Queue = asyncio.Queue(maxsize=inbox_bound)
        self.requests: asyncio.Queue = asyncio.Queue(maxsize=REQUESTS_BOUND)
        #: distributed updates, their delays (seconds, with the running
        #: total) and served responses: counted, not retained
        self.updates = RecentWindow()
        self.update_delays = RecentWindow()
        self.responses = RecentWindow()
        #: requests in service: raised by whoever took the request off
        #: its queue or socket, lowered as each response is built
        self._pending_requests = 0
        self.distribute_updates = False
        #: snapshot fast path (all off = the original serve-from-scratch
        #: behaviour; AsyncMirroredServer(snapshot_fast_path=True) wires
        #: these on for every site)
        self.coalesce_requests = False
        self.serve_cached_snapshots = False
        self.delta_snapshots = False
        self.delta_fallback_fraction = 0.25
        #: fast-path accounting (mirrors RunMetrics in the sim backend)
        self.snapshot_builds = 0
        self.snapshot_cache_hits = 0
        self.delta_snapshots_served = 0
        self.bytes_saved_by_delta = 0
        #: cross-shard handoff (repro.shard): a central main unit with a
        #: queue here replies to tombstones with transfer frames; mirrors
        #: (and unsharded centrals) leave it None and only apply them
        self.shard_out: Optional[asyncio.Queue] = None
        self.handoffs_out = 0
        self.transfers_in = 0

    def pending_requests(self) -> int:
        """Outstanding request count (queued + in service)."""
        return self.requests.qsize() + self._pending_requests

    async def event_loop(self) -> None:
        """Drain the inbox through the business logic until EOS.

        Accepts whole :class:`EventBatch` items as well as single
        events: batched mirror transports forward a batch as one queue
        item, paying the asyncio hop once per batch instead of once per
        event.  Whatever is already queued is applied back to back; the
        loop yields to the other tasks when the inbox runs dry or after
        :data:`EVENT_LOOP_BUDGET` events, whichever comes first."""
        inbox = self.inbox
        ede = self.ede
        note_processed = self.checkpointer.note_processed
        discard = getattr(ede, "supports_discard", False)
        count_update, time_update = self.updates.append, self.update_delays.add
        clock = self.clock
        applied = 0
        while True:
            item = await inbox.get()
            if item == EOS:
                break
            if isinstance(item, ShardControl):
                # arrives on the same queue as events, so everything
                # enqueued before it has been applied by now
                await self._apply_shard_control(item)
                continue
            events = item.events if isinstance(item, EventBatch) else (item,)
            if self.distribute_updates:
                # nothing on the live path consumes the update *objects*:
                # an engine that can skip building them does, and the
                # input event stands in the recent window for its copy
                for event in events:
                    if discard:
                        outputs = ede.process(event, emit_update=False)
                        outputs.insert(0, event)
                    else:
                        outputs = ede.process(event)
                    note_processed(event.stream, event.seqno)
                    for out in outputs:
                        count_update(out)
                        time_update(clock() - out.entered_at)
            elif discard:
                # outputs are dropped anyway: one fused bulk call skips
                # building per-event update copies and per-event frames;
                # advancing the checkpoint floor directly skips the
                # note_processed wrapper (same in-place advance)
                ede.process_many(
                    events, self.checkpointer.processed_vt.advance
                )
            else:
                for event in events:
                    ede.process(event)
                    note_processed(event.stream, event.seqno)
            applied += len(events)
            if applied >= EVENT_LOOP_BUDGET:
                applied = 0
                await asyncio.sleep(0)  # cooperative yield

    async def _apply_shard_control(self, item: ShardControl) -> None:
        """Apply a handoff tombstone or transfer install in stream order.

        A :class:`ShardHandoff` extracts + removes the flight; when this
        unit has a ``shard_out`` queue (a central shard's main unit) the
        resulting :class:`ShardTransfer` is emitted for the router —
        mirrors just tombstone.  A received transfer installs the
        flight's state ahead of its post-handoff updates.
        """
        if isinstance(item, ShardHandoff):
            transfer = extract_transfer(self.ede, item)
            self.handoffs_out += 1
            if self.shard_out is not None:
                await self.shard_out.put(transfer)
        elif isinstance(item, ShardTransfer):
            install_transfer(self.ede, item)
            self.transfers_in += 1

    async def request_loop(self) -> None:
        """Serve initial-state requests until EOS.

        With ``coalesce_requests`` on, every request already queued when
        one is picked up is drained into the same service batch: the
        snapshot-build delay is paid once for the whole batch instead of
        once per request (the coalescing the simulation backend models
        with shared build events).  All flags off reproduces the
        original serve-from-scratch loop exactly.
        """
        while True:
            request = await self.requests.get()
            if request == EOS:
                break
            batch = [request]
            if self.coalesce_requests:
                while True:
                    try:
                        batch.append(self.requests.get_nowait())
                    except asyncio.QueueEmpty:
                        break
            eos_drained = EOS in batch
            live = [r for r in batch if r != EOS]
            self._pending_requests += len(live)
            state = getattr(self.ede, "state", None)
            if self.request_service_delay > 0:
                if self.serve_cached_snapshots and state is not None:
                    # one build amortised over the batch; a fresh cache
                    # skips the build delay entirely
                    if not state.cache_fresh:
                        await asyncio.sleep(self.request_service_delay)
                else:
                    for _ in live:
                        await asyncio.sleep(self.request_service_delay)
            # the straddle is the point: _pending_requests is a monitor-
            # visible in-service gauge, raised before the service delay
            # and drained per response
            for req in live:
                self.responses.append(self._serve_one(req, state))
                self._pending_requests -= 1  # lint: allow-async-interleaving
            await asyncio.sleep(0)
            if eos_drained:
                break

    def _serve_one(
        self, request: InitStateRequest, state: Any
    ) -> InitStateResponse:
        """Build the response for one request (delta path when enabled
        and the request carries resume capability)."""
        if state is None:
            # engines without a state store (e.g. alternate scoreboard
            # engines) get the stub snapshot, as before
            return InitStateResponse(
                client_id=request.client_id,
                issued_at=request.issued_at,
                served_at=self.clock(),
                snapshot_size=2048,
                served_by=self.site,
            )
        if self.delta_snapshots and getattr(request, "resumable", False):
            builds_before = state.snapshot_builds
            view = state.delta_snapshot(
                self.clock(),
                since_generation=request.resume_generation,
                since_marks=request.resume_as_of,
                max_fraction=self.delta_fallback_fraction,
            )
            if state.snapshot_builds > builds_before:
                self.snapshot_builds += 1
            elif not view.is_delta:
                self.snapshot_cache_hits += 1
            if view.is_delta:
                self.delta_snapshots_served += 1
                self.bytes_saved_by_delta += view.bytes_saved
            return InitStateResponse(
                client_id=request.client_id,
                issued_at=request.issued_at,
                served_at=self.clock(),
                snapshot_size=view.size,
                served_by=self.site,
                generation=view.generation,
                delta=view.is_delta,
                full_size=view.full_size if view.is_delta else view.size,
            )
        builds_before = state.snapshot_builds
        snapshot = state.snapshot(self.clock())
        if state.snapshot_builds > builds_before:
            self.snapshot_builds += 1
        else:
            self.snapshot_cache_hits += 1
        return InitStateResponse(
            client_id=request.client_id,
            issued_at=request.issued_at,
            served_at=self.clock(),
            snapshot_size=snapshot.size,
            served_by=self.site,
            generation=snapshot.generation,
        )


class AsyncCentralSite:
    """Live central site: auxiliary unit + main unit + coordinator."""

    def __init__(
        self,
        config: MirrorConfig,
        mirror_channel: AsyncChannel,
        ctrl_channel: AsyncChannel,
        participants: set,
        adaptation: Optional[AdaptationController] = None,
        clock: Callable[[], float] = time.monotonic,
        site: str = "central",
    ):
        self.config = config
        self.clock = clock
        self.site = site
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        self.adaptation = adaptation
        self.main = AsyncMainUnit(site, clock=clock)
        self.main.distribute_updates = True
        self.data_in: asyncio.Queue = asyncio.Queue(maxsize=DATA_IN_BOUND)
        self.ctrl_in: asyncio.Queue = asyncio.Queue(maxsize=CONTROL_BOUND)
        self.ready: asyncio.Queue = asyncio.Queue(maxsize=READY_BOUND)
        self.backup = BackupQueue()
        self.engine = config.build_engine()
        self.coordinator = CheckpointCoordinator(participants)
        self.clock_vt = VectorTimestamp()
        self.processed_events = 0
        self.mirrored_events = 0
        self.adaptation_log: List[tuple] = []
        self.stream_done = asyncio.Event()

    def apply_config(self, config: MirrorConfig) -> None:
        """Hot-swap the mirroring configuration (status table survives)."""
        self.config = config
        self.engine = config.build_engine(table=self.engine.table)

    def monitor_readings(self) -> Dict[str, float]:
        """Central-site monitored variables."""
        return {
            MONITOR_READY_QUEUE: float(self.ready.qsize()),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main.pending_requests()),
        }

    async def receiving_task(self) -> None:
        """Stamp incoming events and feed the ready queue.

        Accepts either single events or lists of events per queue item:
        a chunked feed pays the ``data_in`` hop once per chunk (the
        stamping itself is identical either way)."""
        while True:
            item = await self.data_in.get()
            if item == EOS:
                await self.ready.put(EOS)
                break
            if isinstance(item, ShardControl):
                # no stamp (control frames carry no vt); queue position
                # alone orders it against the surrounding events
                await self.ready.put(item)
                continue
            events = item if type(item) is list else (item,)
            ready = self.ready
            clock = self.clock
            for event in events:
                self.clock_vt = self.clock_vt.advanced(event.stream, event.seqno)
                stamped = event.stamped(self.clock_vt, clock())
                # a put on a non-full queue never blocks: skip the
                # per-event coroutine when there is room
                if ready.full():
                    await ready.put(stamped)
                else:
                    ready.put_nowait(stamped)

    async def sending_task(self) -> None:
        """fwd() everything; mirror() what the rules pass; checkpoint."""
        while True:
            item = await self.ready.get()
            if item == EOS:
                await self._finish_stream()
                break
            if isinstance(item, ShardControl):
                await self._shard_barrier(item)
                continue
            batch_size = self.config.batch_size
            if batch_size <= 1:
                outs: List[UpdateEvent] = []
                for passed in self.engine.on_receive(item):
                    outs.extend(self.engine.on_send(passed))
                await self.main.inbox.put(item)  # fwd(): EDE sees everything
                await self._mirror(outs)
                self.processed_events += 1
                if self.processed_events % self.config.checkpoint_freq == 0:
                    await self._initiate_checkpoint()
                continue
            # batch path: drain events already waiting on the ready queue
            # (never awaiting more — an empty queue ships what's in hand)
            members = [item]
            eos_seen = False
            pending_ctrl: Optional[ShardControl] = None
            while len(members) < batch_size:
                try:
                    nxt = self.ready.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt == EOS:
                    eos_seen = True
                    break
                if isinstance(nxt, ShardControl):
                    # barrier: ship what's in hand first, then the frame
                    pending_ctrl = nxt
                    break
                members.append(nxt)
            outs = self.engine.forward_many(members)
            drained = len(members)
            # fwd(): the local EDE sees everything, one inbox hop per
            # batch (its event loop unpacks EventBatch items)
            if drained == 1:
                await self.main.inbox.put(item)
            else:
                await self.main.inbox.put(EventBatch(members))
            await self._mirror_batch(outs)
            for _ in range(drained):
                self.processed_events += 1
                if self.processed_events % self.config.checkpoint_freq == 0:
                    await self._initiate_checkpoint()
            if pending_ctrl is not None:
                await self._shard_barrier(pending_ctrl)
            if eos_seen:
                await self._finish_stream()
                break

    async def _shard_barrier(self, ctrl: ShardControl) -> None:
        """Pass a handoff control frame through in strict stream order.

        Both engine stages flush first — a coalescing window could
        otherwise hold a pre-handoff update for the transferring flight
        past its tombstone.  The frame then goes to the local main unit
        *and* to every mirror on the data channel, bypassing mirroring
        rules (control must never be filtered or coalesced) and the
        backup queue (it carries no vector timestamp to trim by).
        """
        for out in self.engine.flush("receive"):
            await self._mirror(self.engine.on_send(out))
        for out in self.engine.flush("send"):
            await self._mirror([out])
        await self.main.inbox.put(ctrl)
        await self.mirror_channel.publish(ctrl)

    async def _finish_stream(self) -> None:
        for out in self.engine.flush("receive"):
            await self._mirror(self.engine.on_send(out))
        for out in self.engine.flush("send"):
            await self._mirror([out])
        # the closing round must run: nothing after it would absorb it
        await self._initiate_checkpoint(final=True)
        await self.main.inbox.put(EOS)
        self.stream_done.set()

    async def _mirror(self, outs: List[UpdateEvent]) -> None:
        for out in outs:
            await self.mirror_channel.publish(out)
            self.backup.append(out)
            self.mirrored_events += 1

    async def _mirror_batch(self, outs: List[UpdateEvent]) -> None:
        if not outs:
            return
        if len(outs) == 1:
            await self._mirror(outs)
            return
        await self.mirror_channel.publish_batch(outs)
        self.backup.extend(outs)
        self.mirrored_events += len(outs)

    async def _initiate_checkpoint(self, final: bool = False) -> None:
        """Every ``checkpoint_freq`` events: start a round, unless the
        previous one is still collecting (it is then left to commit;
        see :meth:`CheckpointCoordinator.initiate_if_idle`)."""
        initiate = (
            self.coordinator.initiate if final
            else self.coordinator.initiate_if_idle
        )
        msg = initiate(self.backup.last_vt())
        if msg is None:
            return
        reply = self.main.checkpointer.on_chkpt(msg, self.monitor_readings())
        commit = self.coordinator.on_reply(reply)
        if commit is not None:
            await self._broadcast_commit(commit)
            return
        await self.ctrl_channel.publish(msg)

    async def control_task(self) -> None:
        """Collect checkpoint votes; broadcast commits."""
        while True:
            msg = await self.ctrl_in.get()
            if msg == EOS:
                break
            if isinstance(msg, ChkptRepMsg):
                commit = self.coordinator.on_reply(msg)
                if commit is not None:
                    await self._broadcast_commit(commit)

    async def _broadcast_commit(self, commit: CommitMsg) -> None:
        if self.adaptation is not None:
            monitored = dict(self.coordinator.monitored_view())
            for index, value in self.monitor_readings().items():
                monitored[index] = max(monitored.get(index, 0.0), value)
            command = self.adaptation.evaluate(monitored)
            if command is not None:
                commit = commit.with_adapt(command)
                self.apply_config(command.config)
                self.adaptation_log.append(
                    (self.clock(), command.action, command.config.function_name)
                )
        self.backup.trim(self.main.checkpointer.on_commit(commit))
        await self.ctrl_channel.publish(commit)


class AsyncMirrorSite:
    """Live mirror site: receive mirrored events, serve requests,
    answer checkpoint control traffic."""

    def __init__(
        self,
        site: str,
        data_in: AsyncSubscription,
        ctrl_in: AsyncSubscription,
        reply_to: asyncio.Queue,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.site = site
        self.clock = clock
        self.data_in = data_in
        self.ctrl_in = ctrl_in
        self.reply_to = reply_to
        self.main = AsyncMainUnit(
            site, clock=clock, inbox_bound=MIRROR_INBOX_BOUND
        )
        self.backup = BackupQueue()
        self.applied_config: Optional[MirrorConfig] = None
        self._applied_adapt_seq = 0
        self.stopped = asyncio.Event()

    def monitor_readings(self) -> Dict[str, float]:
        """Mirror-site monitored variables (piggybacked on votes)."""
        return {
            MONITOR_READY_QUEUE: float(self.data_in.level()),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main.pending_requests()),
        }

    async def receiving_task(self) -> None:
        """Back up and forward mirrored events to the local main unit."""
        while True:
            event = await self.data_in.get()
            if event == EOS:
                await self.main.inbox.put(EOS)
                break
            if isinstance(event, ShardControl):
                # ordered passthrough: no backup (nothing to trim by),
                # no stamping — the main unit applies it in-place
                await self.main.inbox.put(event)
                continue
            if isinstance(event, EventBatch):
                self.backup.extend(event.events)
                # forward the batch whole: one inbox hop per batch (the
                # event loop unpacks it)
                await self.main.inbox.put(event)
                continue
            self.backup.append(event)
            await self.main.inbox.put(event)

    async def control_task(self) -> None:
        """Answer CHKPT proposals; apply COMMITs and adaptations."""
        while True:
            msg = await self.ctrl_in.get()
            if msg == EOS:
                break
            if isinstance(msg, ChkptMsg):
                reply = self.main.checkpointer.on_chkpt(
                    msg, self.monitor_readings()
                )
                await self.reply_to.put(reply)
            elif isinstance(msg, CommitMsg):
                if msg.adapt is not None and msg.adapt.seq > self._applied_adapt_seq:
                    self._applied_adapt_seq = msg.adapt.seq
                    self.applied_config = msg.adapt.config
                self.backup.trim(self.main.checkpointer.on_commit(msg))
