"""Live (asyncio) central and mirror sites.

Each site keeps the simulation backend's unit split — an auxiliary unit
and a main unit (EDE + request service).  An auxiliary unit has no task
of its own: it is what a connection's read callback calls in stream
order, feeding the main unit's event loop — on central,
:meth:`AsyncCentralSite.on_input` per source item (it returns what the
caller must await, or None) and :meth:`~AsyncCentralSite.on_vote` per
vote.  Every decision is the simulation's own: the sites subclass the
cores of :mod:`repro.core.sitecore` (:class:`AsyncCentralSite` a
:class:`~repro.core.sitecore.CentralCore`, :class:`AsyncMirrorSite` a
:class:`~repro.core.sitecore.MirrorCore`) and publish what they return,
and :class:`AsyncMainUnit` is the inbox loop around a
:class:`~repro.core.maincore.MainCore`, configured with every config
its site installs.  :mod:`repro.rt.net` serves these sites over TCP.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Awaitable, Callable, Deque, Dict, List, Optional

from ..core.adaptation import (
    MONITOR_BACKUP_QUEUE,
    MONITOR_PENDING_REQUESTS,
    MONITOR_READY_QUEUE,
    AdaptationController,
)
from ..core.checkpoint import ChkptMsg, ChkptRepMsg, CommitMsg
from ..core.config import MirrorConfig
from ..core.events import EOS, EventBatch, UpdateEvent
from ..core.invariants import InvariantMonitor
from ..core.maincore import MainCore
from ..core.sitecore import CentralCore, MirrorCore
from ..ois.ede import EventDerivationEngine
from ..shard.handoff import ShardControl
from .channels import AsyncSubscription, Channel

__all__ = [
    "EOS",
    "RecentWindow",
    "AsyncMainUnit",
    "AsyncCentralSite",
    "AsyncMirrorSite",
]

# -- memory budget ---------------------------------------------------------
# Every queue is bounded and a full queue blocks its producer, so a burst
# is held in the *sender's* TCP buffer, not in this heap.  Each queue
# item is a *run* — the events one TCP read completed, at most
# MAX_RUN_EVENTS of them — so a queue hop is paid per run, not per
# event.  The data path,
#
#   source link -> inbox
#               -> cork -> transport -> socket
#     -> mirror uplink -> mirror inbox
#
# has no cycle: each link waits only on what is to its right, and the
# ends (a main unit's event loop, the kernel) wait on nothing.  In the
# read callback that takes a run, the source link stamps it, queues it,
# writes it to every mirror's transport and then waits on any transport
# past its high-water mark — so a transport holds at most its mark plus
# one run, and the slowest mirror paces the stream.  The control path
# does loop (CHKPT down, CHKPT_REP up, COMMIT down), but the protocol
# sets its volume, not the load — one round collects at a time — and no
# queue holds it: a mirror writes its vote in the callback that takes
# the CHKPT, and central counts it in the callback that reads it.
# (rt/net.py declares the socket layer's share.)

#: A main unit's inbox holds runs (one EventBatch each), put by a
#: connection's link and drained by ``event_loop``.  Full: the link
#: pauses reading its socket — on central the source sees TCP
#: back-pressure, with at most 2 * MAX_RUN_EVENTS = 256 events (the
#: inbox and the run in hand) past its socket.
CENTRAL_INBOX_BOUND = 1
MIRROR_INBOX_BOUND = 8
#: Most events one queue item carries over TCP.
MAX_RUN_EVENTS = 128
#: Events ``event_loop`` applies before it yields to the other tasks.
EVENT_LOOP_BUDGET = 512


async def _settled(waiting: Optional[Awaitable[None]]) -> None:
    """Await ``waiting`` unless there is nothing to wait for."""
    if waiting is not None:
        await waiting


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

    def extend(self, items: List[Any]) -> None:
        """:meth:`append` each of ``items``."""
        self.count += len(items)
        self._recent.extend(items)

    def add_all(self, values: List[float]) -> None:
        """:meth:`add` each of ``values``."""
        self.total += sum(values)
        self.extend(values)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> Any:
        offset = (index + self.count if index < 0 else index) - self.count
        if not -len(self._recent) <= offset < 0:
            raise IndexError(f"item {index} of {self.count} is not retained")
        return self._recent[offset]


class AsyncMainUnit(MainCore):
    """A live site's main unit: its inbox loop around the
    :class:`MainCore`.  Requests are answered by the connection that
    reads them (``rt.net._Client``) through :meth:`MainCore.serve`."""

    def __init__(
        self,
        site: str,
        clock: Callable[[], float] = time.monotonic,
        inbox_bound: int = CENTRAL_INBOX_BOUND,
        config: Optional[MirrorConfig] = None,
    ):
        super().__init__(site, EventDerivationEngine(), config)
        self.clock = clock
        #: wall-clock seconds each initial-state request takes to serve
        #: (stands in for the snapshot-build CPU cost the simulation
        #: backend models explicitly)
        self.request_service_delay = 0.0
        self.inbox: asyncio.Queue = asyncio.Queue(maxsize=inbox_bound)
        #: distributed updates, their delays (seconds, with the running
        #: total) and served responses: counted, not retained
        self.updates = RecentWindow()
        self.update_delays = RecentWindow()
        self.responses = RecentWindow()
        #: requests decoded off a client socket and not yet answered
        #: (the monitored pending-request buffer): raised per chunk,
        #: lowered as each response is built
        self._pending_requests = 0

    async def event_loop(self) -> None:
        """Drain the inbox through the business logic until EOS.

        Accepts whole :class:`EventBatch` items (a run) as well as
        single events, paying the asyncio hop once per item and applying
        each in one :meth:`MainCore.apply_run` call; on the distributing
        site one clock read dates every update of the run.  Whatever is
        already queued is applied back to back; the loop yields to the
        other tasks when the inbox runs dry or after
        :data:`EVENT_LOOP_BUDGET` events, whichever comes first."""
        inbox = self.inbox
        apply_run = self.apply_run
        clock = self.clock
        applied = 0
        while True:
            item = await inbox.get()
            if item == EOS:
                break
            if isinstance(item, ShardControl):
                # arrives on the same queue as events, so everything
                # enqueued before it has been applied by now
                self.shard_control(item)
                continue
            events = item.events if isinstance(item, EventBatch) else (item,)
            outputs = apply_run(events, self.distribute_updates)
            if outputs:
                now = clock()
                self.updates.extend(outputs)
                self.update_delays.add_all([now - out.entered_at for out in outputs])
            applied += len(events)
            if applied >= EVENT_LOOP_BUDGET:
                applied = 0
                await asyncio.sleep(0)  # cooperative yield


class AsyncCentralSite(CentralCore):
    """Live central site: the :class:`CentralCore` driven by its source
    link and its mirrors' links, in front of a main unit."""

    main: AsyncMainUnit

    def __init__(
        self,
        config: MirrorConfig,
        mirror_channel: Channel,
        ctrl_channel: Channel,
        participants: set,
        adaptation: Optional[AdaptationController] = None,
        clock: Callable[[], float] = time.monotonic,
        site: str = "central",
    ):
        main = AsyncMainUnit(site, clock=clock, config=config)
        main.distribute_updates = True
        super().__init__(
            config, participants, main.checkpointer,
            adaptation=adaptation, site=site,
            monitor=InvariantMonitor() if config.check_invariants else None,
            main=main,
        )
        self.clock = clock
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        #: events of the item in hand not yet mirrored (the monitored
        #: ready queue, counted in events as its thresholds are)
        self.ready_events = 0
        self.mirrored_events = 0
        #: mirrors whose stream ended before central's
        self.mirrors_lost = 0
        self.adaptation_log: List[tuple] = []
        #: the put side of the main unit's inbox
        self.to_main = AsyncSubscription(f"{site}.main", self.main.inbox)

    def monitor_readings(self) -> Dict[str, float]:
        """Central-site monitored variables."""
        return {
            MONITOR_READY_QUEUE: float(self.ready_events),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main._pending_requests),
        }

    def on_input(self, item: Any) -> Optional[Awaitable[None]]:
        """Handle one item of the source stream in the turn that reads it.

        A run is stamped whole and goes to the main unit as one item
        (fwd(): the EDE sees everything), then out to the mirrors.
        Returns None when that is all done, or what the caller must
        await before it hands over the next item: the put, when the
        inbox is full (the run is mirrored after it), or the wait on a
        mirror whose transport is past its high-water mark.  A handoff
        control frame passes the shard barrier; EOS ends the stream."""
        if isinstance(item, ShardControl):
            return self._shard_barrier(item)
        if item == EOS:
            return self._finish_stream()
        now = self.clock()
        stamp = self.stamp
        run = [stamp(event, now) for event in item]
        self.ready_events += len(run)
        waiting = self.to_main.offer(EventBatch(run))
        if waiting is not None:
            return self._mirror_after(waiting, run)
        self._mirror_run(run)
        return self.mirror_channel.drain()

    async def _mirror_after(
        self, put: Awaitable[None], run: List[UpdateEvent]
    ) -> None:
        """:meth:`on_input` past a full inbox: the put, then the mirroring."""
        await put
        self._mirror_run(run)
        await _settled(self.mirror_channel.drain())

    def _mirror_run(self, run: List[UpdateEvent]) -> None:
        """Run the rules over ``run`` a slice at a time and publish what
        they pass, initiating a checkpoint every ``checkpoint_freq``
        events.  With ``batch_size`` > 1 a slice is one mirrored batch
        (a checkpoint waits for the batch that crosses its boundary);
        otherwise each passed event travels alone and a slice ends at
        the next checkpoint boundary.  Config and engine are read per
        slice: a commit inside the run may have swapped them."""
        start, end = 0, len(run)
        while start < end:
            freq = self.config.checkpoint_freq
            batch_size = self.config.batch_size
            step = batch_size if batch_size > 1 else freq - self.processed_events % freq
            members = run[start:start + step]
            start += step
            outs = self.engine.forward_many(members)
            if batch_size > 1 and len(outs) > 1:
                self.mirror_channel.publish(EventBatch(outs))
                self.backup.extend(outs)
                self.mirrored_events += len(outs)
            else:
                self._mirror(outs)
            due = self.count_processed(len(members))
            # the rest of the run still waits, as on the paper's queue
            self.ready_events -= len(members)
            for _ in range(due):
                self._initiate_checkpoint()

    def _flush_rules(self) -> None:
        """Mirror what the rules still hold, one event at a time."""
        for out in self.engine.flush("receive"):
            self._mirror(self.engine.on_send(out))
        for out in self.engine.flush("send"):
            self._mirror([out])

    def _mirror(self, outs: List[UpdateEvent]) -> None:
        """Publish ``outs`` as one run, each its own event on the wire
        (the link encodes a run in one call)."""
        if outs:
            self.mirror_channel.publish(outs)
        self.backup.extend(outs)
        self.mirrored_events += len(outs)

    async def _shard_barrier(self, ctrl: ShardControl) -> None:
        """Pass a handoff control frame through in strict stream order.

        Both engine stages flush first — a coalescing window could
        otherwise hold a pre-handoff update for the transferring flight
        past its tombstone.  The frame then goes to the local main unit
        *and* to every mirror on the data channel, bypassing mirroring
        rules (control must never be filtered or coalesced) and the
        backup queue (it carries no vector timestamp to trim by).
        """
        self._flush_rules()
        await self.to_main.put(ctrl)
        self.mirror_channel.publish(ctrl)
        await _settled(self.mirror_channel.drain())

    async def _finish_stream(self) -> None:
        self._flush_rules()
        # the closing round must run: nothing after it would absorb it
        self._initiate_checkpoint(final=True)
        await _settled(self.mirror_channel.drain())
        await self.to_main.put(EOS)

    def _initiate_checkpoint(self, final: bool = False) -> None:
        """Every ``checkpoint_freq`` events: start a round, unless the
        previous one is still collecting (it is then left to commit;
        see :meth:`CheckpointCoordinator.initiate_if_idle`)."""
        msg = self.open_round(
            self.monitor_readings(), skip_if_collecting=not final, final=final
        )
        if isinstance(msg, CommitMsg):
            self._broadcast_commit(msg)
        elif msg is not None:
            self.ctrl_channel.publish(msg)

    def on_vote(self, msg: Any) -> None:
        """Count a mirror's CHKPT_REP in the turn its link reads it,
        broadcasting the COMMIT when it completes the round.  Anything
        else is ignored."""
        if isinstance(msg, ChkptRepMsg):
            commit = self.on_reply(msg)
            if commit is not None:
                self._broadcast_commit(commit)

    def on_mirror_lost(self, site: str) -> None:
        """A mirror's stream ended before central's: leave it out of
        agreement, so rounds commit without it, and broadcast the COMMIT
        its missing vote alone held back."""
        self.mirrors_lost += 1
        commit = self.leave(site)
        if commit is not None:
            self._broadcast_commit(commit)

    async def _no_task(self) -> None:
        """Returns at once: the source stream enters by :meth:`on_input`
        and votes by :meth:`on_vote`.  Bound to the three task names
        benchmarks/e2e/server.py spawns, until ROADMAP 1(e) composes
        that server by ``NetCentral.run()``."""

    receiving_task = sending_task = control_task = _no_task

    def _broadcast_commit(self, commit: CommitMsg) -> None:
        commit = self.adapt(commit, self.monitor_readings())
        if commit.adapt is not None:
            self.adaptation_log.append(
                (self.clock(), commit.adapt.action, commit.adapt.config.function_name)
            )
        self.trim(commit)
        self.ctrl_channel.publish(commit)


class AsyncMirrorSite(MirrorCore):
    """Live mirror site: the paper's auxiliary unit as what its uplink's
    read callback calls in stream order — back up a run (:meth:`on_run`),
    vote on a CHKPT and apply a COMMIT (:meth:`on_control`) — in front
    of a main unit that applies the runs and serves requests.  No task
    of its own: the uplink queues each run on ``main.inbox``."""

    def __init__(
        self,
        site: str,
        clock: Callable[[], float] = time.monotonic,
        config: Optional[MirrorConfig] = None,
    ):
        self.main = AsyncMainUnit(
            site, clock=clock, inbox_bound=MIRROR_INBOX_BOUND, config=config
        )
        super().__init__(site, self.main.checkpointer)
        self.clock = clock
        #: events handed to :meth:`on_run`; those the main unit has not
        #: applied yet are the mirror's ready queue
        self.events_received = 0

    def monitor_readings(self) -> Dict[str, float]:
        """Mirror-site monitored variables (piggybacked on votes); the
        ready queue counts events received and not yet applied, as the
        central's counts events, the unit its thresholds are set in."""
        ready = self.events_received - self.main.events_applied
        return {
            MONITOR_READY_QUEUE: float(ready),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main._pending_requests),
        }

    def on_run(self, events: List[UpdateEvent]) -> None:
        """Back up a run of mirrored events on its way to the main unit."""
        self.backup.extend(events)
        self.events_received += len(events)

    def on_control(self, msg: Any) -> Optional[ChkptRepMsg]:
        """Return the vote for a CHKPT; apply a COMMIT, and serve as the
        config it installs says.  Anything else is ignored."""
        if isinstance(msg, ChkptMsg):
            return self.vote(msg, self.monitor_readings())
        if isinstance(msg, CommitMsg):
            installed = self.commit(msg)[1]
            if installed is not None:
                self.main.configure(installed)
        return None
