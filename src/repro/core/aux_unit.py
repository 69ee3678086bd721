"""Auxiliary units: the mirroring machinery (§3.1–3.2), simulated.

The central site's auxiliary unit runs the three tasks of the paper —
*receiving*, *sending* and *control* — synchronised through the ready
and backup queues and the status table:

* the receiving task retrieves events from the incoming streams,
  timestamps them (vector timestamps, one component per stream) and
  places them on the ready queue;
* the sending task removes events from the ready queue, forwards every
  event to the co-located main unit (``fwd()`` — the regular clients'
  stream stays complete), applies the semantic rule pipeline to decide
  what to ``mirror()`` onto the outgoing channels, preserves mirrored
  events in the backup queue, and triggers checkpointing every
  ``checkpoint_freq`` mirrored events;
* the control task runs the checkpoint coordinator and — piggybacked on
  commit traffic — the adaptation mechanism.

Mirror sites run a reduced auxiliary unit: receive mirrored events,
keep backup copies, forward to the local main unit, and answer
checkpoint control messages (attaching their monitored queue lengths to
the replies).

Every protocol decision is made by the site cores of
:mod:`repro.core.sitecore`, which the units here subclass; what these
units add is the simulated tasks and queues, and the modelled cost of
each step.  A mirror the failover supervisor promotes gets a
:class:`CentralCore` of its own and runs the same primary steps
(:class:`_SimPrimary`) as the central unit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..channels import EventChannel
from ..cluster import Message, Node, Transport
from ..metrics import RunMetrics
from ..sim import Environment, Interrupt, Store
from .adaptation import (
    MONITOR_BACKUP_QUEUE,
    MONITOR_PENDING_REQUESTS,
    MONITOR_READY_QUEUE,
    AdaptationController,
)
from .checkpoint import CONTROL_MSG_SIZE, ChkptMsg, ChkptRepMsg, CommitMsg
from .config import MirrorConfig
from .events import EOS, EventBatch, UpdateEvent, VectorTimestamp
from .invariants import InvariantMonitor
from .main_unit import MainUnit
from .sitecore import CentralCore, MirrorCore

__all__ = ["CentralAuxUnit", "MirrorAuxUnit", "PROMOTED_FIRST_ROUND"]

#: Round-id offset for a promoted mirror's checkpoint coordinator: keeps
#: its rounds disjoint from the deposed primary's, so a straggling
#: in-flight reply to the old coordinator can never be mistaken for a
#: vote in a new round (``repro.faults`` live failover).
PROMOTED_FIRST_ROUND = 1_000_000

#: Bound on the central data inbox — models the flow control of the
#: wide-area collection feed (a self-paced source cannot dump an
#: unbounded backlog into the server).
CENTRAL_DATA_INBOX = 256
#: Bound on each mirror's data inbox (backpressure depth).
MIRROR_DATA_INBOX = 128


class _SimPrimary:
    """The simulated primary's steps — mirror one event, mirror a batch,
    initiate a round, broadcast a commit, finish the stream — written
    once for the central unit and a promoted mirror.  Each charges its
    modelled cost around calls into ``primary_core``."""

    env: Environment
    node: Node
    metrics: RunMetrics
    main_unit: MainUnit
    mirror_channel: EventChannel
    ctrl_channel: EventChannel
    _mirror_in_hand: List[UpdateEvent]
    #: the core these steps decide with: the central unit itself, or a
    #: promoted mirror's own
    primary_core: CentralCore

    def monitor_readings(self) -> Dict[str, float]:
        raise NotImplementedError

    def _mirror_one(self, outs: List[UpdateEvent], ordered: bool = True):
        if not outs:
            # steady-state overwrite lane: nothing survived the rules —
            # return before the defensive list copy below
            return
        core = self.primary_core
        costs = self.node.costs
        in_hand = self._mirror_in_hand
        if in_hand is not outs:
            in_hand = self._mirror_in_hand = list(outs)
        for out in list(outs):
            if core.monitor is not None:
                core.monitor.on_mirrored(out, ordered=ordered)
            yield from self.node.execute(costs.mirror_cost(out.size))
            yield from self.mirror_channel.publish(self.node, out, out.size)
            # published to every subscriber: survivors hold it from here
            if out in in_hand:
                in_hand.remove(out)
            yield from self.node.execute(costs.backup_fixed)
            core.backup.append(out)
            self.metrics.events_mirrored += 1

    def _mirror_batch(self, outs: List[UpdateEvent]):
        """Mirror ``outs`` as one :class:`EventBatch` wire message.

        Per-event CPU (mirror preparation, backup copy) is still paid per
        event; what collapses is the per-message channel cost — one
        publish, one serialization, one link latency for the whole batch.
        """
        if not outs:
            return
        if len(outs) == 1:
            yield from self._mirror_one(outs)
            return
        core = self.primary_core
        costs = self.node.costs
        if self._mirror_in_hand is not outs:
            self._mirror_in_hand = list(outs)
        for out in outs:
            if core.monitor is not None:
                core.monitor.on_mirrored(out)
            yield from self.node.execute(costs.mirror_cost(out.size))
        # the batch must own its event list: ``outs`` is the sending
        # task's reused buffer, cleared on the next iteration while the
        # wire message may still be in flight
        batch = EventBatch(list(outs))
        yield from self.mirror_channel.publish(self.node, batch, batch.size)
        # the whole batch reached every subscriber in one wire message
        self._mirror_in_hand = []
        for out in outs:
            yield from self.node.execute(costs.backup_fixed)
            core.backup.append(out)
            self.metrics.events_mirrored += 1

    def _count_processed(self, n: int) -> None:
        for _ in range(self.primary_core.count_processed(n)):
            self._initiate_checkpoint()

    def _initiate_checkpoint(self, final: bool = False) -> None:
        core = self.primary_core
        # a due round replaces one still collecting (the pinned figures
        # were made with this rule; the live central skips instead)
        msg = core.open_round(
            self.monitor_readings(), skip_if_collecting=False, final=final
        )
        if msg is None:
            return
        self.env.process(self.node.execute(self.node.costs.control_round))
        self.metrics.checkpoint_rounds += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.record(
                self.env.now, "checkpoint", core.site, "initiate",
                round=msg.round_id, backup=len(core.backup),
            )
        if isinstance(msg, CommitMsg):
            # no other participant: the local vote committed the round
            self.env.process(self._broadcast_commit(msg))
            return
        self.ctrl_channel.publish_nowait(self.node, msg, CONTROL_MSG_SIZE)

    def _count_vote(self, reply: ChkptRepMsg):
        yield from self.node.execute(self.node.costs.control_fixed)
        commit = self.primary_core.on_reply(reply)
        if commit is not None:
            yield from self._broadcast_commit(commit)

    def _broadcast_commit(self, commit: CommitMsg):
        core = self.primary_core
        metrics = self.metrics
        # adaptation decision rides the commit (no extra control traffic)
        commit = core.adapt(commit, self.monitor_readings())
        command, controller = commit.adapt, core.adaptation
        if command is not None and controller is not None:
            metrics.adaptations = controller.adaptations
            metrics.reversions = controller.reversions
            metrics.adaptation_log.append(
                (self.env.now, command.action, command.config.function_name)
            )
            if metrics.tracer is not None:
                metrics.tracer.record(
                    self.env.now, "adaptation", core.site, command.action,
                    function=command.config.function_name, seq=command.seq,
                )
        metrics.checkpoint_commits += 1
        if metrics.tracer is not None:
            metrics.tracer.record(
                self.env.now, "checkpoint", core.site, "commit",
                round=commit.round_id, vt=str(commit.vt),
            )
        yield from self.node.execute(self.node.costs.control_round)
        trimmed = core.trim(commit)
        if trimmed:
            yield from self.node.execute(self.node.costs.trim_per_event * trimmed)
        yield from self.ctrl_channel.publish(self.node, commit, CONTROL_MSG_SIZE)

    def _finish_stream(self):
        """End of stream: mirror what the rules still hold, run a final
        checkpoint and resolve ``stream_done``.  Flush emissions may
        carry timestamps older than events already mirrored, so the
        order invariant is waived for them."""
        core = self.primary_core
        for out in core.engine.flush("receive"):
            yield from self._mirror_one(core.engine.on_send(out), ordered=False)
        for out in core.engine.flush("send"):
            yield from self._mirror_one([out], ordered=False)
        self._initiate_checkpoint(final=True)
        self.metrics.rule_stats = core.engine.stats()
        if self.metrics.tracer is not None:
            self.metrics.tracer.record(
                self.env.now, "stream", core.site, "end_of_stream",
                processed=core.processed_events,
                mirrored=self.metrics.events_mirrored,
            )
        if not self.stream_done.triggered:
            self.stream_done.succeed()


class CentralAuxUnit(_SimPrimary, CentralCore):
    """Auxiliary unit of the central (primary) site."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        transport: Transport,
        main_unit: MainUnit,
        mirror_channel: EventChannel,
        ctrl_channel: EventChannel,
        config: MirrorConfig,
        participants: set,
        metrics: RunMetrics,
        mirroring_enabled: bool = True,
        adaptation: Optional[AdaptationController] = None,
        monitor: Optional[InvariantMonitor] = None,
    ):
        CentralCore.__init__(
            self, config, participants, main_unit.checkpointer,
            adaptation=adaptation, monitor=monitor, main=main_unit,
        )
        self.env = env
        self.node = node
        self.transport = transport
        self.main_unit = main_unit
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        self.metrics = metrics
        self.mirroring_enabled = mirroring_enabled
        self.primary_core = self

        self.data_in = transport.register(
            "central.aux.data", node, capacity=CENTRAL_DATA_INBOX
        )
        self.ctrl_in = transport.register("central.aux.ctrl", node)
        # the ready queue is bounded: the receiving task is flow-controlled
        # by the sending task (an unbounded ready queue would let receive
        # processing race arbitrarily far ahead of mirroring/forwarding)
        self.ready = Store(env, capacity=64)
        self.stream_done = env.event()
        # -- crash accounting (repro.faults) ------------------------------
        # A fail-stop interrupt can land while a task holds an event in a
        # local variable — popped from one queue, not yet placed in the
        # next.  These slots make that in-hand material visible to the
        # fault injector's crash-drain triage; without them an event can
        # vanish from the books entirely (neither salvaged nor counted
        # as uncommitted loss).
        #: message the receiving task holds between inbox pop and ready put
        self._recv_in_hand: Optional[Message] = None
        #: event the sending task holds between ready pop and fwd delivery
        self._send_in_hand: Optional[UpdateEvent] = None
        #: rule output awaiting mirroring — populated while events are
        #: published/backed up, drained as each one completes
        self._mirror_in_hand: List[UpdateEvent] = []
        self.processes: list = []
        self.start_processes()

    def start_processes(self) -> None:
        """(Re)spawn the three aux tasks; the handles let the fault
        injector interrupt them on a fail-stop crash (``repro.faults``)."""
        self.processes = [
            self.env.process(self._receiving_task()),
            self.env.process(self._sending_task()),
            self.env.process(self._control_task()),
        ]

    # -- MirrorControl host interface -------------------------------------
    def do_mirror(self):
        """Table-1 ``mirror()``: drain whatever is currently ready."""
        return None  # mirroring is continuous; explicit calls are no-ops

    def do_fwd(self):
        """Table-1 ``fwd()``: forwarding is continuous; explicit no-op."""
        return None

    # -- monitoring -----------------------------------------------------
    def monitor_readings(self) -> Dict[str, float]:
        """Central-site monitored variables (queue/buffer lengths)."""
        return {
            MONITOR_READY_QUEUE: float(self.ready.level),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main_unit.pending_requests()),
        }

    # -- tasks ------------------------------------------------------------
    def _receiving_task(self):
        try:
            yield from self._receiving_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _receiving_body(self):
        # invariants hoisted (node/transport/queues are init-bound)
        costs = self.node.costs
        execute = self.node.execute
        data_get = self.data_in.inbox.get
        ready_put = self.ready.put
        ready_offer = self.ready.offer
        stamp = self.stamp
        env = self.env
        while True:
            msg = yield data_get()
            self._recv_in_hand = msg
            if msg.payload == EOS:
                yield ready_put(EOS)
                self._recv_in_hand = None
                continue
            event: UpdateEvent = msg.payload
            yield from execute(costs.recv_cost(event.size))
            stamped = stamp(event, env.now)
            # yield only under backpressure (bounded ready queue full)
            if not ready_offer(stamped):
                yield ready_put(stamped)
            self._recv_in_hand = None

    def _sending_task(self):
        try:
            yield from self._sending_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _sending_body(self):
        # invariants hoisted; engine/config stay per-iteration reads
        # (adaptation swaps them at runtime)
        costs = self.node.costs
        execute = self.node.execute
        transport_send = self.transport.send
        node = self.node
        ready_get = self.ready.get
        metrics = self.metrics
        # one rule-output list for the life of the task: cleared per
        # event instead of reallocated (it doubles as the in-hand slot,
        # and _mirror_batch breaks the alias when it hands the list to a
        # wire batch — re-aliased at the top of every iteration)
        outs: List[UpdateEvent] = []
        while True:
            item = yield ready_get()
            if item == EOS:
                yield from self._finish_stream()
                continue
            event: UpdateEvent = item
            self._send_in_hand = event
            # fwd(): every event reaches the central EDE / regular clients
            yield from execute(costs.fwd_cost(event.size))
            yield from transport_send(
                node, "central.main",
                Message(kind="data", payload=event, size=event.size),
            )
            metrics.events_forwarded += 1
            if not self.mirroring_enabled:
                self._send_in_hand = None
                continue
            # mirror(): semantic rule pipeline decides what ships
            yield from execute(costs.rule_fixed)
            outs.clear()
            # alias: rule output appended below is tracked as in-hand the
            # moment it exists; the forwarded event is released in the
            # same step (no yield between), so its custody is continuous
            self._mirror_in_hand = outs
            engine = self.engine
            for passed in engine.on_receive(event):
                outs.extend(engine.on_send(passed))
            self._send_in_hand = None
            batch_size = self.config.batch_size
            if batch_size <= 1:
                # the paper's configuration: one wire message per event —
                # this path is byte-for-byte the pre-batching code so all
                # figures reproduce exactly
                yield from self._mirror_one(outs)
                # counted per ready-queue event
                self._count_processed(1)
                continue
            # batch path: opportunistically drain events that are *already*
            # waiting on the ready queue (never blocking for more — an
            # empty queue ships whatever is in hand, so a batch never
            # delays an event that could go out now) and mirror their
            # rule output as one wire message
            drained = 1
            ready = self.ready
            while (
                drained < batch_size
                and ready.items
                and ready.items[0] != EOS
            ):
                nxt: UpdateEvent = ready.try_get()
                self._send_in_hand = nxt
                yield from self.node.execute(costs.fwd_cost(nxt.size))
                yield from self.transport.send(
                    self.node, "central.main",
                    Message(kind="data", payload=nxt, size=nxt.size),
                )
                self.metrics.events_forwarded += 1
                yield from self.node.execute(costs.rule_fixed)
                engine = self.engine
                for passed in engine.on_receive(nxt):
                    outs.extend(engine.on_send(passed))
                self._send_in_hand = None
                drained += 1
            yield from self._mirror_batch(outs)
            self._count_processed(drained)

    def _control_task(self):
        try:
            yield from self._control_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _control_body(self):
        while True:
            msg = yield self.ctrl_in.inbox.get()
            if isinstance(msg.payload, ChkptRepMsg):
                yield from self._count_vote(msg.payload)


class MirrorAuxUnit(_SimPrimary, MirrorCore):
    """Auxiliary unit of a secondary mirror site."""

    def __init__(
        self,
        env: Environment,
        site: str,
        node: Node,
        transport: Transport,
        main_unit: MainUnit,
        metrics: RunMetrics,
        monitor: Optional[InvariantMonitor] = None,
    ):
        MirrorCore.__init__(self, site, main_unit.checkpointer, monitor=monitor)
        self.env = env
        self.node = node
        self.transport = transport
        self.main_unit = main_unit
        self.metrics = metrics
        self.data_in = transport.register(
            f"{site}.aux.data", node, capacity=MIRROR_DATA_INBOX
        )
        self.ctrl_in = transport.register(f"{site}.aux.ctrl", node)
        self.ready = Store(env, capacity=64)
        #: where checkpoint replies go; the failover supervisor re-targets
        #: this when a promoted mirror becomes the coordinator
        self.reply_endpoint = "central.aux.ctrl"
        # -- promoted-primary state (repro.faults live failover) ----------
        # None until promote_to_primary() gives this site a CentralCore
        # (and the channels it publishes on); a promoted mirror runs the
        # central aux unit's duties with its existing three tasks.
        self.primary_core = None  # type: ignore[assignment]
        self.stream_done = env.event()
        #: uids of raw source events this site stamped itself — only they
        #: take the full primary pipeline (rules, mirroring, backup); the
        #: deposed primary's backlog is already replicated and only needs
        #: forwarding to the local main unit
        self._fresh_uids: set = set()
        #: rejoin dedup: channel deliveries at or below this timestamp
        #: duplicate the snapshot+replay a restarted mirror came back with
        self._rejoin_filter_vt: Optional[VectorTimestamp] = None
        #: uid the sending task currently holds between ready-queue pop
        #: and main-unit delivery — promotion replay must not double-feed
        #: it (stale values are harmless: a delivered event is covered by
        #: the main unit's processed vector soon after)
        self._forwarding_uid = -1
        # in-hand crash accounting, mirroring CentralAuxUnit's slots: the
        # fault injector's triage reads these to account for material a
        # fail-stop interrupt caught between queue pops
        self._recv_in_hand: Optional[Message] = None
        self._send_in_hand: Optional[UpdateEvent] = None
        self._mirror_in_hand: List[UpdateEvent] = []
        self.processes: list = []
        self.start_processes()

    def start_processes(self) -> None:
        """(Re)spawn the three aux tasks; the handles let the fault
        injector interrupt them on a fail-stop crash (``repro.faults``)."""
        self.processes = [
            self.env.process(self._receiving_task()),
            self.env.process(self._sending_task()),
            self.env.process(self._control_task()),
        ]

    # -- live failover (repro.faults) -------------------------------------
    def promote_to_primary(
        self,
        mirror_channel: EventChannel,
        ctrl_channel: EventChannel,
        config: MirrorConfig,
        participants: set,
        resume_vt: Optional[VectorTimestamp] = None,
    ) -> None:
        """Assume the central role at runtime, on a :class:`CentralCore`
        over this site's backup queue.

        The timestamp clock resumes from everything this site is known to
        hold: its main unit's processing progress merged with its backup
        queue's high-water marks (plus ``resume_vt``, the supervisor's
        view of events still in flight towards this site), so fresh
        source events extend — never collide with — the deposed
        primary's numbering.  The checkpoint coordinator starts in a
        disjoint round-id space for the same reason.
        """
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        clock = self.checkpointer.processed_vt
        backup_vt = self.backup.last_vt()
        if backup_vt is not None:  # empty backup: crash before any mirroring
            clock = clock.merge(backup_vt)
        if resume_vt is not None:
            clock = clock.merge(resume_vt)
        self.primary_core = CentralCore(
            config, participants, self.checkpointer,
            monitor=self.monitor, site=self.site, backup=self.backup,
            stamp_clock=clock, first_round=PROMOTED_FIRST_ROUND,
        )

    def monitor_readings(self) -> Dict[str, float]:
        """Queue lengths the adaptation mechanism watches (§3.2.2)."""
        return {
            MONITOR_READY_QUEUE: float(self.ready.level + self.data_in.inbox.level),
            MONITOR_BACKUP_QUEUE: float(len(self.backup)),
            MONITOR_PENDING_REQUESTS: float(self.main_unit.pending_requests()),
        }

    def _receiving_task(self):
        try:
            yield from self._receiving_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _receiving_body(self):
        costs = self.node.costs
        while True:
            msg = yield self.data_in.inbox.get()
            self._recv_in_hand = msg
            payload = msg.payload
            if payload == EOS:
                # only a promoted primary sees the stream end here: the
                # re-routed source stream now terminates at this site
                if self.primary_core is not None:
                    yield self.ready.put(EOS)
                self._recv_in_hand = None
                continue
            if isinstance(payload, EventBatch):
                # one receive/deserialize for the whole wire message,
                # then the per-event backup copy for each member; events
                # re-enter the ready queue individually so everything
                # downstream is batching-agnostic
                yield from self.node.execute(costs.recv_cost(msg.size))
                for event in payload.events:
                    if self._is_rejoin_duplicate(event):
                        continue
                    yield from self.node.execute(
                        costs.backup_fixed + costs.backup_per_byte * event.size
                    )
                    self.backup.append(event)
                    yield self.ready.put(event)
                self._recv_in_hand = None
                continue
            event: UpdateEvent = payload
            if event.vt is None:
                # raw source event: only the promoted primary receives
                # these — timestamp it exactly as the central receiving
                # task would, and mark it for the full primary pipeline
                yield from self.node.execute(costs.recv_cost(event.size))
                stamped = self.primary_core.stamp(event, self.env.now)
                self._fresh_uids.add(stamped.uid)
                yield self.ready.put(stamped)
                self._recv_in_hand = None
                continue
            if self._is_rejoin_duplicate(event):
                self._recv_in_hand = None
                continue
            # receive + deserialize, plus the backup-queue copy; events
            # arrive pre-stamped so no timestamping happens here, but
            # moving the bytes off the wire is paid like everywhere else
            yield from self.node.execute(
                costs.recv_cost(event.size)
                + costs.backup_fixed
                + costs.backup_per_byte * event.size
            )
            self.backup.append(event)
            yield self.ready.put(event)
            self._recv_in_hand = None

    def _is_rejoin_duplicate(self, event: UpdateEvent) -> bool:
        """A restarted mirror resumes from a snapshot + replay; channel
        deliveries already covered by that resume point are duplicates."""
        filter_vt = self._rejoin_filter_vt
        return filter_vt is not None and filter_vt.covers(event.stream, event.seqno)

    def _sending_task(self):
        try:
            yield from self._sending_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _sending_body(self):
        costs = self.node.costs
        while True:
            event = yield self.ready.get()
            if event == EOS:
                if self.primary_core is not None:
                    yield from self._finish_stream()
                continue
            self._forwarding_uid = event.uid
            self._send_in_hand = event
            yield from self.node.execute(costs.fwd_cost(event.size))
            yield from self.transport.send(
                self.node, f"{self.site}.main",
                Message(kind="data", payload=event, size=event.size),
            )
            if self.primary_core is None or event.uid not in self._fresh_uids:
                # pre-promotion backlog (or a plain mirror): the deposed
                # primary already mirrored and backed this event up —
                # forwarding it to the local main unit was all that's left
                self._send_in_hand = None
                continue
            # fresh source event on the promoted primary: the central
            # sending task's duties — rules, mirroring, backup, cadence
            self._fresh_uids.discard(event.uid)
            self.metrics.events_forwarded += 1
            yield from self.node.execute(costs.rule_fixed)
            outs = self._mirror_in_hand = self.primary_core.engine.forward_many([event])
            self._send_in_hand = None
            yield from self._mirror_one(outs)
            self._count_processed(1)

    def _control_task(self):
        try:
            yield from self._control_body()
        except Interrupt:
            return  # fail-stop crash injected between event steps

    def _control_body(self):
        costs = self.node.costs
        while True:
            msg = yield self.ctrl_in.inbox.get()
            payload = msg.payload
            if self.primary_core is not None and isinstance(payload, ChkptRepMsg):
                # coordinator side of the protocol, inherited at promotion
                yield from self._count_vote(payload)
                continue
            # participant-side handling searches the backup queue
            # (Figure 3) — markedly heavier than coordinator bookkeeping
            yield from self.node.execute(costs.control_search)
            if isinstance(payload, ChkptMsg):
                reply = self.vote(payload, self.monitor_readings())
                yield from self.transport.send(
                    self.node, self.reply_endpoint,
                    Message(kind="control", payload=reply, size=CONTROL_MSG_SIZE),
                )
            elif isinstance(payload, CommitMsg):
                trimmed, installed = self.commit(payload)
                if installed is not None:
                    self.main_unit.configure(installed)
                if trimmed:
                    yield from self.node.execute(costs.trim_per_event * trimmed)
