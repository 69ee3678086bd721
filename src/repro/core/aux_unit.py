"""Auxiliary units: the mirroring machinery (§3.1–3.2).

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
    AdaptCommand,
    AdaptationController,
)
from .checkpoint import (
    CONTROL_MSG_SIZE,
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
)
from .config import MirrorConfig
from .events import EventBatch, UpdateEvent, VectorTimestamp
from .invariants import InvariantMonitor
from .main_unit import EOS, MainUnit
from .queues import BackupQueue
from .rules import RuleEngine

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


class CentralAuxUnit:
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
        self.env = env
        self.node = node
        self.transport = transport
        self.main_unit = main_unit
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        self.config = config
        self.metrics = metrics
        self.mirroring_enabled = mirroring_enabled
        self.adaptation = adaptation
        self.monitor = monitor

        self.data_in = transport.register(
            "central.aux.data", node, capacity=CENTRAL_DATA_INBOX
        )
        self.ctrl_in = transport.register("central.aux.ctrl", node)
        # the ready queue is bounded: the receiving task is flow-controlled
        # by the sending task (an unbounded ready queue would let receive
        # processing race arbitrarily far ahead of mirroring/forwarding)
        self.ready = Store(env, capacity=64)
        self.backup = BackupQueue()
        self.engine = config.build_engine()
        self.coordinator = CheckpointCoordinator(participants, monitor=monitor)
        self.clock = VectorTimestamp()
        self.processed_events = 0
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
    def apply_config(self, config: MirrorConfig) -> None:
        """Install a new mirroring configuration (dynamic API changes and
        adaptation commands both land here).  The status table survives
        the swap: rule history (overwrite runs, suppressions) is
        application state, not function state."""
        self.config = config
        self.engine = config.build_engine(table=self.engine.table)
        self.main_unit.configure_snapshots(config)

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
        # invariants hoisted (node/transport/queues are init-bound);
        # clock is NOT — it is rebound per event and on promotion
        costs = self.node.costs
        execute = self.node.execute
        data_get = self.data_in.inbox.get
        ready_put = self.ready.put
        ready_offer = self.ready.offer
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
            clock = self.clock = self.clock.advanced(event.stream, event.seqno)
            if self.monitor is not None:
                self.monitor.on_stamped(event.stream, event.seqno)
            stamped = event.stamped(clock, entered_at=env.now)
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
                # flush held events (partial tuples, coalesce buffers) —
                # flush emissions may carry timestamps older than events
                # already mirrored, so the order invariant is waived
                for out in self.engine.flush("receive"):
                    yield from self._mirror_one(
                        self.engine.on_send(out), ordered=False
                    )
                for out in self.engine.flush("send"):
                    yield from self._mirror_one([out], ordered=False)
                self._initiate_checkpoint()
                self.metrics.rule_stats = self.engine.stats()
                if self.metrics.tracer is not None:
                    self.metrics.tracer.record(
                        self.env.now, "stream", "central", "end_of_stream",
                        processed=self.processed_events,
                        mirrored=self.metrics.events_mirrored,
                    )
                if not self.stream_done.triggered:
                    self.stream_done.succeed()
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
                # "invoked at a constant frequency of once per 50
                # *processed* events" (§3.2.1) — counted per ready-queue
                # event, so the checkpoint (and adaptation) cadence is
                # independent of how aggressively the rules filter
                self.processed_events += 1
                if self.processed_events % self.config.checkpoint_freq == 0:
                    self._initiate_checkpoint()
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
            for _ in range(drained):
                self.processed_events += 1
                if self.processed_events % self.config.checkpoint_freq == 0:
                    self._initiate_checkpoint()

    def _mirror_one(self, outs: List[UpdateEvent], ordered: bool = True):
        if not outs:
            # steady-state overwrite lane: nothing survived the rules —
            # return before the defensive list copy below
            return
        costs = self.node.costs
        in_hand = self._mirror_in_hand
        if in_hand is not outs:
            in_hand = self._mirror_in_hand = list(outs)
        for out in list(outs):
            if self.monitor is not None:
                self.monitor.on_mirrored(out, ordered=ordered)
            yield from self.node.execute(costs.mirror_cost(out.size))
            yield from self.mirror_channel.publish(self.node, out, out.size)
            # published to every subscriber: survivors hold it from here
            if out in in_hand:
                in_hand.remove(out)
            yield from self.node.execute(costs.backup_fixed)
            self.backup.append(out)
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
        costs = self.node.costs
        if self._mirror_in_hand is not outs:
            self._mirror_in_hand = list(outs)
        for out in outs:
            if self.monitor is not None:
                self.monitor.on_mirrored(out)
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
            self.backup.append(out)
            self.metrics.events_mirrored += 1

    def _initiate_checkpoint(self) -> None:
        msg = self.coordinator.initiate(self.backup.last_vt())
        if msg is None:
            return
        self.env.process(self.node.execute(self.node.costs.control_round))
        self.metrics.checkpoint_rounds += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.record(
                self.env.now, "checkpoint", "central", "initiate",
                round=msg.round_id, backup=len(self.backup),
            )
        # own main unit votes locally (loopback control is free), with the
        # central site's monitored readings piggybacked
        reply = self.main_unit.checkpointer.on_chkpt(msg, self.monitor_readings())
        commit = self.coordinator.on_reply(reply)
        if commit is not None:
            # no mirrors: commit immediately
            self.env.process(self._broadcast_commit(commit))
            return
        self.ctrl_channel.publish_nowait(self.node, msg, CONTROL_MSG_SIZE)

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
            if isinstance(payload, ChkptRepMsg):
                yield from self.node.execute(costs.control_fixed)
                commit = self.coordinator.on_reply(payload)
                if commit is not None:
                    yield from self._broadcast_commit(commit)

    def _broadcast_commit(self, commit: CommitMsg):
        costs = self.node.costs
        # adaptation decision rides the commit (no extra control traffic)
        if self.adaptation is not None:
            monitored = dict(self.coordinator.monitored_view())
            for index, value in self.monitor_readings().items():
                monitored[index] = max(monitored.get(index, 0.0), value)
            command = self.adaptation.evaluate(monitored)
            if command is not None:
                commit = commit.with_adapt(command)
                self.apply_config(command.config)
                self.metrics.adaptations = self.adaptation.adaptations
                self.metrics.reversions = self.adaptation.reversions
                self.metrics.adaptation_log.append(
                    (self.env.now, command.action, command.config.function_name)
                )
                if self.metrics.tracer is not None:
                    self.metrics.tracer.record(
                        self.env.now, "adaptation", "central", command.action,
                        function=command.config.function_name, seq=command.seq,
                    )
        self.metrics.checkpoint_commits += 1
        if self.metrics.tracer is not None:
            self.metrics.tracer.record(
                self.env.now, "checkpoint", "central", "commit",
                round=commit.round_id, vt=str(commit.vt),
            )
        yield from self.node.execute(costs.control_round)
        vt = self.main_unit.checkpointer.on_commit(commit)
        covered = self.backup.covered_count(vt) if self.monitor is not None else 0
        trimmed = self.backup.trim(vt)
        if self.monitor is not None:
            self.monitor.on_commit_applied(
                "central", commit.round_id, vt,
                self.main_unit.checkpointer.processed_vt, covered, trimmed,
            )
        if trimmed:
            yield from self.node.execute(costs.trim_per_event * trimmed)
        yield from self.ctrl_channel.publish(self.node, commit, CONTROL_MSG_SIZE)


class MirrorAuxUnit:
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
        self.env = env
        self.site = site
        self.node = node
        self.transport = transport
        self.main_unit = main_unit
        self.metrics = metrics
        self.monitor = monitor
        self.data_in = transport.register(
            f"{site}.aux.data", node, capacity=MIRROR_DATA_INBOX
        )
        self.ctrl_in = transport.register(f"{site}.aux.ctrl", node)
        self.ready = Store(env, capacity=64)
        self.backup = BackupQueue()
        self.applied_config: Optional[MirrorConfig] = None
        self._applied_adapt_seq = 0
        #: where checkpoint replies go; the failover supervisor re-targets
        #: this when a promoted mirror becomes the coordinator
        self.reply_endpoint = "central.aux.ctrl"
        # -- promoted-primary state (repro.faults live failover) ----------
        # Dormant until promote_to_primary(); a promoted mirror runs the
        # central aux unit's duties with its existing three tasks.
        self.promoted = False
        self.config: Optional[MirrorConfig] = None
        self.engine: Optional[RuleEngine] = None
        self.coordinator: Optional[CheckpointCoordinator] = None
        self.mirror_channel: Optional[EventChannel] = None
        self.ctrl_channel: Optional[EventChannel] = None
        self.clock = VectorTimestamp()
        self.processed_events = 0
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
        """Assume the central role at runtime.

        The timestamp clock resumes from everything this site is known to
        hold: its main unit's processing progress merged with its backup
        queue's high-water marks (plus ``resume_vt``, the supervisor's
        view of events still in flight towards this site), so fresh
        source events extend — never collide with — the deposed
        primary's numbering.  The checkpoint coordinator starts in a
        disjoint round-id space for the same reason.
        """
        self.promoted = True
        self.mirror_channel = mirror_channel
        self.ctrl_channel = ctrl_channel
        self.config = config
        self.engine = config.build_engine()
        clock = self.main_unit.checkpointer.processed_vt
        backup_vt = self.backup.last_vt()
        if backup_vt is not None:  # empty backup: crash before any mirroring
            clock = clock.merge(backup_vt)
        if resume_vt is not None:
            clock = clock.merge(resume_vt)
        self.clock = clock
        self.coordinator = CheckpointCoordinator(
            participants, monitor=self.monitor, first_round=PROMOTED_FIRST_ROUND
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
                if self.promoted:
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
                self.clock = self.clock.advanced(event.stream, event.seqno)
                stamped = event.stamped(self.clock, entered_at=self.env.now)
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
                if self.promoted:
                    yield from self._finish_promoted_stream()
                continue
            self._forwarding_uid = event.uid
            self._send_in_hand = event
            yield from self.node.execute(costs.fwd_cost(event.size))
            yield from self.transport.send(
                self.node, f"{self.site}.main",
                Message(kind="data", payload=event, size=event.size),
            )
            if not self.promoted or event.uid not in self._fresh_uids:
                # pre-promotion backlog (or a plain mirror): the deposed
                # primary already mirrored and backed this event up —
                # forwarding it to the local main unit was all that's left
                self._send_in_hand = None
                continue
            # fresh source event on the promoted primary: run the central
            # sending task's duties — rules, mirroring, backup, cadence
            self._fresh_uids.discard(event.uid)
            self.metrics.events_forwarded += 1
            engine = self.engine
            config = self.config
            if engine is None or config is None:  # pragma: no cover
                self._send_in_hand = None
                continue
            yield from self.node.execute(costs.rule_fixed)
            outs: List[UpdateEvent] = []
            self._mirror_in_hand = outs
            for passed in engine.on_receive(event):
                outs.extend(engine.on_send(passed))
            self._send_in_hand = None
            yield from self._mirror_promoted(outs)
            self.processed_events += 1
            if self.processed_events % config.checkpoint_freq == 0:
                self._initiate_promoted_checkpoint()

    def _finish_promoted_stream(self):
        """Promoted-primary end of stream: flush the rule pipeline, run a
        final checkpoint, and resolve this site's stream-done event."""
        engine = self.engine
        if engine is None:  # pragma: no cover
            return
        for out in engine.flush("receive"):
            yield from self._mirror_promoted(engine.on_send(out))
        for out in engine.flush("send"):
            yield from self._mirror_promoted([out])
        self._initiate_promoted_checkpoint()
        self.metrics.rule_stats = engine.stats()
        if not self.stream_done.triggered:
            self.stream_done.succeed()

    def _mirror_promoted(self, outs: List[UpdateEvent]):
        costs = self.node.costs
        channel = self.mirror_channel
        if channel is None:  # pragma: no cover
            return
        in_hand = self._mirror_in_hand
        if in_hand is not outs:
            in_hand = self._mirror_in_hand = list(outs)
        for out in list(outs):
            yield from self.node.execute(costs.mirror_cost(out.size))
            yield from channel.publish(self.node, out, out.size)
            # published to every subscriber: survivors hold it from here
            if out in in_hand:
                in_hand.remove(out)
            yield from self.node.execute(costs.backup_fixed)
            self.backup.append(out)
            self.metrics.events_mirrored += 1

    def _initiate_promoted_checkpoint(self) -> None:
        coordinator = self.coordinator
        ctrl_channel = self.ctrl_channel
        if coordinator is None or ctrl_channel is None:  # pragma: no cover
            return
        msg = coordinator.initiate(self.backup.last_vt())
        if msg is None:
            return
        self.env.process(self.node.execute(self.node.costs.control_round))
        self.metrics.checkpoint_rounds += 1
        # own main unit votes locally, exactly like the central site
        reply = self.main_unit.checkpointer.on_chkpt(msg, self.monitor_readings())
        commit = coordinator.on_reply(reply)
        if commit is not None:
            # sole survivor: commit immediately
            self.env.process(self._broadcast_promoted_commit(commit))
            return
        ctrl_channel.publish_nowait(self.node, msg, CONTROL_MSG_SIZE)

    def _broadcast_promoted_commit(self, commit: CommitMsg):
        costs = self.node.costs
        self.metrics.checkpoint_commits += 1
        yield from self.node.execute(costs.control_round)
        vt = self.main_unit.checkpointer.on_commit(commit)
        trimmed = self.backup.trim(vt)
        if trimmed:
            yield from self.node.execute(costs.trim_per_event * trimmed)
        if self.ctrl_channel is not None:
            yield from self.ctrl_channel.publish(self.node, commit, CONTROL_MSG_SIZE)

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
            if self.promoted and isinstance(payload, ChkptRepMsg):
                # coordinator side of the protocol, inherited at promotion
                yield from self.node.execute(costs.control_fixed)
                coordinator = self.coordinator
                if coordinator is None:  # pragma: no cover
                    continue
                commit = coordinator.on_reply(payload)
                if commit is not None:
                    yield from self._broadcast_promoted_commit(commit)
                continue
            # participant-side handling searches the backup queue
            # (Figure 3) — markedly heavier than coordinator bookkeeping
            yield from self.node.execute(costs.control_search)
            if isinstance(payload, ChkptMsg):
                reply = self.main_unit.checkpointer.on_chkpt(
                    payload, self.monitor_readings()
                )
                yield from self.transport.send(
                    self.node, self.reply_endpoint,
                    Message(kind="control", payload=reply, size=CONTROL_MSG_SIZE),
                )
            elif isinstance(payload, CommitMsg):
                if payload.adapt is not None:
                    self._apply_adapt(payload.adapt)
                vt = self.main_unit.checkpointer.on_commit(payload)
                covered = (
                    self.backup.covered_count(vt)
                    if self.monitor is not None
                    else 0
                )
                trimmed = self.backup.trim(vt)
                if self.monitor is not None:
                    self.monitor.on_commit_applied(
                        self.site, payload.round_id, vt,
                        self.main_unit.checkpointer.processed_vt,
                        covered, trimmed,
                    )
                if trimmed:
                    yield from self.node.execute(costs.trim_per_event * trimmed)

    def _apply_adapt(self, command: AdaptCommand) -> None:
        """Install a piggybacked adaptation; stale commands are dropped
        (sequence numbers protect against out-of-order control delivery)."""
        if command.seq <= self._applied_adapt_seq:
            return
        self._applied_adapt_seq = command.seq
        self.applied_config = command.config
        self.main_unit.configure_snapshots(command.config)
