"""Live failover: heartbeats, verdicts, runtime mirror promotion.

The supervisor is the miniature of a cluster membership manager: every
site emits seeded heartbeats to a monitor endpoint, a timeout-with-
hysteresis detector turns silence into SUSPECT/DEAD verdicts, and a DEAD
verdict against the primary starts the failover sequence:

1. every surviving main unit flips into **degraded mode** (responses are
   still served, flagged as possibly stale);
2. :func:`repro.core.recovery.promote_mirror` picks the most advanced
   survivor and computes the catch-up work; the report's
   ``committed_loss_free`` flag carries the paper's guarantee — the
   committed prefix survives any single failure;
3. backed-up events the new primary never processed are replayed into
   its main unit (filtered against events already sitting in its own
   pipeline — replay must never double-feed), and events only *other*
   survivors hold are re-forwarded over the wire;
4. the server re-points at the promoted site: it leaves the mirror
   channels, assumes the coordinator role (disjoint round-id space),
   salvaged in-flight source events are re-fed, and the held-back
   source stream resumes against the new ingest endpoint;
5. client requests parked in the dead letters are re-issued against the
   re-targeted balancer;
6. once the new primary's processed vector dominates the promotion
   target, degraded mode ends — that span is the **failover time**.

A dead *mirror* is cheaper: drop it from the checkpoint participants
(completing any round it was wedging), re-target requests, re-issue its
dead letters.  A restarted site rejoins through the snapshot + replay
path (:func:`repro.core.recovery.plan_client_rejoin` against the current
primary), with a rejoin filter suppressing the channel deliveries the
snapshot already covers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..cluster import Message, Node
from ..core.checkpoint import MainUnitCheckpointer
from ..core.events import EOS, EventBatch, UpdateEvent, VectorTimestamp
from ..core.queues import BackupQueue
from ..core.recovery import plan_client_rejoin, promote_mirror
from ..ois.clients import InitStateRequest
from ..ois.ede import EventDerivationEngine
from ..ois.state import load_snapshot
from ..sim import Interrupt, RandomStreams
from .detector import (
    HEARTBEAT_SIZE,
    SITE_ALIVE,
    SITE_DEAD,
    FailureDetector,
    Heartbeat,
    MembershipView,
    Transition,
)
from .siteid import resolve_site

__all__ = ["MONITOR_ENDPOINT", "FailoverSupervisor"]

#: Endpoint name all heartbeats are addressed to.
MONITOR_ENDPOINT = "failover.monitor"


class FailoverSupervisor:
    """Runs detection and failover for one :class:`MirroredServer`."""

    def __init__(self, server):
        self.server = server
        self.env = server.env
        cfg = server.config
        self.cfg = cfg
        #: shard this cluster represents ("" = unsharded); notifications
        #: and rejoin requests may then use shard-qualified site ids
        self.shard = getattr(cfg, "shard", "")
        seed = getattr(cfg.fault_plan, "seed", 0) if cfg.fault_plan else 0
        self.rng = RandomStreams(seed)
        self.detector = FailureDetector(
            interval=cfg.heartbeat_interval,
            suspect_after=cfg.suspect_after,
            dead_after=cfg.dead_after,
        )
        sites = list(server.mains)
        self.membership = MembershipView(sites, primary="central")
        for site in sites:
            self.detector.register(site, self.env.now)
        # the monitor lives on its own node, outside the cluster links:
        # heartbeat *timing* rides only on the emitting site's CPU, so
        # detection measures site health, not cluster-interconnect load
        self.monitor_node = Node(self.env, "failover", cpus=1, costs=cfg.costs)
        self.monitor_ep = server.transport.register(
            MONITOR_ENDPOINT, self.monitor_node
        )
        self.failover_active = False
        self.committed_loss_free = True
        self.promotion_reports: list = []
        self._crash_times: Dict[str, float] = {}
        self._last_action_at = 0.0
        if cfg.fault_plan is not None:
            site_actions = cfg.fault_plan.site_actions()
            if site_actions:
                self._last_action_at = max(a.until for a in site_actions)
        self._heartbeat_procs = [
            self.env.process(self._heartbeat_loop(site)) for site in sites
        ]
        self._monitor_proc = self.env.process(self._monitor_loop())
        self._sweep_proc = self.env.process(self._sweep_loop())

    # -- heartbeat emission ----------------------------------------------
    def _heartbeat_loop(self, site: str):
        server = self.server
        cfg = self.cfg
        node = server.node_of(site)
        seq = 0
        try:
            while True:
                interval = cfg.heartbeat_interval
                if cfg.heartbeat_jitter:
                    interval *= 1.0 + self.rng.uniform(
                        f"faults.heartbeat.{site}",
                        -cfg.heartbeat_jitter,
                        cfg.heartbeat_jitter,
                    )
                yield self.env.timeout(interval)
                if server.transport.node_down(node.name):
                    continue  # a crashed site emits nothing
                seq += 1
                # emission charges the site's CPU: an overloaded or
                # paused site beats late, which is what hysteresis is for
                yield from node.execute(node.costs.control_fixed)
                server.metrics.heartbeats_sent += 1
                yield from server.transport.send(
                    node,
                    MONITOR_ENDPOINT,
                    Message(
                        kind="control",
                        payload=Heartbeat(site=site, seq=seq, sent_at=self.env.now),
                        size=HEARTBEAT_SIZE,
                    ),
                )
        except Interrupt:
            return  # quiescence: the sweep loop retired the emitters

    # -- verdicts ---------------------------------------------------------
    def _monitor_loop(self):
        try:
            while True:
                msg = yield self.monitor_ep.inbox.get()
                beat = msg.payload
                if isinstance(beat, Heartbeat):
                    tr = self.detector.heartbeat(beat.site, beat.seq, self.env.now)
                    if tr is not None:
                        self._apply_transition(tr)
        except Interrupt:
            return

    def _sweep_loop(self):
        sweep = self.cfg.detection_sweep
        while True:
            yield self.env.timeout(sweep)
            for tr in self.detector.evaluate(self.env.now):
                self._apply_transition(tr)
            if self._quiescent():
                for proc in self._heartbeat_procs:
                    if proc.is_alive:
                        proc.interrupt("quiescent")
                if self._monitor_proc.is_alive:
                    self._monitor_proc.interrupt("quiescent")
                return

    def _apply_transition(self, tr: Transition) -> None:
        self.membership.mark(tr.site, tr.new, tr.at)
        if tr.new != SITE_DEAD:
            return
        crash_at = self._crash_times.pop(tr.site, None)
        if crash_at is not None:
            self.server.metrics.detection_latencies.append(tr.at - crash_at)
        if tr.site == self.server.primary_site:
            if not self.failover_active:
                self.failover_active = True
                failed_at = crash_at if crash_at is not None else tr.at
                self.env.process(self._failover_process(tr.site, failed_at))
        else:
            self._mirror_death(tr.site)

    def on_crash(self, site: str, at: float) -> None:
        """Injector notification: a crash happened (detection pending).

        ``site`` may be shard-qualified (``shard0/mirror1``); it is
        resolved exactly against this cluster's shard."""
        self._crash_times[resolve_site(site, self.shard)] = at

    # -- failover ---------------------------------------------------------
    def _failover_process(self, dead: str, failed_at: float):
        server = self.server
        env = self.env
        metrics = server.metrics

        # 1. degraded mode on every site still serving
        for site in self.membership.serving_sites():
            server.main_of(site).degraded = True

        # 2. choose and prepare the new primary
        survivors = [
            s for s in self.membership.serving_sites() if s != dead
        ]
        if not survivors:
            # nobody left to promote: the source abandons its stream
            server._ingest_abandoned = True
            self.failover_active = False
            return
        candidates: Dict[str, MainUnitCheckpointer] = {
            s: server.main_of(s).checkpointer for s in survivors
        }
        backups: Dict[str, BackupQueue] = {
            s: server.aux_of(s).backup for s in survivors
        }
        stores = {s: server.main_of(s).ede.state for s in survivors}
        last_commit = self._last_commit(dead)
        report = promote_mirror(
            candidates, backups, last_commit, stores=stores, now=env.now
        )
        self.promotion_reports.append(report)
        self.committed_loss_free = (
            self.committed_loss_free and report.committed_loss_free
        )
        new = report.new_primary
        new_main = server.main_of(new)

        # 3. replay, filtered against the new primary's own pipeline
        pipeline = self._pipeline_uids(new)
        replay = [
            ev for ev in report.replay_into_ede if ev.uid not in pipeline
        ]
        fetch: List[UpdateEvent] = []
        for peer_events in report.fetch_from_peers.values():
            fetch.extend(ev for ev in peer_events if ev.uid not in pipeline)

        # promotion target: everything the new primary is about to hold
        target = candidates[new].processed_vt.merge(
            last_commit if last_commit is not None else VectorTimestamp()
        )
        for ev in replay:
            target = target.advanced(ev.stream, ev.seqno)
        for ev in fetch:
            target = target.advanced(ev.stream, ev.seqno)

        # 4. re-point the server (channel membership, coordinator role)
        participants = set(survivors)
        server.promote_site(new, participants, resume_vt=target)
        self.membership.promote(new, env.now)

        # replay from the new primary's own backup queue is local: the
        # events are already in site memory, so they go straight into the
        # main unit's inbox (its EDE cost is still charged on arrival)
        main_inbox = server.transport.endpoint(f"{new}.main").inbox
        for ev in replay:
            yield main_inbox.put(
                Message(kind="data", payload=ev, size=ev.size)
            )
        # events only peers hold cross the wire from a surviving peer
        for peer, events in report.fetch_from_peers.items():
            peer_node = server.node_of(peer)
            for ev in events:
                if ev.uid in pipeline:
                    continue
                yield from server.transport.send(
                    peer_node,
                    f"{new}.aux.data",
                    Message(kind="data", payload=ev, size=ev.size),
                )

        # 5. salvaged in-flight source events re-enter *before* the held
        # source stream resumes, preserving arrival order
        injector = server.fault_injector
        salvage = injector.take_salvage(dead) if injector is not None else None
        aux_inbox = server.transport.endpoint(f"{new}.aux.data").inbox
        if salvage is not None:
            for msg in salvage.raw_messages:
                yield aux_inbox.put(msg)
            if salvage.eos:
                yield aux_inbox.put(Message(kind="data", payload=EOS, size=0))
        server.ingest = f"{new}.aux.data"

        # 6. requests: re-target the balancer, re-issue the dead letters
        self._retarget_requests()
        yield from self._reissue_dead_letters()

        # 7. catch-up: degraded mode ends when the new primary's progress
        # dominates the promotion target
        while not new_main.checkpointer.processed_vt.dominates(target):
            yield env.timeout(self.cfg.detection_sweep)
        for site in self.membership.serving_sites():
            server.main_of(site).degraded = False
        metrics.failovers += 1
        # failover time is the full unavailability window: from the crash
        # instant (not the verdict) until the new primary has caught up
        metrics.failover_times.append(env.now - failed_at)
        self.failover_active = False

    def _mirror_death(self, site: str) -> None:
        """A non-primary site died: shrink membership, re-route load."""
        server = self.server
        server.mirror_channel.unsubscribe(f"{site}.aux.data")
        server.ctrl_channel.unsubscribe(f"{site}.aux.ctrl")
        primary = server.aux_of(server.primary_site)
        commit = primary.primary_core.leave(site)
        if commit is not None:
            # the dead site was the last missing vote: broadcast the
            # completed round so survivors trim their backups
            self.env.process(primary._broadcast_commit(commit))
        self._retarget_requests()
        self.env.process(self._reissue_dead_letters())

    def _last_commit(self, dead: str) -> Optional[VectorTimestamp]:
        """The latest committed vector: the survivors' ground truth is
        whatever the (dead) coordinator last broadcast — readable here
        because commits are applied everywhere before backups trim."""
        return self.server.aux_of(dead).primary_core.coordinator.last_commit

    def _current_coordinator(self):
        return self.server.aux_of(self.server.primary_site).primary_core.coordinator

    def _pipeline_uids(self, site: str) -> Set[int]:
        """Uids of events anywhere in ``site``'s processing pipeline —
        the replay filter that prevents double-feeding the EDE."""
        server = self.server
        aux = server.aux_of(site)
        main = server.main_of(site)
        uids: Set[int] = set()

        def note(payload) -> None:
            if isinstance(payload, EventBatch):
                for ev in payload.events:
                    uids.add(ev.uid)
            elif isinstance(payload, UpdateEvent):
                uids.add(payload.uid)

        for msg in aux.data_in.inbox.items:
            note(msg.payload)
        for item in aux.ready.items:
            note(item)
        for msg in main.inbox.inbox.items:
            note(msg.payload)
        uids.add(main._processing_uid)
        uids.add(aux._forwarding_uid)
        return uids

    # -- request routing --------------------------------------------------
    def _retarget_requests(self) -> None:
        from ..workload import RoundRobinBalancer

        server = self.server
        serving = self.membership.serving_sites()
        if server.config.request_target == "mirrors":
            targets = [
                f"{s}.requests" for s in serving if s != server.primary_site
            ]
            if not targets:
                targets = [f"{server.primary_site}.requests"]
        else:
            primary = server.primary_site
            site = primary if primary in serving else (serving or ["central"])[0]
            targets = [f"{site}.requests"]
        server.request_balancer = RoundRobinBalancer(targets)

    def _reissue_dead_letters(self):
        """Re-route parked client requests to surviving sites."""
        server = self.server
        for letter in server.transport.take_dead_letters():
            request = letter.payload
            if not isinstance(request, InitStateRequest):
                continue  # data/control to a dead node: lost, by design
            server.metrics.requests_redirected += 1
            ep = server.transport.endpoint(server.request_balancer.pick())
            yield ep.inbox.put(
                Message(kind="data", payload=request, size=letter.size)
            )

    # -- rejoin -----------------------------------------------------------
    def rejoin_site(self, site: str) -> None:
        """Bring a restarted site back as a mirror of the current
        primary.  ``site`` may be shard-qualified."""
        self.env.process(self._rejoin_process(resolve_site(site, self.shard)))

    def _rejoin_process(self, site: str):
        server = self.server
        env = self.env
        primary = server.primary_site
        p_main = server.main_of(primary)
        p_aux = server.aux_of(primary)
        aux = server.aux_of(site)
        main = server.main_of(site)

        # subscribe *before* snapshotting: anything published in between
        # lands in both, and the rejoin filter drops the duplicate
        server.mirror_channel.subscribe(f"{site}.aux.data")
        server.ctrl_channel.subscribe(f"{site}.aux.ctrl")

        snapshot = p_main.ede.state.snapshot(env.now)
        coordinator = self._current_coordinator()
        last_commit = coordinator.last_commit
        plan = plan_client_rejoin(
            VectorTimestamp(dict(snapshot.as_of)), p_aux.backup, last_commit
        )

        # rebuild the site's state from the snapshot; the EDE's partial
        # arrival digests are not part of the snapshot (they are rule
        # *working* state, not operational state), so the state transfer
        # copies them from the primary — otherwise a flight that was
        # mid-arrival-sequence at snapshot time could never complete its
        # sequence on the rejoined replica and the digests would diverge
        main.ede = EventDerivationEngine(state=load_snapshot(snapshot))
        main.ede._arrival_seen = {
            fid: set(seen) for fid, seen in p_main.ede._arrival_seen.items()
        }
        main.checkpointer = aux.checkpointer = MainUnitCheckpointer(site)
        rejoin_vt = VectorTimestamp(dict(snapshot.as_of))
        for stream, seq in sorted(snapshot.as_of.items()):
            main.checkpointer.note_processed(stream, seq)
        aux.backup = BackupQueue()
        for ev in plan.replay_events:
            rejoin_vt = rejoin_vt.advanced(ev.stream, ev.seqno)
        aux._rejoin_filter_vt = rejoin_vt
        aux._fresh_uids.clear()
        aux._forwarding_uid = -1
        main._processing_uid = -1

        main.start_processes()
        aux.start_processes()

        # replay the backed-up tail straight into the site's main unit
        main_inbox = server.transport.endpoint(f"{site}.main").inbox
        for ev in plan.replay_events:
            yield main_inbox.put(Message(kind="data", payload=ev, size=ev.size))

        # membership: alive again, and a checkpoint participant again (a
        # round wedged by the grown set is superseded at the next cadence)
        self.detector.mark_restarted(site, env.now)
        self.membership.mark(site, SITE_ALIVE, env.now)
        coordinator.set_participants(set(self.membership.serving_sites()) | {primary})
        self._retarget_requests()

    # -- quiescence -------------------------------------------------------
    def _quiescent(self) -> bool:
        server = self.server
        if self.failover_active or not server.source_done:
            return False
        if self.env.now < self._last_action_at:
            return False
        if server._ingest_abandoned:
            # every site is dead: nothing can finish the stream or serve
            # the parked requests, so there is nothing left to wait for
            return server._request_driver_done
        if not server.stream_done_event().triggered:
            return False
        if not server._request_driver_done:
            return False
        if self.monitor_ep.inbox.level > 0:
            return False
        for site in self.membership.serving_sites():
            # a down site the detector has not adjudicated yet (e.g. a
            # crash landing after the stream drained) keeps the monitor
            # alive until its verdict — and any failover — completes
            if server.transport.node_down(server.node_of(site).name):
                return False
        if server.transport.dead_letters:
            return False
        for site in self.membership.serving_sites():
            if server.main_of(site).pending_requests() > 0:
                return False
        return True

    # -- reporting --------------------------------------------------------
    def finalize(self, metrics) -> None:
        metrics.committed_loss_free = self.committed_loss_free
        metrics.membership_log = list(self.membership.log)
