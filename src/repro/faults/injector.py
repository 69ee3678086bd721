"""Sim-time fault realisation: crash, pause and restart site processes.

The injector turns a plan's *site* actions into scheduled processes on a
built :class:`~repro.core.system.MirroredServer`:

* **crash** — fail-stop: the transport marks the node down, every unit
  process on the site is interrupted, and all of its queues are
  crash-drained (waking blocked peers so the rest of the cluster never
  deadlocks on a dead inbox).  Drained raw source events and a drained
  end-of-stream marker are *salvaged* — with the source's flow control
  holding new events back, the failover supervisor can re-feed them to
  the promoted primary in order.  Drained client requests move to the
  transport's dead letters for re-issue.  Drained *stamped* events are
  counted as lost: they were timestamped but never mirrored, so they sit
  above every commit — uncommitted loss, exactly the slice the paper's
  checkpoint guarantee does not cover.
* **pause** — all CPU slots of the site's node are seized for the
  duration: everything the site runs (heartbeat emission included)
  freezes, which is how a detector gets exercised against stalls that
  are *not* deaths.
* **restart** — the node comes back up and the site's processes are
  respawned; when a failover supervisor is present the site rejoins
  properly (snapshot + replay from the current primary), otherwise it
  resumes with whatever state it had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cluster import Message
from ..core.events import EOS, EventBatch, UpdateEvent
from ..ois.clients import InitStateRequest
from .plan import CRASH_SITE, PAUSE_SITE, RESTART_SITE, FaultAction, FaultPlan
from .siteid import resolve_site

__all__ = ["FaultRecord", "FaultInjector"]


@dataclass(slots=True)
class FaultRecord:
    """What one executed site action actually did."""

    at: float
    kind: str
    site: str
    #: in-flight raw source messages salvaged from the dead site
    salvaged_events: int = 0
    #: stamped-but-unmirrored events lost with the site (uncommitted)
    lost_stamped: int = 0
    #: client requests moved to the dead letters for re-issue
    parked_requests: int = 0
    #: True when the end-of-stream marker was caught in the wreckage
    salvaged_eos: bool = False


@dataclass(slots=True)
class _Salvage:
    """In-flight material recovered from a crashed site, held for the
    failover supervisor (re-fed to the promoted primary, in order)."""

    raw_messages: List[Message] = field(default_factory=list)
    eos: bool = False


class FaultInjector:
    """Executes a plan's site actions against a built server."""

    def __init__(self, server, plan: FaultPlan):
        self.server = server
        self.plan = plan
        self.env = server.env
        self.records: List[FaultRecord] = []
        #: per-site crash times, for detection-latency measurement
        self.crash_times: Dict[str, List[float]] = {}
        #: per-site salvage awaiting the failover supervisor
        self.salvage: Dict[str, _Salvage] = {}
        #: shard this cluster represents; plan actions may use
        #: shard-qualified site ids, resolved exactly against it
        self.shard = getattr(server.config, "shard", "")
        for action in plan.site_actions():
            # resolve eagerly so a drill targeting the wrong shard fails
            # at build time, not mid-simulation
            self.env.process(
                self._run_action(action, resolve_site(action.site or "", self.shard))
            )

    # -- scheduling -------------------------------------------------------
    def _run_action(self, action: FaultAction, site: str):
        if action.at > self.env.now:
            yield self.env.timeout(action.at - self.env.now)
        if action.kind == CRASH_SITE:
            self._crash(action, site)
        elif action.kind == PAUSE_SITE:
            self._pause(action, site)
        elif action.kind == RESTART_SITE:
            self._restart(action, site)

    # -- crash ------------------------------------------------------------
    def _crash(self, action: FaultAction, site: str) -> None:
        server = self.server
        node = server.node_of(site)
        server.transport.set_node_down(node.name, down=True)

        main = server.main_of(site)
        aux = server.aux_of(site)
        for proc in list(main.processes) + list(aux.processes):
            if proc.is_alive:
                proc.interrupt(f"fault: crash {site}")

        record = FaultRecord(at=self.env.now, kind=CRASH_SITE, site=site)
        salvage = self.salvage.setdefault(site, _Salvage())
        held = self._survivor_held_uids(site)
        seen: set = set()
        # queue contents first: a drained copy of an event is further
        # along its pipeline than the in-hand copy of the same uid (e.g.
        # the stamped event in a blocked ready-queue put vs the raw
        # message the receiving task still holds), and the triage keeps
        # whichever copy it meets first
        for ep in server.transport.endpoints_on(node.name):
            for item in ep.inbox.crash_drain():
                self._triage(item, record, salvage, held, seen)
        for item in aux.ready.crash_drain():
            self._triage(item, record, salvage, held, seen)
        # material a fail-stop interrupt caught *in hand* — popped from
        # one queue but not yet placed in the next; without these slots
        # an event could vanish from the books entirely
        recv_in_hand = getattr(aux, "_recv_in_hand", None)
        if recv_in_hand is not None:
            self._triage(recv_in_hand, record, salvage, held, seen)
        send_in_hand = getattr(aux, "_send_in_hand", None)
        if send_in_hand is not None:
            self._triage(send_in_hand, record, salvage, held, seen)
        for item in getattr(aux, "_mirror_in_hand", ()):
            self._triage(item, record, salvage, held, seen)
        # requests caught mid-service (popped from the inbox, inside
        # _serve_request when the worker was interrupted): no response
        # ever left, so park them for re-issue like the queued ones
        for msg in main._serving_msgs:
            server.transport.dead_letters.append(msg)
            record.parked_requests += 1
        main._serving_msgs.clear()
        main._requests_in_service = 0

        self.records.append(record)
        self.crash_times.setdefault(site, []).append(self.env.now)
        server.metrics.sites_crashed += 1
        supervisor = server.failover_supervisor
        if supervisor is not None:
            supervisor.on_crash(site, self.env.now)

    def _triage(
        self, item, record: FaultRecord, salvage: _Salvage,
        held: set, seen: set,
    ) -> None:
        """Sort one drained or in-hand item into salvage / dead letters /
        loss.  ``seen`` dedups by uid: the same logical event can surface
        both from a queue drain and an in-hand slot.  ``held`` is the set
        of uids some *survivor* still holds — a stamped event a survivor
        replicates is not lost with the site, the promoted primary will
        cover it (mirrored-but-uncommitted events cannot have been
        trimmed from survivor backups: a commit is a floor over vectors
        the participants actually processed)."""
        payload = item.payload if isinstance(item, Message) else item
        if payload == EOS:
            salvage.eos = True
            record.salvaged_eos = True
            return
        if isinstance(payload, InitStateRequest):
            if isinstance(item, Message):
                self.server.transport.dead_letters.append(item)
            record.parked_requests += 1
            return
        if isinstance(payload, UpdateEvent):
            if payload.uid in seen:
                return
            seen.add(payload.uid)
            if payload.vt is None and isinstance(item, Message):
                salvage.raw_messages.append(item)
                record.salvaged_events += 1
            elif payload.uid not in held:
                record.lost_stamped += 1
            return
        # control messages, batches, anything else: lost with the site

    def _survivor_held_uids(self, dead_site: str) -> set:
        """Uids of stamped events any *surviving* site still holds, in a
        structure that outlives the crash: backup queues, data inboxes,
        ready queues and main-unit inboxes (buffered items plus admitted
        blocked puts)."""
        server = self.server
        held: set = set()

        def note(payload) -> None:
            if isinstance(payload, EventBatch):
                for ev in payload.events:
                    held.add(ev.uid)
            elif isinstance(payload, UpdateEvent):
                held.add(payload.uid)

        def note_store(store) -> None:
            for item in store.items:
                note(item.payload if isinstance(item, Message) else item)
            for put in store._put_queue:
                item = put.item
                note(item.payload if isinstance(item, Message) else item)

        for site, aux in server.auxes.items():
            if site == dead_site:
                continue
            if server.transport.node_down(server.node_of(site).name):
                continue
            for ev in aux.backup.events():
                held.add(ev.uid)
            note_store(aux.data_in.inbox)
            note_store(aux.ready)
            note_store(server.main_of(site).inbox.inbox)
        return held

    def take_salvage(self, site: str) -> Optional[_Salvage]:
        """Hand the supervisor whatever was recovered from ``site``."""
        return self.salvage.pop(site, None)

    # -- pause ------------------------------------------------------------
    def _pause(self, action: FaultAction, site: str) -> None:
        node = self.server.node_of(site)
        self.records.append(
            FaultRecord(at=self.env.now, kind=PAUSE_SITE, site=site)
        )
        for _ in range(node.cpu.capacity):
            self.env.process(node.cpu.acquire(action.duration))

    # -- restart ----------------------------------------------------------
    def _restart(self, action: FaultAction, site: str) -> None:
        server = self.server
        node = server.node_of(site)
        if not server.transport.node_down(node.name):
            return  # restart of a site that never crashed: no-op
        server.transport.set_node_down(node.name, down=False)
        self.records.append(
            FaultRecord(at=self.env.now, kind=RESTART_SITE, site=site)
        )
        supervisor = server.failover_supervisor
        if supervisor is not None:
            supervisor.rejoin_site(site)
        else:
            # blind restart: fresh processes over whatever state survived
            server.main_of(site).start_processes()
            server.aux_of(site).start_processes()

    # -- reporting --------------------------------------------------------
    def finalize(self, metrics) -> None:
        metrics.faults_injected += len(self.records)
