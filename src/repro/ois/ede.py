"""Event Derivation Engine: the OIS 'business logic' (§2).

The EDE performs "transactional and analytical processing of newly
arrived data events, according to a set of business rules".  The two
representative rules the paper names are implemented:

* *boarding complete* — "determines from multiple events received from
  gate readers that all passengers of a flight have boarded";
* *flight arrived* — the landed / at-runway / at-gate sequence collapses
  into a single arrival fact (the complex event of §3.2.1 when derived
  here rather than in the auxiliary unit).

``process`` returns the output events the EDE publishes: the state
update corresponding to the input plus any derived events.  Every mirror
runs the same EDE over the same mirrored events, so "all mirrors produce
the same output events, and produce identical modifications to their
locally maintained application states" — a property the integration
tests assert directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.events import DELTA_STATUS, UpdateEvent
from .state import OperationalStateStore

__all__ = ["DerivedEvents", "EventDerivationEngine"]

BOARDING_COMPLETE = DELTA_STATUS + ".boarding_complete"
FLIGHT_ARRIVED = DELTA_STATUS + ".arrived"

#: Wire size of derived notification events (small, fixed records).
DERIVED_EVENT_SIZE = 256

#: Wire size of the state-update events the EDE publishes to regular
#: clients.  The EDE's outputs are *derived operational-state updates*
#: (the paper distinguishes incoming data events from "the resulting
#: updates of operational state"), compact regardless of how large the
#: raw input event was.
UPDATE_DELTA_SIZE = 256

_ARRIVAL_SEQUENCE = ("flight landed", "flight at runway", "flight at gate")


class EventDerivationEngine:
    """Deterministic business logic over an operational state store."""

    #: advertises the ``process(event, emit_update=False)`` fast path to
    #: event loops whose outputs are discarded (duck-typed engines
    #: without this flag always get the plain ``process(event)`` call)
    supports_discard = True

    def __init__(self, state: Optional[OperationalStateStore] = None):
        self.state = state if state is not None else OperationalStateStore()
        self._arrival_seen: dict[str, set] = {}
        self.processed = 0
        self.derived = 0

    def process(self, event: UpdateEvent,
                emit_update: bool = True) -> List[UpdateEvent]:
        """Apply ``event``; returns output events (update + derivations).

        The first output is always the state-update event corresponding
        to the input (what regular clients receive); derived events
        follow.  Sites that discard the update stream (mirror main
        units with ``distribute_updates`` off) pass ``emit_update=False``
        to skip building that per-event copy: state transitions,
        derivation side effects and the ``processed``/``derived``
        counters are identical either way.
        """
        self.processed += 1
        flight = self.state.apply(event)
        if not emit_update:
            derived = self._derive(event, flight)
            self.derived += len(derived)
            return derived
        # the update snapshots the payload *before* derivation rules
        # annotate it (e.g. _boarding_announced)
        update = UpdateEvent(
            kind=event.kind,
            stream=event.stream,
            seqno=event.seqno,
            key=event.key,
            payload=dict(event.payload),
            size=min(event.size, UPDATE_DELTA_SIZE),
            vt=event.vt,
            entered_at=event.entered_at,
            coalesced_from=event.coalesced_from,
        )
        derived = self._derive(event, flight)
        self.derived += len(derived)
        return [update] + derived

    def process_many(self, events, note_processed=None, derived=None) -> int:
        """Discard-mode bulk apply of a run: one
        :meth:`OperationalStateStore.apply_run` call.

        The state, the ``processed``/``derived`` counters and the
        derived events (appended to ``derived`` when it is a list, in
        order; dropped otherwise) are those of
        ``process(event, emit_update=False)`` per member, as of the
        run's end.  A position fix no rule reads is not derived over,
        and ``note_processed(stream, seqno)`` is invoked once per
        stream with the run's highest seqno, so checkpoint floors end
        where the per-event loop leaves them.  Returns the number
        processed.
        """
        self.derived += self.state.apply_run(
            events, self._derive, note_processed, derived
        )
        n = len(events)
        self.processed += n
        return n

    def _derive(self, event: UpdateEvent, flight) -> List[UpdateEvent]:
        out: List[UpdateEvent] = []
        payload = event.payload

        # Rule 1: all passengers boarded.
        if (
            payload.get("passenger_boarded")
            and flight.boarding_complete
            and not payload.get("_boarding_announced")
        ):
            payload["_boarding_announced"] = True
            out.append(self._derived_event(event, BOARDING_COMPLETE, {
                "status": "boarding complete",
                "passengers": flight.passengers_boarded,
            }))

        # Rule 2: arrival sequence complete.
        status = payload.get("status")
        if status in _ARRIVAL_SEQUENCE and not flight.arrived:
            seen = self._arrival_seen.setdefault(flight.flight_id, set())
            seen.add(status)
            if len(seen) == len(_ARRIVAL_SEQUENCE):
                flight.arrived = True
                # direct record mutation: advance the store generation so
                # cached/delta snapshot views stay coherent
                self.state.touch(flight.flight_id)
                out.append(self._derived_event(event, FLIGHT_ARRIVED, {
                    "status": "flight arrived",
                    "arrived": True,
                }))

        # A complex event built upstream (aux-unit tuple rule) also marks
        # arrival; keep the engines idempotent about it.
        if event.kind.endswith("arrived"):
            self._arrival_seen.pop(flight.flight_id, None)

        return out

    @staticmethod
    def _derived_event(source: UpdateEvent, kind: str, payload: dict) -> UpdateEvent:
        return UpdateEvent(
            kind=kind,
            stream=source.stream,
            seqno=source.seqno,
            key=source.key,
            payload=payload,
            size=DERIVED_EVENT_SIZE,
            vt=source.vt,
            entered_at=source.entered_at,
        )

    # -- digest for replica-consistency checks --------------------------
    def state_digest(self) -> tuple:
        """Hashable summary of EDE state for cross-mirror comparison."""
        flights = tuple(
            (
                f.flight_id,
                f.status,
                f.passengers_boarded,
                f.arrived,
                tuple(sorted((f.position or {}).items())),
            )
            for f in sorted(self.state.flights(), key=lambda f: f.flight_id)
        )
        return flights
