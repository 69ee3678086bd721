"""Application-level update events and vector timestamps.

The paper's framework operates on *update events*: typed records flowing
from data sources (two streams in the evaluation — FAA flight positions
and Delta internal flight status) into the central site, where the
receiving task timestamps them.  Timestamps are vectors with one
component per incoming stream; event order within a stream is given by
per-stream sequence identifiers (§3.3 of the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "EventKind",
    "UpdateEvent",
    "VectorTimestamp",
    "EventBatch",
    "MIRROR_BATCH_HEADER",
    "FAA_POSITION",
    "DELTA_STATUS",
    "DERIVED",
    "HANDOFF",
]

# Well-known event kinds used throughout the OIS application.  Kinds are
# plain strings so applications can add their own without registration.
FAA_POSITION = "faa.position"
DELTA_STATUS = "delta.status"
DERIVED = "derived"
#: Airport-handoff control event: the flight named by ``key`` is now
#: worked from the airport in ``payload["airport"]``.  In a sharded
#: cluster this is the event that can move a flight's ownership between
#: central shards (:mod:`repro.shard`); unsharded servers apply it as a
#: plain state update.
HANDOFF = "ois.handoff"

#: Alias kept for API readability: the Table-1 calls take an ``ev_type``.
EventKind = str

_event_uids = itertools.count()


class VectorTimestamp:
    """Vector timestamp: per-stream high-water marks.

    The component for stream *s* is the sequence number of the latest
    event from *s* covered by this timestamp.  The checkpoint protocol
    agrees on a componentwise-minimum vector; an event is *covered* by a
    vector when its own (stream, seqno) is at or below that component.
    """

    __slots__ = ("_clock",)

    def __init__(self, clock: Optional[Mapping[str, int]] = None):
        self._clock: Dict[str, int] = dict(clock) if clock else {}
        for stream, seq in self._clock.items():
            if seq < 0:
                raise ValueError(f"negative sequence for stream {stream!r}")

    # -- accessors -----------------------------------------------------
    def component(self, stream: str) -> int:
        """Sequence high-water mark for ``stream`` (0 when unseen)."""
        return self._clock.get(stream, 0)

    def streams(self) -> Iterable[str]:
        """Streams with a recorded (non-zero at construction) component."""
        return self._clock.keys()

    def as_dict(self) -> Dict[str, int]:
        """Plain ``{stream: seqno}`` copy of the clock."""
        return dict(self._clock)

    # -- algebra ---------------------------------------------------------
    @classmethod
    def _wrap(cls, clock: Dict[str, int]) -> "VectorTimestamp":
        """Adopt ``clock`` without copying or validating (internal fast
        path: callers guarantee non-negative components)."""
        vt = cls.__new__(cls)
        vt._clock = clock
        return vt

    @classmethod
    def from_wire(cls, clock: Dict[str, int]) -> "VectorTimestamp":
        """Codec hook (:mod:`repro.wire`): adopt a decoded component
        mapping.  Components came off the wire as unsigned varints, so
        the non-negativity invariant already holds."""
        return cls._wrap(clock)

    def advanced(self, stream: str, seqno: int) -> "VectorTimestamp":
        """A copy with ``stream``'s component raised to ``seqno``.

        Raising to a lower value is a no-op (components never regress).
        """
        if seqno < 0:
            raise ValueError("seqno must be >= 0")
        clock = self._clock.copy()
        if seqno > clock.get(stream, 0):
            clock[stream] = seqno
        return VectorTimestamp._wrap(clock)

    def advance(self, stream: str, seqno: int) -> "VectorTimestamp":
        """In-place :meth:`advanced`; returns self.

        Allocation-free, so it is the right call in per-event loops —
        but only on timestamps that are *private* to the caller.  A
        timestamp already attached to an event (or proposed to the
        checkpoint protocol) must never be advanced in place: events
        carry snapshots of the clock at stamping time.
        """
        if seqno < 0:
            raise ValueError("seqno must be >= 0")
        if seqno > self._clock.get(stream, 0):
            self._clock[stream] = seqno
        return self

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Componentwise maximum (classic vector-clock merge)."""
        clock = self._clock.copy()
        for stream, seq in other._clock.items():
            if seq > clock.get(stream, 0):
                clock[stream] = seq
        return VectorTimestamp._wrap(clock)

    def floor(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Componentwise minimum — the checkpoint agreement operator.

        Streams absent from either side floor to 0 and are dropped.
        """
        ours, theirs = self._clock, other._clock
        clock = {}
        for stream, seq in ours.items():
            m = theirs.get(stream, 0)
            if m > seq:
                m = seq
            if m > 0:
                clock[stream] = m
        return VectorTimestamp._wrap(clock)

    def covers(self, stream: str, seqno: int) -> bool:
        """True when an event (stream, seqno) is at/below this vector."""
        return seqno <= self._clock.get(stream, 0)

    def dominates(self, other: "VectorTimestamp") -> bool:
        """True when every component is >= the other's (partial order)."""
        ours = self._clock
        for stream, seq in other._clock.items():
            if ours.get(stream, 0) < seq:
                return False
        return True

    # -- dunder ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        ours, theirs = self._clock, other._clock
        if ours == theirs:
            return True
        # zero components are representational noise: {a:0} == {}
        return {s: q for s, q in ours.items() if q} == {
            s: q for s, q in theirs.items() if q
        }

    def __hash__(self) -> int:
        return hash(frozenset((s, q) for s, q in self._clock.items() if q))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}:{q}" for s, q in sorted(self._clock.items()))
        return f"VT({inner})"


@dataclass(slots=True)
class UpdateEvent:
    """One application-level update event.

    Attributes
    ----------
    kind:
        Event type tag, e.g. :data:`FAA_POSITION`.  Semantic rules key on
        it (``set_overwrite(ev_type, ...)``).
    stream:
        Name of the incoming stream this event arrived on.
    seqno:
        Stream-unique, monotonically increasing identifier (the paper
        assumes in-stream order is captured by per-stream event ids).
    key:
        Entity key the event is *about* — a flight id for both FAA and
        Delta streams.  Overwrite/coalesce rules group by it.
    payload:
        Application data (position fix, status change...).
    size:
        Wire size in bytes; drives all communication/CPU costs.
    vt:
        Vector timestamp assigned by the receiving task at the central
        site (None until stamped).
    entered_at:
        Simulation time the event entered the OIS — update-delay
        measurements (Figure 8/9) start here.
    coalesced_from:
        Number of original events represented (1 for plain events, >1
        for combined/complex events).
    """

    kind: EventKind
    stream: str
    seqno: int
    key: str
    payload: Dict[str, Any] = field(default_factory=dict)
    size: int = 1024
    vt: Optional[VectorTimestamp] = None
    entered_at: float = 0.0
    coalesced_from: int = 1
    uid: int = field(default_factory=_event_uids.__next__)

    def __post_init__(self):
        if self.seqno < 0:
            raise ValueError("seqno must be >= 0")
        if self.size < 0:
            raise ValueError("size must be >= 0")
        if self.coalesced_from < 1:
            raise ValueError("coalesced_from must be >= 1")

    @classmethod
    def unchecked(
        cls,
        kind: EventKind,
        stream: str,
        seqno: int,
        key: str,
        payload: Dict[str, Any],
        size: int = 1024,
        vt: Optional[VectorTimestamp] = None,
        entered_at: float = 0.0,
        coalesced_from: int = 1,
    ) -> "UpdateEvent":
        """Validation-free constructor for internal hot paths.

        The rule pipeline and the copy helpers build events from fields
        that are already validated (they came out of other events), so
        re-running ``__post_init__`` per event is pure overhead.  The
        payload dict is adopted, not copied.
        """
        ev = object.__new__(cls)
        ev.kind = kind
        ev.stream = stream
        ev.seqno = seqno
        ev.key = key
        ev.payload = payload
        ev.size = size
        ev.vt = vt
        ev.entered_at = entered_at
        ev.coalesced_from = coalesced_from
        ev.uid = next(_event_uids)
        return ev

    @classmethod
    def from_wire(
        cls,
        kind: EventKind,
        stream: str,
        seqno: int,
        key: str,
        payload: Dict[str, Any],
        size: int,
        vt: Optional[VectorTimestamp],
        entered_at: float,
        coalesced_from: int,
        uid: int,
    ) -> "UpdateEvent":
        """Codec hook (:mod:`repro.wire`): rebuild a decoded event.

        Unlike :meth:`unchecked`, the *sender's* ``uid`` is preserved so
        an event keeps its identity across a process boundary (crash
        triage and replay dedup key on it).  Uids minted locally after a
        decode come from this process's counter, so they identify events
        *created here* — cross-process uniqueness holds as long as
        events are born at one source, which is the runtime's topology.
        """
        ev = object.__new__(cls)
        ev.kind = kind
        ev.stream = stream
        ev.seqno = seqno
        ev.key = key
        ev.payload = payload
        ev.size = size
        ev.vt = vt
        ev.entered_at = entered_at
        ev.coalesced_from = coalesced_from
        ev.uid = uid
        return ev

    def stamped(self, vt: VectorTimestamp, entered_at: float) -> "UpdateEvent":
        """Copy with vector timestamp and entry time set (receiving task)."""
        ev = object.__new__(UpdateEvent)
        ev.kind = self.kind
        ev.stream = self.stream
        ev.seqno = self.seqno
        ev.key = self.key
        ev.payload = self.payload
        ev.size = self.size
        ev.vt = vt
        ev.entered_at = entered_at
        ev.coalesced_from = self.coalesced_from
        ev.uid = self.uid  # same logical event
        return ev

    def with_payload(self, **updates: Any) -> "UpdateEvent":
        """Copy with payload fields merged in."""
        merged = dict(self.payload)
        merged.update(updates)
        return replace(self, payload=merged)

    def __repr__(self) -> str:
        return (
            f"UpdateEvent({self.kind}, {self.stream}#{self.seqno}, "
            f"key={self.key!r}, size={self.size})"
        )


#: Wire bytes charged once per mirror batch: framing plus the per-event
#: offset table a real serializer would prepend.  Small against event
#: sizes (paper events are 1 KB+), so batching B events saves close to
#: (B-1) per-message latencies for one extra header.
MIRROR_BATCH_HEADER = 64


@dataclass(slots=True)
class EventBatch:
    """Several mirror events travelling as one wire message.

    The sending task drains up to ``batch_size`` ready events into one
    batch so the per-message overheads of the mirror channel — fixed
    serialization cost, link latency, one delivery wakeup — are paid
    once per batch instead of once per event.  Receivers unpack and
    process the contained events exactly as if they had arrived
    individually, so batching changes *when* bytes move, never *what*
    is mirrored.
    """

    events: List[UpdateEvent]

    def __post_init__(self):
        if not self.events:
            raise ValueError("an EventBatch needs at least one event")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def size(self) -> int:
        """Wire size: sum of the member event sizes + one batch header."""
        return sum(ev.size for ev in self.events) + MIRROR_BATCH_HEADER
