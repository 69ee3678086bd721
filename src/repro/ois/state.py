"""Operational state store: the replicated application state.

Every site's main unit applies the same business logic to the same
mirrored events, so operational state is "naturally replicated across
all cluster machines participating in event mirroring" (§1).  The store
tracks per-flight operational facts and can build the *initial state
views* that recovering thin clients request — the expensive operation
whose burstiness motivates the whole design.

Snapshot fast path (PR 2)
-------------------------
The store is *generation counted*: every mutation bumps ``generation``,
and the full initial-state view is built once per generation and reused
until state actually changes.  A cache miss refreshes only the per
flight views dirtied since the last build — the views sit in table
order, each flight at its own slot — so a miss costs one view per
changed flight plus one C-level copy of the list, not a pass over the
whole table in Python.
The change journal additionally supports *delta snapshots*: a client
that reconnects with the generation (or per-stream high-water marks) of
its previous view receives only the flights changed since, with an
automatic fallback to the full view when the delta would not be
meaningfully smaller.

The cache relies on every mutation going through :meth:`apply`,
:meth:`apply_run`, :meth:`flight` (record creation) or :meth:`touch`;
callers that mutate a :class:`FlightState` record directly after
obtaining it must call :meth:`touch` so the generation advances.

A run in one call
-----------------
A live main unit applies a whole run synchronously and serves requests
only between runs, so :meth:`apply_run` owes per-event :meth:`apply`
only the state at the run's end: a position fix no rule reads is
counted where it stands, the newest fix per flight is written once,
and each such flight is journalled and dirtied once per run.  Every
generation a client can see is the per-event one, and a per-stream mark
that falls inside a run resumes from the run's start.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent

__all__ = [
    "FlightState",
    "FlightView",
    "StateSnapshot",
    "DeltaSnapshot",
    "OperationalStateStore",
    "apply_delta",
    "load_snapshot",
]

#: Serialized footprint of one flight's operational record in a snapshot.
PER_FLIGHT_SNAPSHOT_BYTES = 2048

#: Fixed framing overhead of a delta snapshot (base/target generation,
#: per-stream high-water vector, changed-flight count).
DELTA_HEADER_BYTES = 64

#: Most entries the change journal (and each per-stream log) may hold.
#: Reaching it drops the older half, so at least half a horizon of
#: history is always resumable; a client resuming from before the
#: retained history gets the full view, exactly as one whose delta
#: would be too large does.
JOURNAL_HORIZON = 16_384


@dataclass
class FlightState:
    """Operational record for one flight."""

    flight_id: str
    position: Optional[Dict[str, Any]] = None
    status: str = "scheduled"
    passengers_expected: int = 0
    passengers_boarded: int = 0
    updates_applied: int = 0
    arrived: bool = False

    @property
    def boarding_complete(self) -> bool:
        return (
            self.passengers_expected > 0
            and self.passengers_boarded >= self.passengers_expected
        )


@dataclass(frozen=True)
class FlightView:
    """Immutable copy of one flight's record as carried by a snapshot.

    ``position`` is stored as a sorted item tuple so views are hashable
    and cannot alias the live (mutable) :class:`FlightState` dict.
    """

    flight_id: str
    status: str
    passengers_expected: int
    passengers_boarded: int
    updates_applied: int
    arrived: bool
    position: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, st: FlightState) -> "FlightView":
        return cls(
            flight_id=st.flight_id,
            status=st.status,
            passengers_expected=st.passengers_expected,
            passengers_boarded=st.passengers_boarded,
            updates_applied=st.updates_applied,
            arrived=st.arrived,
            position=tuple(sorted(st.position.items())) if st.position else (),
        )


def _drop_older_half(keys: List[Any], values: List[Any]) -> Any:
    """Cut two parallel logs to their newer half; returns the last key
    dropped (every later key is still there)."""
    cut = len(keys) // 2
    floor = keys[cut - 1]
    del keys[:cut]
    del values[:cut]
    return floor


def _partial_position(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The position a fix without all of ``lat`` / ``lon`` / ``alt``
    records: the ones it has, or the whole payload when it has none.
    (A full fix is built inline on the hot paths.)"""
    return {
        k: payload[k] for k in ("lat", "lon", "alt") if k in payload
    } or dict(payload)


def _frozen_marks(marks: Mapping[str, int]) -> Mapping[str, int]:
    """An immutable copy of a per-stream high-water mapping."""
    return MappingProxyType(dict(marks))


@dataclass(frozen=True)
class StateSnapshot:
    """An initial-state view served to a recovering thin client.

    ``size`` is the wire size of the snapshot: proportional to the number
    of flights it must describe, which is what makes initialization
    requests heavyweight relative to streaming updates.  The snapshot
    records the store ``generation`` it was built at, so a client can
    later resume with a cheap delta, and ``as_of`` is an immutable
    mapping — a served view can never be corrupted after the fact.
    """

    taken_at: float
    flight_count: int
    size: int
    as_of: Mapping[str, int]  # per-stream seqno high-water marks
    generation: int = 0
    flights: Tuple[FlightView, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "as_of", _frozen_marks(self.as_of))

    @property
    def is_delta(self) -> bool:
        return False


@dataclass(frozen=True)
class DeltaSnapshot:
    """An incremental initial-state view: only the flights changed since
    ``base_generation``.  Applying it over the client's previous full
    view (see :func:`apply_delta`) reproduces the state the full
    snapshot at ``generation`` would describe.
    """

    taken_at: float
    base_generation: int
    generation: int
    flight_count: int  # flights described (the changed ones)
    size: int
    full_size: int  # what the equivalent full view would have cost
    as_of: Mapping[str, int]
    flights: Tuple[FlightView, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "as_of", _frozen_marks(self.as_of))

    @property
    def is_delta(self) -> bool:
        return True

    @property
    def bytes_saved(self) -> int:
        return max(0, self.full_size - self.size)


def apply_delta(
    base: StateSnapshot, delta: DeltaSnapshot
) -> Dict[str, FlightView]:
    """Merge ``delta`` over ``base``: the reconstructed per-flight views.

    A delta is only served when every flight changed since its base is
    still in the table (a departure is answered with the full view), so
    the merge is a plain overlay; the result equals the view mapping of
    a full snapshot taken at ``delta.generation``.
    """
    merged = {v.flight_id: v for v in base.flights}
    for v in delta.flights:
        merged[v.flight_id] = v
    return merged


class OperationalStateStore:
    """Mutable flight table updated by business logic.

    ``apply`` is intentionally dumb — the EDE decides *what* an event
    means; the store just records facts and exposes the derivable
    predicates (boarding complete, arrived) the EDE's rules query.
    """

    def __init__(self):
        self._flights: Dict[str, FlightState] = {}
        self._stream_seen: Dict[str, int] = {}
        self.events_applied = 0
        #: bumped on every mutation; snapshots are cached per generation
        self.generation = 0
        # change journal: parallel (generation, flight_id) lists, gens
        # strictly increasing — binary search finds "changed since g".
        # Bounded by JOURNAL_HORIZON: every change after generation
        # ``_log_floor`` is still journalled, nothing older is
        self._log_gens: List[int] = []
        self._log_fids: List[str] = []
        self._log_floor = 0
        # per-stream (seqnos, gens) logs, seqnos increasing, mapping a
        # client's high-water mark back to the generation it covers (a
        # run's entry maps to the run's first generation, so its gens
        # may dip); a mark below the stream's ``_stream_floor`` predates
        # what the log retains
        self._stream_log: Dict[str, Tuple[List[int], List[int]]] = {}
        self._stream_floor: Dict[str, int] = {}
        # generation of the latest table change no stream carries (a
        # record created or removed by hand: preload, shard handoff);
        # per-stream marks cannot say whether a client has seen it
        self._offstream_gen = 0
        # snapshot cache: per-flight views + the last built full view.
        # The views are kept as the snapshot carries them — a list in
        # ``_flights`` order — with each flight's index in ``_slot``: a
        # dirty flight overwrites its slot, a new one appends, and the
        # full view is one tuple() of the list.  A removal drops the slot
        # and leaves its view behind: the list is then longer than the
        # map, and the next build closes the gaps once.
        # The dirty collection is a dict-as-set (values unused): it is
        # iterated when rebuilding views, and set iteration order is
        # hash-salted per process — a dict keeps first-dirtied order.
        self._ordered: List[FlightView] = []
        self._slot: Dict[str, int] = {}
        self._dirty: Dict[str, None] = {}
        self._cached: Optional[StateSnapshot] = None
        self.snapshot_builds = 0
        self.snapshot_cache_hits = 0
        self.delta_snapshots_built = 0

    def __len__(self) -> int:
        return len(self._flights)

    # -- mutation tracking ------------------------------------------------
    def _mark_changed(self, flight_id: str) -> None:
        self.generation += 1
        self._log_gens.append(self.generation)
        self._log_fids.append(flight_id)
        self._dirty[flight_id] = None
        if len(self._log_gens) >= JOURNAL_HORIZON:
            self._log_floor = _drop_older_half(self._log_gens, self._log_fids)

    def touch(self, flight_id: str) -> None:
        """Record an out-of-band mutation of ``flight_id``'s record.

        Callers that write a :class:`FlightState` field directly (the
        EDE's arrival derivation does) must call this so cached and
        delta views stay coherent.
        """
        if flight_id in self._flights:
            self._mark_changed(flight_id)

    def flight(self, flight_id: str) -> FlightState:
        """The record for ``flight_id``, created on first reference."""
        st = self._flights.get(flight_id)
        if st is None:
            st = FlightState(flight_id=flight_id)
            self._flights[flight_id] = st
            self._mark_changed(flight_id)
            self._offstream_gen = self.generation
        return st

    def flights(self) -> List[FlightState]:
        """All flight records (insertion order)."""
        return list(self._flights.values())

    def remove_flight(self, flight_id: str) -> Optional[FlightState]:
        """Tombstone ``flight_id``: drop its record and cached view.

        Used by the cross-shard handoff protocol (:mod:`repro.shard`)
        when a flight's ownership moves to another shard — the record is
        *transferred*, not deleted, so the caller gets it back.  The
        departure is journalled as a change (resuming clients must
        refetch) and the cached views forget the flight so no snapshot
        built after the tombstone can still describe it.
        """
        st = self._flights.pop(flight_id, None)
        if st is None:
            return None
        self._mark_changed(flight_id)
        self._offstream_gen = self.generation
        self._dirty.pop(flight_id, None)
        self._slot.pop(flight_id, None)
        return st

    def stream_high_water(self, stream: str) -> int:
        """Highest seqno applied from ``stream`` (0 if none)."""
        return self._stream_seen.get(stream, 0)

    def apply(self, event: UpdateEvent) -> FlightState:
        """Record ``event``'s facts; returns the affected flight state.

        This is the per-event hot path of every site (central and each
        mirror re-apply the full stream), so the ``flight()`` /
        ``_mark_changed`` helpers are inlined here — behaviour,
        including the generation sequence (two bumps when an event
        creates its flight record), is unchanged.
        """
        key = event.key
        st = self._flights.get(key)
        if st is None:
            st = FlightState(flight_id=key)
            self._flights[key] = st
            self.generation += 1
            self._log_gens.append(self.generation)
            self._log_fids.append(key)
            self._dirty[key] = None
        st.updates_applied += 1
        self.events_applied += 1
        self.generation += 1
        gens = self._log_gens
        gens.append(self.generation)
        self._log_fids.append(key)
        self._dirty[key] = None
        if len(gens) >= JOURNAL_HORIZON:
            self._log_floor = _drop_older_half(gens, self._log_fids)
        stream = event.stream
        seqno = event.seqno
        if seqno > self._stream_seen.get(stream, 0):
            self._stream_seen[stream] = seqno
            log = self._stream_log.get(stream)
            if log is None:
                log = self._stream_log[stream] = ([], [])
            seqnos = log[0]
            seqnos.append(seqno)
            log[1].append(self.generation)
            if len(seqnos) >= JOURNAL_HORIZON:
                self._stream_floor[stream] = _drop_older_half(seqnos, log[1])
        payload = event.payload
        if event.kind == FAA_POSITION:
            try:
                # full fixes are the overwhelmingly common shape
                st.position = {
                    "lat": payload["lat"],
                    "lon": payload["lon"],
                    "alt": payload["alt"],
                }
            except KeyError:
                st.position = _partial_position(payload)
        elif event.kind.startswith(DELTA_STATUS):
            status = payload.get("status")
            if status:
                st.status = status
            if "passengers_expected" in payload:
                st.passengers_expected = int(payload["passengers_expected"])
            if payload.get("passenger_boarded"):
                st.passengers_boarded += 1
            if status in ("flight arrived",) or payload.get("arrived"):
                st.arrived = True
        else:
            # derived/complex events may mark arrival too
            if payload.get("arrived") or event.kind.endswith("arrived"):
                st.arrived = True
            status = payload.get("status")
            if status:
                st.status = status
        return st

    def apply_run(
        self,
        events: Sequence[UpdateEvent],
        derive: Callable[[UpdateEvent, FlightState], List[UpdateEvent]],
        note: Optional[Callable[[str, int], Any]] = None,
        derived: Optional[List[UpdateEvent]] = None,
    ) -> int:
        """Apply a run of events in one call; returns how many events
        ``derive`` produced.

        The live main units apply a whole run synchronously and serve a
        request only between runs, so no view can see a state inside a
        run; this call owes per-event :meth:`apply` only the state it
        leaves at the run's end:

        * a position fix no rule reads (no ``status`` or
          ``passenger_boarded`` key) is counted where it stands; the
          newest fix per flight is written once, at the end (the
          paper's *overwrite* rule applied to state), and each such
          flight gets one journal entry and one dirty mark;
        * any other event goes through :meth:`apply` and then
          ``derive(event, flight)`` at its place in the run, so a rule
          sees exactly the per-event state; what it returns is appended
          to ``derived`` when that is a list;
        * ``note(stream, seqno)`` is called once per stream, with the
          run's highest seqno.

        ``generation`` ends where per-event :meth:`apply` would leave it
        (one per event, one more per flight the run creates), and the
        fixes' journal entries take the last generations of the run.
        A stream's log maps the run's last seqno to the run's *first*
        generation, so a mark that falls inside the run resumes from
        the run's start: :meth:`generation_for` stays conservative.
        A run of one event is :meth:`apply`, and ``derive`` unless the
        event is such a fix: it costs no more than the per-event loop.
        """
        if len(events) == 1:
            event = events[0]
            st = self.apply(event)
            if note is not None:
                note(event.stream, event.seqno)
            payload = event.payload
            if (
                event.kind == FAA_POSITION
                and "status" not in payload
                and "passenger_boarded" not in payload
            ):
                return 0
            outputs = derive(event, st)
            if derived is not None:
                derived.extend(outputs)
            return len(outputs)
        flights = self._flights
        dirty = self._dirty
        first = self.generation + 1
        fixes: Dict[str, Mapping[str, Any]] = {}
        tops: Dict[str, int] = {}
        fixed = created = n_derived = 0
        for event in events:
            payload = event.payload
            if (
                event.kind == FAA_POSITION
                and "status" not in payload
                and "passenger_boarded" not in payload
            ):
                key = event.key
                try:
                    flights[key].updates_applied += 1
                except KeyError:
                    flights[key] = FlightState(flight_id=key, updates_applied=1)
                    dirty[key] = None  # creation order is table order
                    created += 1
                fixes[key] = payload
                fixed += 1
            else:
                if event.kind == FAA_POSITION:
                    fixes.pop(event.key, None)  # a later fix overwrites
                outputs = derive(event, self.apply(event))
                if outputs:
                    n_derived += len(outputs)
                    if derived is not None:
                        derived.extend(outputs)
            stream = event.stream
            try:
                if event.seqno > tops[stream]:
                    tops[stream] = event.seqno
            except KeyError:
                tops[stream] = event.seqno
        if fixed:
            self.events_applied += fixed
            gen = self.generation = self.generation + fixed + created
            gens = self._log_gens
            gens.extend(range(gen - len(fixes) + 1, gen + 1))
            self._log_fids.extend(fixes)
            while len(gens) >= JOURNAL_HORIZON:
                self._log_floor = _drop_older_half(gens, self._log_fids)
            for key, payload in fixes.items():
                try:
                    position = {
                        "lat": payload["lat"],
                        "lon": payload["lon"],
                        "alt": payload["alt"],
                    }
                except KeyError:
                    position = _partial_position(payload)
                flights[key].position = position
                dirty[key] = None
        seen = self._stream_seen
        for stream, top in tops.items():
            if top > seen.get(stream, 0):
                seen[stream] = top
                log = self._stream_log.get(stream)
                if log is None:
                    log = self._stream_log[stream] = ([], [])
                seqnos = log[0]
                seqnos.append(top)
                log[1].append(first)
                if len(seqnos) >= JOURNAL_HORIZON:
                    self._stream_floor[stream] = _drop_older_half(seqnos, log[1])
            if note is not None:
                note(stream, top)
        return n_derived

    def state_bytes(self) -> int:
        """Approximate serialized size of the whole operational state."""
        return len(self._flights) * PER_FLIGHT_SNAPSHOT_BYTES

    # -- snapshot fast path ----------------------------------------------
    @property
    def cache_fresh(self) -> bool:
        """True when the cached full view matches the live generation."""
        return self._cached is not None and self._cached.generation == self.generation

    def snapshot(self, now: float) -> StateSnapshot:
        """Build (or reuse) an initial-state view.

        The view is cached per generation: repeated requests against
        unchanged state return the same immutable snapshot (its
        ``taken_at`` is the build time — the view is *as of* that
        instant).  A miss refreshes only the flights dirtied since the
        previous build.
        """
        if self.cache_fresh:
            self.snapshot_cache_hits += 1
            return self._cached
        return self._build_snapshot(now)

    def rebuild_snapshot(self, now: float) -> StateSnapshot:
        """Force a from-scratch build (the uncached baseline): every
        flight view is reconstructed.  Benchmarks use this to measure
        what each request cost before caching."""
        self._ordered.clear()
        self._slot.clear()
        self._dirty = dict.fromkeys(self._flights)
        return self._build_snapshot(now)

    def _build_snapshot(self, now: float) -> StateSnapshot:
        ordered = self._ordered
        slot = self._slot
        flights = self._flights
        if len(ordered) != len(slot):
            # a removal left its view behind.  Slots are in table order
            # and the survivors kept theirs, so closing the gaps only
            # shifts views down; a flight that was removed and came back
            # is new again, and appends below
            ordered[:] = [ordered[i] for i in slot.values()]
            for i, fid in enumerate(slot):
                slot[fid] = i
        for fid in self._dirty:
            st = flights.get(fid)
            if st is not None:
                view = FlightView.of(st)
                i = slot.get(fid)
                if i is None:
                    # first dirtied at creation: dirty order is table order
                    slot[fid] = len(ordered)
                    ordered.append(view)
                else:
                    ordered[i] = view
        self._dirty.clear()
        snap = StateSnapshot(
            taken_at=now,
            flight_count=len(flights),
            size=max(self.state_bytes(), PER_FLIGHT_SNAPSHOT_BYTES),
            as_of=self._stream_seen,
            generation=self.generation,
            flights=tuple(ordered),
        )
        self._cached = snap
        self.snapshot_builds += 1
        return snap

    def generation_for(self, as_of: Mapping[str, int]) -> int:
        """The latest generation fully covered by per-stream marks.

        Conservative: with interleaved streams the returned generation
        may pre-date some events the client has seen, which only makes
        the resulting delta a superset — never incomplete.  A mark older
        than a stream's retained log cannot be placed, and neither can
        a record created or removed by hand later than every event the
        marks cover: the answer is then -1, older than any journal
        floor, and the caller falls back to the full view.
        """
        floor = self.generation
        covered = 0
        for stream, (seqnos, gens) in self._stream_log.items():
            mark = as_of.get(stream, 0)
            if mark < self._stream_floor.get(stream, 0):
                return -1
            i = bisect.bisect_right(seqnos, mark)
            if i:
                covered = max(covered, gens[i - 1])
            if i < len(seqnos):
                floor = min(floor, gens[i] - 1)
        if covered < self._offstream_gen:
            return -1
        return floor

    def changed_since(self, generation: int) -> List[str]:
        """Flight ids changed after ``generation`` (journal order,
        deduplicated); O(changed), not O(all flights).  Complete only
        for generations the journal still reaches back to
        (``generation >= _log_floor``); :meth:`delta_snapshot` checks."""
        start = bisect.bisect_right(self._log_gens, generation)
        seen: set = set()
        out: List[str] = []
        for fid in self._log_fids[start:]:
            if fid not in seen:
                seen.add(fid)
                out.append(fid)
        return out

    def delta_snapshot(
        self,
        now: float,
        since_generation: Optional[int] = None,
        since_marks: Optional[Mapping[str, int]] = None,
        max_fraction: float = 0.25,
    ):
        """An incremental view for a client that resumes from an earlier
        snapshot, identified by its ``generation`` (preferred) or its
        per-stream high-water ``marks``.

        Returns a :class:`DeltaSnapshot` covering only the flights
        changed since, or falls back to the cached full
        :class:`StateSnapshot` when the delta would exceed
        ``max_fraction`` of the full view's size (a client too far
        behind gains nothing from a delta), when the client resumes
        from before the journal's horizon, or when a flight changed
        since has left the table (a delta has no way to say "forget
        this flight"; a shard handoff is rare enough for the full view).
        """
        if since_generation is None:
            since_generation = self.generation_for(since_marks or {})
        full = self.snapshot(now)  # also refreshes the view cache
        if since_generation < self._log_floor:
            return full
        changed = (
            self.changed_since(since_generation)
            if since_generation < self.generation
            else []
        )
        size = DELTA_HEADER_BYTES + len(changed) * PER_FLIGHT_SNAPSHOT_BYTES
        if size > max_fraction * full.size:
            return full
        # the full view was just refreshed: every flight in the table
        # has its slot, so a miss here is a flight that has left it
        slot = self._slot
        ordered = self._ordered
        try:
            views = tuple([ordered[slot[fid]] for fid in changed])
        except KeyError:
            return full
        self.delta_snapshots_built += 1
        return DeltaSnapshot(
            taken_at=full.taken_at,
            base_generation=since_generation,
            generation=self.generation,
            flight_count=len(changed),
            size=size,
            full_size=full.size,
            as_of=self._stream_seen,
            flights=views,
        )


def load_snapshot(snapshot: StateSnapshot) -> OperationalStateStore:
    """Reconstruct a live store from a full initial-state view.

    A rejoining site bootstraps its EDE state this way (``repro.faults``
    recovery): the returned store holds every flight the snapshot
    describes plus its per-stream high-water marks, so backup events
    replayed past ``as_of`` apply cleanly on top.  Each flight is
    journalled as changed at load time, keeping delta serving against
    pre-load generations conservative (a too-large delta falls back to
    the full view) instead of wrongly empty.
    """
    store = OperationalStateStore()
    for view in snapshot.flights:
        st = store.flight(view.flight_id)
        st.status = view.status
        st.passengers_expected = view.passengers_expected
        st.passengers_boarded = view.passengers_boarded
        st.updates_applied = view.updates_applied
        st.arrived = view.arrived
        if view.position:
            st.position = dict(view.position)
    store._stream_seen = dict(snapshot.as_of)
    # generation numbers are site-local; resume from wherever is larger
    # so served views never report an older generation than the source
    store.generation = max(store.generation, snapshot.generation)
    store.events_applied = sum(v.updates_applied for v in snapshot.flights)
    return store
