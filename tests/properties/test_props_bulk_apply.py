"""Properties of the run-at-a-time apply: a store that applies each run
in one ``process_many`` call and a store that applies event by event
agree at every run boundary, for any script, any cut into runs and any
request between runs.

The script mixes status lifecycles (the arrival sequence included),
boarding, complex arrival events, full and partial position fixes,
fixes that carry a key a rule reads, and flights first seen mid-run.
At each boundary the two stores have the same digest, generation,
checkpoint floor and derived events, and the same full view when one is
served.  Every delta the bulk store serves since an earlier served view
rebuilds the full view; a resume from per-stream marks taken anywhere —
inside a run too — re-sends at least every flight changed since.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent, VectorTimestamp
from repro.ois.ede import FLIGHT_ARRIVED, EventDerivationEngine
from repro.ois.state import FlightView, apply_delta

flight_ids = st.integers(min_value=0, max_value=5).map(lambda i: f"DL{i}")

STATUSES = ["boarding", "flight landed", "flight at runway", "flight at gate", "departed"]

ops = st.one_of(
    st.tuples(st.just("fix"), st.sampled_from([
        ("lat", "lon", "alt"), ("lat", "lon", "alt"), ("lat",), ("lon", "alt"), ("heading",),
    ])),
    # a fix that carries a key a rule reads is derived over like any event
    st.tuples(st.just("fix_status"), st.sampled_from(STATUSES)),
    st.tuples(st.just("fix_boarded"), st.just(None)),
    st.tuples(st.just("status"), st.sampled_from(STATUSES)),
    st.tuples(st.just("expect"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("board"), st.just(None)),
    st.tuples(st.just("arrived"), st.just(None)),
)

scripts = st.lists(
    st.tuples(flight_ids, ops, st.booleans(), st.booleans()),
    min_size=1,
    max_size=40,
)


def build_events(script):
    """Fresh events for ``script`` (the rules annotate payloads, so each
    store gets its own), the run boundaries and the request points."""
    seqnos = {"faa": 0, "delta": 0}
    events, cuts, requests = [], [], []
    for i, (fid, (op, arg), cut, request) in enumerate(script):
        if op.startswith("fix"):
            kind, stream = FAA_POSITION, "faa"
            if op == "fix":
                payload = {key: float(i) for key in arg}
            elif op == "fix_status":
                payload = {"lat": float(i), "status": arg}
            else:
                payload = {"lat": float(i), "passenger_boarded": True}
        else:
            kind, stream = DELTA_STATUS, "delta"
            if op == "status":
                payload = {"status": arg}
            elif op == "expect":
                payload = {"passengers_expected": arg}
            elif op == "board":
                payload = {"passenger_boarded": True}
            else:
                kind, payload = FLIGHT_ARRIVED, {"arrived": True}
        seqnos[stream] += 1
        events.append(UpdateEvent(
            kind=kind, stream=stream, seqno=seqnos[stream], key=fid, payload=payload,
        ))
        if cut or i == len(script) - 1:
            cuts.append(i + 1)
            requests.append(request)
    return events, cuts, requests


def shape(events):
    return [(e.kind, e.stream, e.seqno, e.key, dict(e.payload)) for e in events]


def views(store):
    return {rec.flight_id: FlightView.of(rec) for rec in store.flights()}


@given(script=scripts)
@settings(max_examples=300, deadline=None)
def test_bulk_apply_agrees_with_per_event_apply_at_every_boundary(script):
    bulk_events, cuts, requests = build_events(script)
    each_events, _, _ = build_events(script)
    bulk, each = EventDerivationEngine(), EventDerivationEngine()
    bulk_vt, each_vt = VectorTimestamp(), VectorTimestamp()
    bulk_derived, each_derived = [], []
    served = []  # full views the bulk store served, oldest first
    marks = []  # (per-stream marks, per-flight views) after each event
    start = 0
    for end, request in zip(cuts, requests):
        run = bulk_events[start:end]
        assert bulk.process_many(run, bulk_vt.advance, bulk_derived) == len(run)
        for event in each_events[start:end]:
            each_derived.extend(each.process(event, emit_update=False))
            each_vt.advance(event.stream, event.seqno)
            marks.append((dict(each.state._stream_seen), views(each.state)))
        start = end

        assert bulk.state.generation == each.state.generation
        assert bulk.state_digest() == each.state_digest()
        assert bulk_vt.as_dict() == each_vt.as_dict()
        assert shape(bulk_derived) == shape(each_derived)
        assert (bulk.processed, bulk.derived) == (each.processed, each.derived)
        assert bulk.state.events_applied == each.state.events_applied
        if not request:
            continue

        full = bulk.state.snapshot(float(end))
        assert full.flights == each.state.snapshot(float(end)).flights
        assert full.generation == each.state.generation
        full_views = {v.flight_id: v for v in full.flights}
        for base in served:
            view = bulk.state.delta_snapshot(
                float(end), since_generation=base.generation, max_fraction=1.0
            )
            if view.is_delta:
                assert apply_delta(base, view) == full_views
            else:
                assert view.flights == full.flights
        served.append(full)

        for as_of, then in marks:
            view = bulk.state.delta_snapshot(
                float(end), since_marks=as_of, max_fraction=1.0
            )
            changed = {fid for fid, v in full_views.items() if then.get(fid) != v}
            sent = {v.flight_id: v for v in view.flights}
            assert changed <= set(sent)
            assert {**then, **sent} == full_views


@given(script=scripts)
@settings(max_examples=100, deadline=None)
def test_one_run_leaves_one_journal_entry_per_fixed_flight(script):
    """A run of fixes no rule reads journals each of its flights once,
    at the run's last generations, and logs each stream once."""
    events = [
        UpdateEvent(
            kind=FAA_POSITION, stream="faa", seqno=i + 1, key=fid,
            payload={"lat": float(i), "lon": 0.0, "alt": 0.0},
        )
        for i, (fid, _, _, _) in enumerate(script)
    ]
    bulk = EventDerivationEngine()
    derived = []
    bulk.process_many(events, None, derived)
    store = bulk.state
    flights = list(dict.fromkeys(e.key for e in events))
    assert derived == []
    assert store.generation == len(events) + len(flights)
    if len(events) > 1:
        assert store._log_fids == flights
        assert store._log_gens == list(
            range(store.generation - len(flights) + 1, store.generation + 1)
        )
        assert store._stream_log["faa"] == ([len(events)], [1])
    assert [rec.updates_applied for rec in store.flights()] == [
        sum(e.key == fid for e in events) for fid in flights
    ]
