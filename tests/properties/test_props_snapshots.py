"""Properties of the state store's views: a delta snapshot applied over
the client's stale view is always equivalent to the full snapshot, for
any mutation history (flights leaving and coming back included) and any
resume point; and the full view is the table, in table order, rebuilt
one view per changed flight."""

from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent
from repro.ois.state import (
    FlightView,
    OperationalStateStore,
    apply_delta,
    load_snapshot,
)

flight_ids = st.integers(min_value=0, max_value=9).map(lambda i: f"DL{i}")


@st.composite
def mutations(draw):
    """A random history of (flight, op) pairs: events applied, and the
    handoff protocol's out-of-band moves — a flight leaving the table
    (``remove``) and a record (re-)created without an event."""
    ops = draw(
        st.lists(
            st.tuples(
                flight_ids,
                st.sampled_from(
                    ["position", "status", "board", "remove", "create"]
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return ops


def apply_ops(store, ops, start_seqno=1):
    seqno = start_seqno
    for fid, op in ops:
        if op == "remove":
            store.remove_flight(fid)
            continue
        if op == "create":
            store.flight(fid)
            continue
        if op == "position":
            event = UpdateEvent(
                kind=FAA_POSITION, stream="faa", seqno=seqno, key=fid,
                payload={"lat": float(seqno), "lon": -1.0},
            )
        elif op == "status":
            event = UpdateEvent(
                kind=DELTA_STATUS, stream="delta", seqno=seqno, key=fid,
                payload={"status": "boarding", "passengers_expected": 3},
            )
        else:
            event = UpdateEvent(
                kind=DELTA_STATUS, stream="delta", seqno=seqno, key=fid,
                payload={"passenger_boarded": True},
            )
        store.apply(event)
        seqno += 1
    return seqno


@given(before=mutations(), after=mutations())
# a flight handed off after the client's view: the delta has no
# tombstone to send, so the answer must be the full view
@example(before=[("DL1", "create"), ("DL3", "create")], after=[("DL3", "remove")])
@settings(max_examples=60, deadline=None)
def test_delta_over_stale_view_matches_full_snapshot(before, after):
    store = OperationalStateStore()
    next_seqno = apply_ops(store, before)
    base = store.snapshot(0.0)
    apply_ops(store, after, start_seqno=next_seqno)

    # max_fraction=1.0 forbids only deltas *larger* than the full view,
    # so every example exercises the delta path
    view = store.delta_snapshot(1.0, since_generation=base.generation, max_fraction=1.0)
    full = store.snapshot(1.0)
    full_views = {v.flight_id: v for v in full.flights}

    if view.is_delta:
        assert apply_delta(base, view) == full_views
        assert view.full_size == full.size
    else:
        assert {v.flight_id: v for v in view.flights} == full_views


@given(ops=mutations())
# records installed or removed by hand after the last event the marks
# cover: no stream carries them, so marks cannot place them
@example(ops=[("DL0", "create")])
@example(ops=[("DL0", "position"), ("DL0", "remove")])
@settings(max_examples=40, deadline=None)
def test_resume_via_marks_is_never_incomplete(ops):
    """Resuming from per-stream marks may re-send flights, but the merged
    result must still equal the full view (conservative superset)."""
    store = OperationalStateStore()
    mid = len(ops) // 2
    next_seqno = apply_ops(store, ops[:mid])
    base = store.snapshot(0.0)
    marks = dict(base.as_of)
    apply_ops(store, ops[mid:], start_seqno=next_seqno)

    view = store.delta_snapshot(1.0, since_marks=marks, max_fraction=1.0)
    full = store.snapshot(1.0)
    full_views = {v.flight_id: v for v in full.flights}
    if view.is_delta:
        assert apply_delta(base, view) == full_views
    else:
        assert {v.flight_id: v for v in view.flights} == full_views


@given(
    ops=mutations(),
    resume_at=st.integers(min_value=0, max_value=40),
    horizon=st.integers(min_value=2, max_value=12),
    by_marks=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_resume_from_before_the_trimmed_journal_is_complete(
    ops, resume_at, horizon, by_marks
):
    """The change journal is bounded: whatever the history and wherever
    the client resumes from — inside the retained journal or long before
    it — what it ends up with equals the full view, and the journal
    never outgrows its horizon."""
    from unittest.mock import patch

    from repro.ois import state as state_module

    with patch.object(state_module, "JOURNAL_HORIZON", horizon):
        store = OperationalStateStore()
        cut = min(resume_at, len(ops))
        next_seqno = apply_ops(store, ops[:cut])
        base = store.snapshot(0.0)
        apply_ops(store, ops[cut:], start_seqno=next_seqno)
        assert len(store._log_gens) <= horizon
        assert all(len(s) <= horizon for s, _ in store._stream_log.values())

        if by_marks:
            view = store.delta_snapshot(
                1.0, since_marks=dict(base.as_of), max_fraction=1.0
            )
        else:
            view = store.delta_snapshot(
                1.0, since_generation=base.generation, max_fraction=1.0
            )
        full_views = {v.flight_id: v for v in store.snapshot(1.0).flights}
        if view.is_delta:
            assert apply_delta(base, view) == full_views
        else:
            assert {v.flight_id: v for v in view.flights} == full_views


@given(
    history=st.lists(
        st.tuples(
            flight_ids,
            st.sampled_from(
                ["position", "status", "board", "remove", "create", "touch",
                 "snapshot", "snapshot", "rebuild", "reload"]
            ),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_full_view_is_the_table_in_order_and_a_miss_builds_only_what_changed(history):
    """Whatever the history — events, records created, touched or
    removed by hand, forced rebuilds, a store reloaded from its own
    view — ``snapshot().flights`` is one view per record in table
    order, and building it calls ``FlightView.of`` once per flight
    changed since the last build, never once per flight in the table."""
    view_of = FlightView.of
    store = OperationalStateStore()
    changed = set()  # still-present flights written since the last build
    seqno = 1

    def check(build, expect_built):
        with patch.object(FlightView, "of", side_effect=view_of) as spy:
            snap = build()
        assert spy.call_count == expect_built
        assert snap.flights == tuple(view_of(s) for s in store.flights())
        assert snap.flight_count == len(store)
        changed.clear()

    for fid, op in history:
        present = any(s.flight_id == fid for s in store.flights())
        if op == "snapshot":
            check(lambda: store.snapshot(0.0), len(changed))
        elif op == "rebuild":
            check(lambda: store.rebuild_snapshot(0.0), len(store))
        elif op == "reload":
            store = load_snapshot(store.snapshot(0.0))
            # every record was just created by hand: all of them are new
            check(lambda: store.snapshot(0.0), len(store))
        elif op == "touch":
            store.touch(fid)
            if present:
                changed.add(fid)
        else:
            seqno = apply_ops(store, [(fid, op)], start_seqno=seqno)
            if op == "remove":
                changed.discard(fid)
            elif op != "create" or not present:
                changed.add(fid)
    check(lambda: store.snapshot(0.0), len(changed))
