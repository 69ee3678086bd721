"""Property-based equivalence: indexed MatchEngine vs. naive oracle.

The subscription engine's contract (``repro.sub.engine``) is that the
attribute indexes, the counting-conjunction lane and the residual lane
are *economics only*: for any population of predicates and any event,
``MatchEngine.match`` must return exactly the sub_ids the naive
evaluate-everything oracle returns.  The oracle is each predicate's own
``matches`` method — the honest semantics the algebra defines — so this
test pins the index structure to the language, not to itself.

Interleaved add/discard churn is included because the undo records
(bucket back-pointers) are the part a pure match-only test never
exercises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import DELTA_STATUS, FAA_POSITION, HANDOFF, UpdateEvent
from repro.sub.engine import MatchEngine, NaiveEngine
from repro.sub.registry import SubscriptionRegistry
from repro.sub.predicate import (
    CMP_OPS,
    And,
    ByAirport,
    ByFlight,
    ByKind,
    FieldCmp,
    MatchAll,
    Not,
    Or,
)

# small shared alphabets so predicates and events actually collide
FLIGHTS = ["DL100", "DL101", "DL102", "UA7"]
KINDS = [FAA_POSITION, DELTA_STATUS, HANDOFF]
AIRPORTS = ["ATL", "JFK", "SFO"]
FIELDS = ["alt", "status", "airport", "x"]

field_values = st.none() | st.booleans() | st.integers(-5, 5) | st.sampled_from(
    ["boarding started", "departed", "ATL", "JFK"]
)
atoms = st.one_of(
    st.builds(MatchAll),
    st.builds(ByFlight, flight_id=st.sampled_from(FLIGHTS)),
    st.builds(ByKind, kind=st.sampled_from(KINDS)),
    st.builds(ByAirport, airport=st.sampled_from(AIRPORTS)),
    st.builds(
        FieldCmp,
        field=st.sampled_from(FIELDS),
        op=st.sampled_from(CMP_OPS),
        value=field_values,
    ),
)
predicates = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(
            lambda cs: And(tuple(cs))
        ),
        st.lists(children, min_size=1, max_size=3).map(
            lambda cs: Or(tuple(cs))
        ),
        children.map(Not),
    ),
    max_leaves=8,
)
payloads = st.dictionaries(
    st.sampled_from(FIELDS), field_values, max_size=3
)
events = st.builds(
    UpdateEvent,
    kind=st.sampled_from(KINDS),
    stream=st.just("faa"),
    seqno=st.integers(1, 10**6),
    key=st.sampled_from(FLIGHTS),
    payload=payloads,
)


@given(
    st.lists(predicates, min_size=1, max_size=12),
    st.lists(events, min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_indexed_matches_oracle(preds, evs):
    indexed, naive = MatchEngine(), NaiveEngine()
    for sub_id, pred in enumerate(preds):
        indexed.add(sub_id, pred)
        naive.add(sub_id, pred)
    for ev in evs:
        assert indexed.match(ev) == naive.match(ev), ev


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_indexed_matches_oracle_under_churn(data):
    """add / discard / re-add interleavings keep the two engines in
    lockstep — the index undo records must remove exactly the entries
    registration created, across every lane."""
    indexed, naive = MatchEngine(), NaiveEngine()
    live: set = set()
    next_id = 0
    for _ in range(data.draw(st.integers(2, 20), label="steps")):
        action = data.draw(
            st.sampled_from(["add", "replace", "discard", "match"]),
            label="action",
        )
        if action == "add" or not live:
            pred = data.draw(predicates, label="pred")
            indexed.add(next_id, pred)
            naive.add(next_id, pred)
            live.add(next_id)
            next_id += 1
        elif action == "replace":
            sub_id = data.draw(st.sampled_from(sorted(live)), label="re-id")
            pred = data.draw(predicates, label="re-pred")
            indexed.add(sub_id, pred)
            naive.add(sub_id, pred)
        elif action == "discard":
            sub_id = data.draw(st.sampled_from(sorted(live)), label="kill")
            assert indexed.discard(sub_id) == naive.discard(sub_id)
            live.discard(sub_id)
        else:
            ev = data.draw(events, label="event")
            assert indexed.match(ev) == naive.match(ev)
    ev = data.draw(events, label="final event")
    assert indexed.match(ev) == naive.match(ev)
    assert len(indexed) == len(naive) == len(live)


CLIENTS = ["c0", "c1", "c2"]


def _oracle_clients(naive, owner, ev):
    """Distinct owners of the oracle's matching sub_ids, in the
    first-match order the registry promises."""
    seen = {}
    for sub_id in naive.match(ev):
        seen.setdefault(owner[sub_id], True)
    return list(seen)


@given(
    st.lists(st.tuples(st.sampled_from(CLIENTS), predicates),
             min_size=1, max_size=12),
    st.lists(events, min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_match_batch_equals_per_event_and_oracle(subs, evs):
    """The push path's one registry call per chunk returns, event by
    event, exactly what ``match_clients`` and the oracle return."""
    registry, naive = SubscriptionRegistry(), NaiveEngine()
    owner = {}
    for client_id, pred in subs:
        sub_id = registry.subscribe(client_id, pred).sub_id
        naive.add(sub_id, pred)
        owner[sub_id] = client_id
    results = registry.match_clients_batch(evs)
    assert results == [registry.match_clients(ev) for ev in evs]
    assert results == [_oracle_clients(naive, owner, ev) for ev in evs]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_match_clients_batch_under_churn(data):
    """Batched client matching stays equal to per-event matching and
    to the oracle across subscribe / replace / unsubscribe churn."""
    registry, naive = SubscriptionRegistry(), NaiveEngine()
    owner = {}
    for _ in range(data.draw(st.integers(2, 20), label="steps")):
        action = data.draw(
            st.sampled_from(["add", "replace", "discard", "batch"]),
            label="action",
        )
        if action == "add" or not owner:
            client_id = data.draw(st.sampled_from(CLIENTS), label="client")
            pred = data.draw(predicates, label="pred")
            sub_id = registry.subscribe(client_id, pred).sub_id
            naive.add(sub_id, pred)
            owner[sub_id] = client_id
        elif action == "replace":
            sub_id = data.draw(st.sampled_from(sorted(owner)), label="re-id")
            client_id = data.draw(st.sampled_from(CLIENTS), label="re-client")
            pred = data.draw(predicates, label="re-pred")
            registry.subscribe(client_id, pred, sub_id)
            naive.add(sub_id, pred)
            owner[sub_id] = client_id
        elif action == "discard":
            sub_id = data.draw(st.sampled_from(sorted(owner)), label="kill")
            assert registry.unsubscribe(owner.pop(sub_id), sub_id) == [sub_id]
            assert naive.discard(sub_id)
        else:
            evs = data.draw(
                st.lists(events, min_size=1, max_size=6), label="batch"
            )
            results = registry.match_clients_batch(evs)
            assert results == [registry.match_clients(ev) for ev in evs]
            assert results == [_oracle_clients(naive, owner, ev) for ev in evs]
    evs = data.draw(st.lists(events, min_size=1, max_size=4), label="final")
    assert registry.match_clients_batch(evs) == [
        _oracle_clients(naive, owner, ev) for ev in evs
    ]
    assert len(registry) == len(naive) == len(owner)


@given(events)
@settings(max_examples=100)
def test_empty_engine_matches_nothing(ev):
    assert MatchEngine().match(ev) == []
    engine = MatchEngine()
    engine.add(1, ByFlight("DL100"))
    engine.discard(1)
    assert engine.match(ev) == []
