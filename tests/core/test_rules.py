"""Unit tests for the semantic mirroring rules and rule engine."""

import pytest

from repro.core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent
from repro.core.queues import StatusTable
from repro.core.rules import (
    CoalesceRule,
    ComplexSequenceRule,
    ComplexTupleRule,
    ContentFilterRule,
    OverwriteRule,
    RuleEngine,
    TypeFilterRule,
    payload_matches,
)

_seq = iter(range(1, 100000))


def ev(kind=FAA_POSITION, key="DL1", stream="faa", size=1000, **payload):
    return UpdateEvent(
        kind=kind, stream=stream, seqno=next(_seq), key=key,
        payload=payload, size=size,
    )


# -------------------------------------------------------- payload_matches
def test_payload_matches():
    assert payload_matches({"status": "landed", "x": 1}, {"status": "landed"})
    assert not payload_matches({"status": "taxiing"}, {"status": "landed"})
    assert payload_matches({"a": 1}, {})
    assert not payload_matches({}, {"a": 1})


# ------------------------------------------------------------ TypeFilter
def test_type_filter_discards_listed_kinds():
    engine = RuleEngine([TypeFilterRule([DELTA_STATUS])])
    assert engine.on_receive(ev(kind=DELTA_STATUS)) == []
    passed = engine.on_receive(ev(kind=FAA_POSITION))
    assert len(passed) == 1


def test_type_filter_requires_kinds():
    with pytest.raises(ValueError):
        TypeFilterRule([])


# --------------------------------------------------------- ContentFilter
def test_content_filter_predicate():
    engine = RuleEngine([ContentFilterRule(lambda e: e.payload.get("alt", 0) < 100)])
    assert engine.on_receive(ev(alt=50)) == []
    assert len(engine.on_receive(ev(alt=30000))) == 1


# ------------------------------------------------------------- Overwrite
def test_overwrite_rule_keeps_first_of_each_run():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 3)])
    outcomes = [len(engine.on_receive(ev())) for _ in range(6)]
    assert outcomes == [1, 0, 0, 1, 0, 0]
    assert engine.table.discarded_overwrite == 4


def test_overwrite_rule_ignores_other_kinds():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 2)])
    for _ in range(4):
        assert len(engine.on_receive(ev(kind=DELTA_STATUS))) == 1


def test_overwrite_rule_per_flight_runs():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 2)])
    a1 = engine.on_receive(ev(key="DL1"))
    b1 = engine.on_receive(ev(key="DL2"))
    a2 = engine.on_receive(ev(key="DL1"))
    b2 = engine.on_receive(ev(key="DL2"))
    assert [len(x) for x in (a1, b1, a2, b2)] == [1, 1, 0, 0]


def test_overwrite_rule_records_last_payload():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 2)])
    engine.on_receive(ev(lat=1.0))
    engine.on_receive(ev(lat=2.0))
    assert engine.table.last_payload("DL1", FAA_POSITION) == {"lat": 2.0}


def test_overwrite_rule_validation():
    with pytest.raises(ValueError):
        OverwriteRule(FAA_POSITION, 0)


# ------------------------------------------------------- ComplexSequence
def landed_rule():
    return ComplexSequenceRule(DELTA_STATUS, {"status": "flight landed"}, FAA_POSITION)


def test_complex_seq_discards_after_trigger():
    engine = RuleEngine([landed_rule()])
    assert len(engine.on_receive(ev())) == 1  # position before landing passes
    assert len(engine.on_receive(ev(kind=DELTA_STATUS, status="flight landed"))) == 1
    assert engine.on_receive(ev()) == []  # position after landing dropped
    assert engine.table.discarded_sequence == 1


def test_complex_seq_requires_value_match():
    engine = RuleEngine([landed_rule()])
    engine.on_receive(ev(kind=DELTA_STATUS, status="taxiing"))
    assert len(engine.on_receive(ev())) == 1  # not suppressed


def test_complex_seq_is_per_key():
    engine = RuleEngine([landed_rule()])
    engine.on_receive(ev(kind=DELTA_STATUS, key="DL1", status="flight landed"))
    assert engine.on_receive(ev(key="DL1")) == []
    assert len(engine.on_receive(ev(key="DL2"))) == 1


# ---------------------------------------------------------- ComplexTuple
def arrival_rule(suppresses=(FAA_POSITION,)):
    return ComplexTupleRule(
        kinds=["landed", "at_runway", "at_gate"],
        values=[{}, {}, {}],
        combined_kind="flight_arrived",
        suppresses=suppresses,
    )


def test_complex_tuple_validation():
    with pytest.raises(ValueError):
        ComplexTupleRule(["a"], [{}], "c")
    with pytest.raises(ValueError):
        ComplexTupleRule(["a", "b"], [{}], "c")
    with pytest.raises(ValueError):
        ComplexTupleRule(["a", "a"], [{}, {}], "c")


def test_complex_tuple_holds_components_until_complete():
    engine = RuleEngine([arrival_rule()])
    assert engine.on_receive(ev(kind="landed")) == []
    assert engine.on_receive(ev(kind="at_runway")) == []
    out = engine.on_receive(ev(kind="at_gate"))
    assert len(out) == 1
    combined = out[0]
    assert combined.kind == "flight_arrived"
    assert combined.coalesced_from == 3
    assert combined.payload["combined_from"] == ["landed", "at_runway", "at_gate"]
    assert engine.table.combined_tuples == 1


def test_complex_tuple_suppresses_after_firing():
    engine = RuleEngine([arrival_rule()])
    for kind in ("landed", "at_runway", "at_gate"):
        engine.on_receive(ev(kind=kind))
    # positions for the arrived flight are now discarded
    assert engine.on_receive(ev(kind=FAA_POSITION)) == []
    # but other flights unaffected
    assert len(engine.on_receive(ev(kind=FAA_POSITION, key="DL2"))) == 1


def test_complex_tuple_merges_payloads_and_sizes():
    engine = RuleEngine([arrival_rule(suppresses=())])
    engine.on_receive(ev(kind="landed", size=100, a=1))
    engine.on_receive(ev(kind="at_runway", size=900, b=2))
    out = engine.on_receive(ev(kind="at_gate", size=300, c=3))
    combined = out[0]
    assert combined.size == 900
    assert combined.payload["a"] == 1 and combined.payload["c"] == 3


def test_complex_tuple_flush_reemits_partials():
    engine = RuleEngine([arrival_rule()])
    engine.on_receive(ev(kind="landed"))
    engine.on_receive(ev(kind="at_runway"))
    flushed = engine.flush()
    assert {e.kind for e in flushed} == {"landed", "at_runway"}
    assert engine.flush() == []  # flush is idempotent


def test_complex_tuple_value_matching():
    rule = ComplexTupleRule(
        kinds=[DELTA_STATUS + ".a", DELTA_STATUS + ".b"],
        values=[{"status": "x"}, {"status": "y"}],
        combined_kind="combo",
    )
    engine = RuleEngine([rule])
    # wrong value: passes through untouched
    assert len(engine.on_receive(ev(kind=DELTA_STATUS + ".a", status="zzz"))) == 1
    assert engine.on_receive(ev(kind=DELTA_STATUS + ".a", status="x")) == []
    out = engine.on_receive(ev(kind=DELTA_STATUS + ".b", status="y"))
    assert out[0].kind == "combo"


# -------------------------------------------------------------- Coalesce
def test_coalesce_buffers_then_emits_combined():
    engine = RuleEngine([CoalesceRule(3)])
    assert engine.on_send(ev(lat=1.0)) == []
    assert engine.on_send(ev(lat=2.0)) == []
    out = engine.on_send(ev(lat=3.0))
    assert len(out) == 1
    combined = out[0]
    assert combined.payload == {"lat": 3.0}  # last value wins
    assert combined.coalesced_from == 3
    assert engine.table.coalesced_events == 2


def test_coalesce_max_one_is_passthrough():
    engine = RuleEngine([CoalesceRule(1)])
    assert len(engine.on_send(ev())) == 1


def test_coalesce_respects_kind_filter():
    engine = RuleEngine([CoalesceRule(2, kinds=[FAA_POSITION])])
    assert len(engine.on_send(ev(kind=DELTA_STATUS))) == 1
    assert engine.on_send(ev(kind=FAA_POSITION)) == []


def test_coalesce_per_key_buffers():
    engine = RuleEngine([CoalesceRule(2)])
    assert engine.on_send(ev(key="DL1")) == []
    assert engine.on_send(ev(key="DL2")) == []
    assert len(engine.on_send(ev(key="DL1"))) == 1
    assert len(engine.on_send(ev(key="DL2"))) == 1


def test_coalesce_flush_emits_partial_buffers():
    engine = RuleEngine([CoalesceRule(10)])
    engine.on_send(ev(lat=1.0))
    engine.on_send(ev(lat=2.0))
    flushed = engine.flush()
    assert len(flushed) == 1
    assert flushed[0].coalesced_from == 2
    assert flushed[0].payload == {"lat": 2.0}
    assert engine.flush() == []


def test_coalesce_size_is_max_of_components():
    engine = RuleEngine([CoalesceRule(2)])
    engine.on_send(ev(size=5000))
    out = engine.on_send(ev(size=100))
    assert out[0].size == 5000


def test_coalesce_validation():
    with pytest.raises(ValueError):
        CoalesceRule(0)


# ------------------------------------------------------------ RuleEngine
def test_engine_pipeline_order_seq_then_overwrite():
    engine = RuleEngine([landed_rule(), OverwriteRule(FAA_POSITION, 2)])
    # first position passes both rules
    assert len(engine.on_receive(ev())) == 1
    # second position: overwritten
    assert engine.on_receive(ev()) == []
    # landing arrives
    engine.on_receive(ev(kind=DELTA_STATUS, status="flight landed"))
    # later positions die at the sequence rule (counted there, not overwrite)
    before = engine.table.discarded_overwrite
    assert engine.on_receive(ev()) == []
    assert engine.table.discarded_sequence == 1
    assert engine.table.discarded_overwrite == before


def test_engine_empty_passes_everything():
    engine = RuleEngine()
    e = ev()
    assert engine.on_receive(e) == [e]
    assert engine.on_send(e) == [e]


def test_engine_stats_accounting():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 2)])
    for _ in range(4):
        engine.on_receive(ev())
    stats = engine.stats()
    assert stats["received"] == 4
    assert stats["passed_receive"] == 2
    assert stats["discarded_overwrite"] == 2


def test_engine_remove_rules_by_type():
    engine = RuleEngine([OverwriteRule(FAA_POSITION, 2), CoalesceRule(3)])
    assert engine.remove_rules(OverwriteRule) == 1
    assert len(engine.rules) == 1
    assert isinstance(engine.rules[0], CoalesceRule)


def test_engine_add_rule_dynamic():
    engine = RuleEngine()
    engine.add_rule(TypeFilterRule([DELTA_STATUS]))
    assert engine.on_receive(ev(kind=DELTA_STATUS)) == []


def test_engine_replacement_events_flow_through_later_rules():
    # tuple rule emits combined event; a later type filter drops it
    engine = RuleEngine([
        arrival_rule(suppresses=()),
        TypeFilterRule(["flight_arrived"]),
    ])
    engine.on_receive(ev(kind="landed"))
    engine.on_receive(ev(kind="at_runway"))
    assert engine.on_receive(ev(kind="at_gate")) == []


# ------------------------------------------- forward_many ≡ the hook chain
def _mixed_rules():
    return [
        TypeFilterRule([DELTA_STATUS + ".noise"]),
        ComplexSequenceRule(DELTA_STATUS, {"status": "flight landed"},
                            FAA_POSITION),
        ComplexTupleRule(
            ["landed", "at_gate"],
            [{"status": "flight landed"}, {"status": "at gate"}],
            "arrived",
        ),
        OverwriteRule(FAA_POSITION, 3),
        CoalesceRule(2, kinds=[DELTA_STATUS]),
    ]


def _mixed_stream(n=120):
    events = []
    for i in range(n):
        kind = [FAA_POSITION, DELTA_STATUS, "landed", "at_gate",
                DELTA_STATUS + ".noise"][i % 5]
        status = ["flight landed", "at gate", "en route"][i % 3]
        events.append(ev(kind=kind, key=f"DL{i % 4}", status=status,
                         lat=float(i)))
    return events


def test_forward_many_equals_hook_chain_outputs_and_counters():
    """``forward_many`` is ``on_send`` over ``on_receive`` per event —
    same survivors in the same order, same traffic accounting — both
    over the mixed rule set and through its no-hooks short circuit."""
    for build in (_mixed_rules, list):
        events = _mixed_stream()
        chained_engine, many_engine = RuleEngine(build()), RuleEngine(build())
        chained = []
        for event in events:
            for passed in chained_engine.on_receive(event):
                chained.extend(chained_engine.on_send(passed))
        many = many_engine.forward_many(events)
        assert len(chained) == len(many)
        for a, b in zip(chained, many):
            assert (a.kind, a.stream, a.key, a.payload) == (
                b.kind, b.stream, b.key, b.payload
            )
        assert chained_engine.stats() == many_engine.stats()


def test_public_hooks_still_return_lists():
    """Rule hooks discard with the shared ``_DISCARD`` tuple; the
    engine's public hooks hand callers a list whatever happened."""
    engine = RuleEngine([TypeFilterRule([FAA_POSITION])])
    dropped = engine.on_receive(ev())
    assert dropped == [] and isinstance(dropped, list)
    passed = engine.on_receive(ev(kind=DELTA_STATUS))
    assert isinstance(passed, list) and len(passed) == 1
    sent = engine.on_send(ev(kind=DELTA_STATUS))
    assert isinstance(sent, list)
