"""The shard-handoff model checker: exhaustiveness, teeth, reproducers.

The checker explores the *real* :class:`repro.shard.handoff.RoutingCore`
under every delivery interleaving of a cross-shard update script, plus
duplicated replies and crash re-sends.  These tests pin the exact size
of the explored space (so a silent pruning bug cannot shrink coverage
unnoticed), prove both seeded mutants are caught with concrete
schedules, and property-check that printed counterexamples replay
deterministically to the same violation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cli import modelcheck_main
from repro.analysis.handoffcheck import (
    HANDOFF_MUTANTS,
    HandoffModel,
    check_handoff,
    parse_schedule,
    replay_schedule,
    serialize_schedule,
)
from repro.analysis.modelcheck import (
    MUTANTS,
    CheckpointModel,
    ModelCheckViolation,
    check_protocol,
)

#: each checker at a small bound: how to run it and how to build the
#: same model for a replay, given a mutant
_MODELS = {
    "handoff": (
        lambda mutant: check_handoff(shards=2, events=3, dups=1, crashes=1,
                                     mutant=mutant),
        lambda mutant: HandoffModel(2, 3, 1, 1, mutant),
        HANDOFF_MUTANTS,
    ),
    "checkpoint": (
        lambda mutant: check_protocol(sites=2, events=2, max_losses=1,
                                      mutant=mutant),
        lambda mutant: CheckpointModel(2, 2, 1, mutant),
        MUTANTS,
    ),
}


def test_handoff_clean_at_default_scale_with_exact_counts():
    """2 shards, 3 updates (2 cross-shard handoffs between them), one
    duplicated reply and one crash re-send allowed: the full space is
    1,154,286 complete schedules over 264 distinct states.  The count is
    pinned exactly — if a refactor of the action set or the memo key
    changes it, that is a coverage change and must be a conscious one.
    """
    report = check_handoff(shards=2, events=3, dups=1, crashes=1)
    assert report.interleavings == 1_154_286
    assert report.states == 264
    assert report.handoffs == 2
    text = report.render()
    assert "1,154,286" in text or "1154286" in text


def test_handoff_clean_without_faults_is_smaller():
    base = check_handoff(shards=2, events=3, dups=0, crashes=0)
    faulty = check_handoff(shards=2, events=3, dups=1, crashes=1)
    # dup/crash actions strictly extend the schedule space
    assert 0 < base.interleavings < faulty.interleavings
    assert base.states <= faulty.states


def test_handoff_clean_with_two_updates():
    report = check_handoff(shards=2, events=2, dups=1, crashes=1)
    assert report.interleavings > 0
    assert report.handoffs == 1


def test_mutant_names_are_stable():
    assert HANDOFF_MUTANTS == ("drop-buffering", "replay-before-install")


def test_drop_buffering_mutant_is_caught_with_schedule():
    """A router that forwards mid-transfer updates instead of buffering
    them sends an update to a shard that already tombstoned the flight:
    the stale-owner invariant trips, with the schedule attached."""
    with pytest.raises(ModelCheckViolation) as exc:
        check_handoff(shards=2, events=3, dups=1, crashes=1,
                      mutant="drop-buffering")
    violation = exc.value
    assert violation.trace, "counterexample schedule must be attached"
    assert "tombstone" in str(violation) or "stale" in str(violation)


def test_replay_before_install_mutant_is_caught_with_schedule():
    """A router that flushes buffered updates before the install frame
    lets the new shard apply an update ahead of the transferred state:
    caught as an out-of-order/stale apply, with the schedule attached."""
    with pytest.raises(ModelCheckViolation) as exc:
        check_handoff(shards=2, events=3, dups=1, crashes=1,
                      mutant="replay-before-install")
    assert exc.value.trace


def test_fixed_complete_rejects_stale_reply_nondestructively():
    """Regression for the production bug this checker caught: a crash
    re-send of an already-completed reply racing a newer transfer of the
    same flight must be rejected WITHOUT destroying the newer pending
    entry.  The destructive pop-then-check version loses the in-flight
    transfer; the exhaustive run above only stays clean because
    RoutingCore.complete now checks before deleting."""
    report = check_handoff(shards=2, events=3, dups=0, crashes=1)
    assert report.interleavings > 0


@pytest.mark.parametrize("model", sorted(_MODELS))
def test_counterexample_replays_to_the_same_violation(model):
    check, build, mutants = _MODELS[model]
    mutant = mutants[0]
    with pytest.raises(ModelCheckViolation) as exc:
        check(mutant)
    schedule = serialize_schedule(exc.value.trace)
    replayed = replay_schedule(build(mutant), schedule)
    assert replayed is not None
    assert str(replayed) == str(exc.value)
    # and the fixed protocol does NOT fail on the same schedule
    assert replay_schedule(build(None), schedule) is None


# ------------------------------------------------------------------- CLI
def test_cli_handoff_clean(capsys):
    assert modelcheck_main(["--protocol", "handoff"]) == 0
    out = capsys.readouterr().out
    assert "handoff" in out


def test_cli_handoff_mutant_prints_schedule(capsys):
    code = modelcheck_main(
        ["--protocol", "handoff", "--mutant", "drop-buffering"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "schedule prefix:" in out
    assert "route" in out


def test_cli_rejects_cross_protocol_mutant():
    with pytest.raises(SystemExit):
        modelcheck_main(["--protocol", "checkpoint",
                         "--mutant", "drop-buffering"])
    with pytest.raises(SystemExit):
        modelcheck_main(["--protocol", "handoff",
                         "--mutant", "skip-min-agreement"])


def test_cli_checkpoint_default_still_works(capsys):
    assert modelcheck_main(["--sites", "1", "--events", "1",
                            "--losses", "0"]) == 0
    assert "interleaving" in capsys.readouterr().out


# ------------------------------------------- schedule serializer property
_ACTION_LINES = st.lists(
    st.one_of(
        st.just(("route",)),
        st.tuples(st.just("deliver"), st.integers(0, 3)),
        st.tuples(st.just("reply"), st.integers(0, 3)),
        st.tuples(st.just("dup"), st.integers(0, 3)),
        st.tuples(st.just("crash"), st.integers(0, 3)),
    ),
    max_size=30,
)


@given(_ACTION_LINES)
def test_serialize_parse_roundtrip(actions):
    trace = [" ".join(str(p) for p in a) for a in actions]
    assert parse_schedule(serialize_schedule(trace)) == [
        tuple(a) for a in actions
    ]


@pytest.mark.parametrize("model", sorted(_MODELS))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_replay_is_deterministic_for_arbitrary_prefixes(model, data):
    """Any prefix of a mutant counterexample replays to the same outcome
    every time — the property that makes a printed schedule a
    reproducer rather than a one-off observation."""
    check, build, mutants = _MODELS[model]
    mutant = data.draw(st.sampled_from(list(mutants)))
    try:
        check(mutant)
        raise AssertionError("mutant must be caught")
    except ModelCheckViolation as violation:
        full = list(violation.trace)
    cut = data.draw(st.integers(min_value=0, max_value=len(full)))
    schedule = serialize_schedule(full[:cut])
    first = replay_schedule(build(mutant), schedule)
    second = replay_schedule(build(mutant), schedule)
    if first is None:
        assert second is None
    else:
        assert second is not None
        assert str(first) == str(second)
        assert first.trace == second.trace
