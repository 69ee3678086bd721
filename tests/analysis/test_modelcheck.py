"""The checkpoint-protocol model checker: exhaustiveness and teeth."""

import math

import pytest

from repro.analysis.cli import modelcheck_main
from repro.analysis.modelcheck import (
    MUTANTS,
    ModelCheckViolation,
    check_protocol,
)


def test_protocol_clean_at_default_scale():
    report = check_protocol(sites=2, events=3, max_losses=1)
    assert report.interleavings > 0
    assert report.states > 0
    # loss schedules strictly extend the reliable ones
    assert report.lossy_interleavings > report.interleavings
    text = report.render()
    assert str(report.interleavings) in text
    assert "absorbed" in text


def test_interleaving_count_is_exact_for_smallest_model():
    """sites=1, events=1, no losses: the schedule space is enumerable by
    hand, pinning the counting logic (not just 'some large number').

    Write p = process, d = deliver CHKPT, r = deliver reply, c = deliver
    COMMIT; the atomic final round ends every schedule and adds no
    branching.  If p precedes d, everything after is forced: ``p d r c``.
    If d comes first the vote floors to the empty vector (nothing
    processed yet) and p interleaves freely with the in-flight reply and
    the (empty, trims-nothing) commit: ``d p r c``, ``d r p c``,
    ``d r c p``.  The empty commit must NOT trip trim safety — that is
    the protocol's point: a vote never promises unprocessed events.
    Total: 4 complete schedules.
    """
    report = check_protocol(sites=1, events=1, max_losses=0)
    assert report.interleavings == 4


def test_single_site_more_events_still_clean():
    report = check_protocol(sites=1, events=4, max_losses=2)
    assert report.interleavings > 0


def test_three_sites_clean():
    report = check_protocol(sites=3, events=2, max_losses=0)
    assert report.states > 0
    # sanity: at minimum all pure processing interleavings are present
    # (6 process actions, 2 per site -> multinomial 6!/(2!2!2!) = 90)
    assert report.interleavings >= math.factorial(6) // 8


def test_default_sweep_counts_are_pinned():
    """The 2 x 3 sweep the CI job runs: the periodic-initiator rule
    (``initiate_if_idle``) drives the final round and left the schedule
    space exactly where it was."""
    report = check_protocol(sites=2, events=3, max_losses=1)
    assert (report.interleavings, report.states) == (221760, 597)
    assert (report.lossy_interleavings, report.lossy_states) == (725760, 894)


def test_initiator_that_never_gives_a_lost_round_up_is_caught(monkeypatch):
    """The rule's exception is what absorbs a lost CHKPT/CHKPT_REP: a
    coordinator that declines to initiate for as long as a round
    collects leaves the backup queues untrimmed on some lossy schedule."""
    monkeypatch.setattr("repro.core.checkpoint.MAX_SKIPPED_INITIATIONS", 10**9)
    check_protocol(sites=2, events=2, max_losses=0)  # nothing lost: fine
    with pytest.raises(ModelCheckViolation, match="not absorbed"):
        check_protocol(sites=2, events=2, max_losses=1)


def test_skip_min_agreement_mutant_is_caught():
    """Acceptance criterion: a protocol that commits the raw proposal
    without waiting for the componentwise-minimum agreement is caught,
    with a concrete schedule attached."""
    with pytest.raises(ModelCheckViolation) as exc:
        check_protocol(sites=2, events=2, max_losses=0, mutant="skip-min-agreement")
    assert "does not dominate" in str(exc.value)
    assert exc.value.trace, "violation must carry a schedule prefix"
    assert any("deliver_site" in step for step in exc.value.trace)


def test_eager_trim_mutant_is_caught():
    with pytest.raises(ModelCheckViolation):
        check_protocol(sites=2, events=2, max_losses=0, mutant="eager-trim")


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError):
        check_protocol(sites=2, events=2, mutant="no-such-bug")
    assert "skip-min-agreement" in MUTANTS


def test_parameter_validation():
    with pytest.raises(ValueError):
        check_protocol(sites=0, events=1)
    with pytest.raises(ValueError):
        check_protocol(sites=1, events=0)


# ----------------------------------------------------------------- CLI
def test_cli_clean_exit_zero(capsys):
    assert modelcheck_main(["--sites", "2", "--events", "2"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out


def test_cli_mutant_exit_one(capsys):
    rc = modelcheck_main(
        ["--sites", "2", "--events", "2", "--mutant", "skip-min-agreement"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "VIOLATION" in out
    assert "schedule prefix:" in out


def test_cli_rejects_out_of_range():
    with pytest.raises(SystemExit):
        modelcheck_main(["--sites", "9"])
