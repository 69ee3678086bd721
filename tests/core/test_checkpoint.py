"""Unit tests for the modified 2PC checkpoint protocol state machines."""

import pytest

from repro.core.checkpoint import (
    MAX_SKIPPED_INITIATIONS,
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from repro.core.config import MirrorConfig
from repro.core.events import UpdateEvent, VectorTimestamp
from repro.core.sitecore import CentralCore, MirrorCore


def vt(**kw):
    return VectorTimestamp(kw)


# -------------------------------------------------------------- Coordinator
def test_coordinator_requires_participants():
    with pytest.raises(ValueError):
        CheckpointCoordinator(set())


def test_initiate_none_proposal_skips_round():
    coord = CheckpointCoordinator({"central"})
    assert coord.initiate(None) is None
    assert coord.rounds_started == 0


def test_full_round_commits_min_of_replies():
    coord = CheckpointCoordinator({"central", "m1", "m2"})
    msg = coord.initiate(vt(faa=10, delta=5))
    assert isinstance(msg, ChkptMsg)

    assert coord.on_reply(ChkptRepMsg(msg.round_id, "central", vt(faa=10, delta=5))) is None
    assert coord.on_reply(ChkptRepMsg(msg.round_id, "m1", vt(faa=7, delta=5))) is None
    commit = coord.on_reply(ChkptRepMsg(msg.round_id, "m2", vt(faa=9, delta=3)))
    assert isinstance(commit, CommitMsg)
    assert commit.vt == vt(faa=7, delta=3)
    assert coord.rounds_committed == 1
    assert coord.last_commit == commit.vt
    assert not coord.collecting


def test_duplicate_reply_from_same_site_does_not_complete_round():
    coord = CheckpointCoordinator({"central", "m1"})
    msg = coord.initiate(vt(faa=5))
    coord.on_reply(ChkptRepMsg(msg.round_id, "central", vt(faa=5)))
    # same site again: still waiting for m1
    assert coord.on_reply(ChkptRepMsg(msg.round_id, "central", vt(faa=4))) is None
    commit = coord.on_reply(ChkptRepMsg(msg.round_id, "m1", vt(faa=5)))
    # the central's *latest* vote is used
    assert commit.vt == vt(faa=4)


def test_stale_round_replies_dropped():
    coord = CheckpointCoordinator({"central", "m1"})
    old = coord.initiate(vt(faa=5))
    new = coord.initiate(vt(faa=9))
    assert coord.rounds_superseded == 1
    # replies to the superseded round are ignored
    assert coord.on_reply(ChkptRepMsg(old.round_id, "central", vt(faa=5))) is None
    assert coord.on_reply(ChkptRepMsg(old.round_id, "m1", vt(faa=5))) is None
    assert coord.stale_replies == 2
    assert coord.rounds_committed == 0
    # the new round still commits normally
    coord.on_reply(ChkptRepMsg(new.round_id, "central", vt(faa=9)))
    commit = coord.on_reply(ChkptRepMsg(new.round_id, "m1", vt(faa=8)))
    assert commit.vt == vt(faa=8)


def test_unknown_site_reply_dropped():
    coord = CheckpointCoordinator({"central"})
    msg = coord.initiate(vt(faa=1))
    assert coord.on_reply(ChkptRepMsg(msg.round_id, "intruder", vt(faa=1))) is None
    assert coord.stale_replies == 1


def test_lost_reply_round_superseded_by_next():
    """No timeouts: an incomplete round is simply encapsulated later."""
    coord = CheckpointCoordinator({"central", "m1"})
    r1 = coord.initiate(vt(faa=5))
    coord.on_reply(ChkptRepMsg(r1.round_id, "central", vt(faa=5)))
    # m1's reply is lost; next checkpoint starts
    r2 = coord.initiate(vt(faa=12))
    coord.on_reply(ChkptRepMsg(r2.round_id, "central", vt(faa=12)))
    commit = coord.on_reply(ChkptRepMsg(r2.round_id, "m1", vt(faa=10)))
    assert commit.vt == vt(faa=10)
    # the later commit covers everything the first would have
    assert commit.vt.dominates(vt(faa=5))


def test_periodic_initiator_leaves_a_collecting_round_alone():
    """A round still collecting is not superseded by the next tick: it
    commits, and only then does the initiator start another."""
    coord = CheckpointCoordinator({"central", "m1"})
    r1 = coord.initiate_if_idle(vt(faa=5))
    assert r1 is not None
    coord.on_reply(ChkptRepMsg(r1.round_id, "central", vt(faa=5)))
    assert coord.initiate_if_idle(vt(faa=9)) is None
    assert coord.initiations_skipped == 1 and coord.rounds_superseded == 0
    commit = coord.on_reply(ChkptRepMsg(r1.round_id, "m1", vt(faa=4)))
    assert commit.vt == vt(faa=4)
    r2 = coord.initiate_if_idle(vt(faa=9))
    assert r2 is not None and r2.round_id != r1.round_id
    assert coord.rounds_started == 2


def test_periodic_initiator_gives_a_lost_round_up_after_a_fixed_wait():
    """No timeouts: a round whose CHKPT or CHKPT_REP was lost collects
    for ever, so after MAX_SKIPPED_INITIATIONS declined ticks the next
    one supersedes it — and the skip count starts over."""
    coord = CheckpointCoordinator({"central", "m1"})
    lost = coord.initiate_if_idle(vt(faa=5))
    for _ in range(MAX_SKIPPED_INITIATIONS):
        assert coord.initiate_if_idle(vt(faa=12)) is None
    later = coord.initiate_if_idle(vt(faa=12))
    assert later is not None and coord.rounds_superseded == 1
    assert coord.initiate_if_idle(vt(faa=20)) is None  # counting anew
    # the lost round's late vote is stale; the later round absorbs it
    assert coord.on_reply(ChkptRepMsg(lost.round_id, "m1", vt(faa=5))) is None
    coord.on_reply(ChkptRepMsg(later.round_id, "central", vt(faa=12)))
    commit = coord.on_reply(ChkptRepMsg(later.round_id, "m1", vt(faa=11)))
    assert commit.vt == vt(faa=11) and commit.vt.dominates(vt(faa=5))


def test_monitored_values_aggregated_by_max():
    coord = CheckpointCoordinator({"central", "m1", "m2"})
    msg = coord.initiate(vt(faa=3))
    coord.on_reply(ChkptRepMsg(msg.round_id, "central", vt(faa=3), {"ready_queue": 4}))
    coord.on_reply(ChkptRepMsg(msg.round_id, "m1", vt(faa=3), {"ready_queue": 40, "pending_requests": 2}))
    coord.on_reply(ChkptRepMsg(msg.round_id, "m2", vt(faa=3), {"ready_queue": 7}))
    view = coord.monitored_view()
    assert view["ready_queue"] == 40
    assert view["pending_requests"] == 2


def test_monitored_view_persists_across_rounds():
    coord = CheckpointCoordinator({"central"})
    m1 = coord.initiate(vt(faa=1))
    coord.on_reply(ChkptRepMsg(m1.round_id, "central", vt(faa=1), {"ready_queue": 10}))
    m2 = coord.initiate(vt(faa=2))
    coord.on_reply(ChkptRepMsg(m2.round_id, "central", vt(faa=2)))
    assert coord.monitored_view()["ready_queue"] == 10


# ------------------------------------------------------ MainUnitCheckpointer
def test_main_unit_votes_floor_of_proposal_and_progress():
    mu = MainUnitCheckpointer("m1")
    mu.note_processed("faa", 4)
    mu.note_processed("delta", 9)
    rep = mu.on_chkpt(ChkptMsg(round_id=1, vt=vt(faa=6, delta=2)))
    assert rep.vt == vt(faa=4, delta=2)
    assert rep.site == "m1"
    assert mu.replies_sent == 1


def test_main_unit_progress_monotonic():
    mu = MainUnitCheckpointer("m1")
    mu.note_processed("faa", 5)
    mu.note_processed("faa", 3)  # regression attempt ignored
    assert mu.processed_vt == vt(faa=5)


def test_main_unit_piggybacks_monitored_values():
    mu = MainUnitCheckpointer("m1")
    rep = mu.on_chkpt(ChkptMsg(1, vt(faa=1)), monitored={"ready_queue": 12})
    assert rep.monitored == {"ready_queue": 12}


def test_main_unit_commit_applies():
    mu = MainUnitCheckpointer("m1")
    out = mu.on_commit(CommitMsg(round_id=1, vt=vt(faa=2)))
    assert out == vt(faa=2)
    assert mu.commits_applied == 1


# ----------------------------------------------------- protocol end-to-end
def test_protocol_safety_commit_never_exceeds_any_progress():
    """The committed vt never covers an event some main unit has not
    processed (checkpoint safety invariant, DESIGN.md §6)."""
    sites = {"central": 9, "m1": 4, "m2": 7}
    coord = CheckpointCoordinator(set(sites))
    units = {name: MainUnitCheckpointer(name) for name in sites}
    for name, progress in sites.items():
        units[name].note_processed("faa", progress)

    msg = coord.initiate(vt(faa=10))
    commit = None
    for name in sites:
        commit = coord.on_reply(units[name].on_chkpt(msg)) or commit
    assert commit is not None
    for name, progress in sites.items():
        assert commit.vt.component("faa") <= progress
    assert commit.vt == vt(faa=4)


# ------------------------------------------------------- the closing round
def test_closing_round_absorbs_a_commit_lost_after_central_trimmed():
    """Round 1 commits everything and central trims its backup empty,
    but the COMMIT to the mirror is lost.  The closing round re-proposes
    the last commit, so the mirror trims what it still holds; a periodic
    round on the empty backup proposes nothing."""
    events = [
        UpdateEvent(kind="pos", stream="faa", seqno=i, key="F", vt=vt(faa=i))
        for i in (1, 2, 3)
    ]
    central_ck, mirror_ck = MainUnitCheckpointer("central"), MainUnitCheckpointer("m1")
    for ev in events:
        central_ck.note_processed(ev.stream, ev.seqno)
        mirror_ck.note_processed(ev.stream, ev.seqno)
    central = CentralCore(MirrorConfig(), {"central", "m1"}, central_ck)
    mirror = MirrorCore("m1", mirror_ck)
    central.backup.extend(events)
    mirror.backup.extend(events)

    chkpt = central.open_round({}, skip_if_collecting=False)
    commit = central.on_reply(mirror.vote(chkpt, {}))
    assert commit is not None and commit.vt == vt(faa=3)
    assert central.trim(commit) == 3  # ... and the COMMIT to m1 is lost
    assert len(central.backup) == 0 and len(mirror.backup) == 3

    assert central.open_round({}, skip_if_collecting=True) is None
    closing = central.open_round({}, skip_if_collecting=False, final=True)
    assert isinstance(closing, ChkptMsg) and closing.vt == vt(faa=3)
    commit = central.on_reply(mirror.vote(closing, {}))
    trimmed, _ = mirror.commit(commit)
    assert trimmed == 3 and len(mirror.backup) == 0
