"""The modified 2-phase-commit checkpoint protocol (§3.2.1, Figure 3).

The protocol keeps backup queues bounded while guaranteeing a consistent
view across mirrors.  It deviates from textbook 2PC exactly the way the
paper describes:

* The central auxiliary unit (coordinator) proposes a timestamp — usually
  the most recent value in its backup queue — in a ``CHKPT`` control
  event (voting phase).
* Every site's *main unit* answers with ``chkpt_rep = min(chkpt, last
  processed)``; mirror aux units relay the reply to the central site.
* The coordinator computes the componentwise **minimum** over all
  replies and broadcasts a ``COMMIT`` for it.  Each unit trims its
  backup queue up to the committed timestamp.
* There are **no 'No' votes and no ABORT messages**, no commit-phase
  acknowledgements, and **no timeouts**: if a round never completes, the
  next round's commit encapsulates it; a commit naming an event no
  longer in a backup queue is ignored.

The classes here are pure state machines over control-message payloads;
the runtime units in :mod:`repro.core.aux_unit` / :mod:`repro.core.main_unit`
move the messages.  That separation lets the property-based tests drive
the protocol directly, including message-loss schedules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set

from .events import VectorTimestamp

__all__ = [
    "MAX_SKIPPED_INITIATIONS",
    "CHKPT",
    "CHKPT_REP",
    "COMMIT",
    "ChkptMsg",
    "ChkptRepMsg",
    "CommitMsg",
    "CheckpointCoordinator",
    "MainUnitCheckpointer",
    "CONTROL_MSG_SIZE",
]

CHKPT = "CHKPT"
CHKPT_REP = "CHKPT_REP"
COMMIT = "COMMIT"

#: Initiations in a row :meth:`CheckpointCoordinator.initiate_if_idle`
#: declines while a round collects before one supersedes it.  Finite
#: because the protocol has no timeouts: a lost CHKPT or CHKPT_REP leaves
#: its round collecting for ever, and only a later round absorbs it.
MAX_SKIPPED_INITIATIONS = 8

#: Wire size charged for checkpoint control events.  Small and constant:
#: a vector timestamp plus a handful of piggybacked counters.
CONTROL_MSG_SIZE = 128


@dataclass(frozen=True, slots=True)
class ChkptMsg:
    """Voting-phase proposal from the coordinator."""

    round_id: int
    vt: VectorTimestamp

    @classmethod
    def from_wire(cls, round_id: int, vt: VectorTimestamp) -> "ChkptMsg":
        """Codec hook (:mod:`repro.wire`).  Decoding re-materialises a
        proposal some coordinator already minted, so constructing it
        here keeps the checkpoint-ctor discipline: control events are
        *born* only in this module."""
        return cls(round_id=round_id, vt=vt)


@dataclass(frozen=True, slots=True)
class ChkptRepMsg:
    """A site's vote: the floor of the proposal and its own progress.

    ``monitored`` piggybacks the site's monitored-variable readings
    (ready/backup queue lengths, pending request buffer) so adaptation
    needs no extra control traffic (§3.2.2: "adaptation messages are
    piggybacked onto checkpointing messages").
    """

    round_id: int
    site: str
    vt: VectorTimestamp
    monitored: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_wire(
        cls,
        round_id: int,
        site: str,
        vt: VectorTimestamp,
        monitored: Dict[str, float],
    ) -> "ChkptRepMsg":
        """Codec hook (:mod:`repro.wire`); see :meth:`ChkptMsg.from_wire`."""
        return cls(round_id=round_id, site=site, vt=vt, monitored=monitored)


@dataclass(frozen=True, slots=True)
class CommitMsg:
    """Commit-phase broadcast: trim backup queues up to ``vt``.

    ``adapt`` optionally piggybacks an adaptation command (an opaque
    payload interpreted by :mod:`repro.core.adaptation`).
    """

    round_id: int
    vt: VectorTimestamp
    adapt: Optional[Any] = None

    def with_adapt(self, command: Any) -> "CommitMsg":
        """Copy of this commit with an adaptation command piggybacked.

        Keeping the derived-commit constructor here preserves the
        protocol discipline that checkpoint control events are only ever
        *born* in this module (enforced by ``repro-lint``'s
        ``checkpoint-ctor`` rule): the piggybacked copy carries the same
        round and vector, so it is the same protocol decision.
        """
        return CommitMsg(round_id=self.round_id, vt=self.vt, adapt=command)

    @classmethod
    def from_wire(
        cls, round_id: int, vt: VectorTimestamp, adapt: Optional[Any]
    ) -> "CommitMsg":
        """Codec hook (:mod:`repro.wire`); see :meth:`ChkptMsg.from_wire`."""
        return cls(round_id=round_id, vt=vt, adapt=adapt)


class CheckpointCoordinator:
    """Coordinator state machine run by the central auxiliary unit.

    One round at a time: initiating a new round while a previous one is
    still collecting replies *supersedes* it (the paper's no-timeout
    rationale — "the later commit will encapsulate the earlier one").
    """

    def __init__(
        self,
        participants: Set[str],
        monitor: Optional[Any] = None,
        first_round: int = 1,
    ):
        if not participants:
            raise ValueError("coordinator needs at least one participant")
        self.participants: FrozenSet[str] = frozenset(participants)
        #: optional invariant monitor (``repro.core.invariants``); its
        #: ``on_commit_decided`` hook sees every commit before broadcast
        self.monitor = monitor
        # ``first_round`` lets a replacement coordinator (a mirror
        # promoted after the central site failed) start in a round-id
        # space disjoint from its predecessor's, so in-flight replies to
        # the dead coordinator can never collide with a live round
        self._round_ids = itertools.count(first_round)
        self._current_round: Optional[int] = None
        self._proposal: Optional[VectorTimestamp] = None
        self._replies: Dict[str, VectorTimestamp] = {}
        self._last_monitored: Dict[str, Dict[str, float]] = {}
        # statistics
        self.rounds_started = 0
        self.rounds_committed = 0
        self.rounds_superseded = 0
        self.initiations_skipped = 0
        self._skipped_in_a_row = 0
        self.stale_replies = 0
        self.last_commit: Optional[VectorTimestamp] = None

    @property
    def collecting(self) -> bool:
        """True while a round is awaiting replies."""
        return self._current_round is not None

    def initiate(self, proposal: Optional[VectorTimestamp]) -> Optional[ChkptMsg]:
        """Start a round proposing ``proposal`` (the last backup-queue vt).

        Returns the CHKPT message to broadcast, or ``None`` when there
        is nothing to checkpoint (empty backup queue).  Any round still
        collecting is abandoned.
        """
        if proposal is None:
            return None
        if self._current_round is not None:
            self.rounds_superseded += 1
        self._current_round = next(self._round_ids)
        self._proposal = proposal
        self._replies = {}
        self._skipped_in_a_row = 0
        self.rounds_started += 1
        return ChkptMsg(round_id=self._current_round, vt=proposal)

    def initiate_if_idle(
        self, proposal: Optional[VectorTimestamp]
    ) -> Optional[ChkptMsg]:
        """:meth:`initiate`, unless a round is still collecting.

        An initiator that fires faster than a round trip would otherwise
        supersede every round before it commits: backup queues go
        untrimmed and each superseded CHKPT is traffic for nothing.  The
        collecting round is left to finish; after
        :data:`MAX_SKIPPED_INITIATIONS` declined calls in a row it is
        presumed lost and superseded.
        """
        if (
            self._current_round is not None
            and self._skipped_in_a_row < MAX_SKIPPED_INITIATIONS
        ):
            self._skipped_in_a_row += 1
            self.initiations_skipped += 1
            return None
        return self.initiate(proposal)

    def on_reply(self, reply: ChkptRepMsg) -> Optional[CommitMsg]:
        """Record a vote; returns the COMMIT once all sites have voted.

        Votes for superseded rounds or from unknown sites are dropped
        (a late reply cannot corrupt a newer round).
        """
        if reply.round_id != self._current_round:
            self.stale_replies += 1
            return None
        if reply.site not in self.participants:
            self.stale_replies += 1
            return None
        self._replies[reply.site] = reply.vt
        if reply.monitored:
            self._last_monitored[reply.site] = dict(reply.monitored)
        return self._complete_round()

    def set_participants(self, participants: Set[str]) -> Optional[CommitMsg]:
        """Install a new membership view (failover / site rejoin).

        A round still collecting keeps running against the new set:
        replies from removed sites are discarded, and if the survivors
        have in fact all voted already, the round completes now — the
        returned COMMIT must then be broadcast by the caller.  (A dead
        site can otherwise wedge the round until the next initiation
        supersedes it, which is safe but slower.)
        """
        if not participants:
            raise ValueError("coordinator needs at least one participant")
        self.participants = frozenset(participants)
        if self._current_round is None:
            return None
        self._replies = {
            site: vt for site, vt in self._replies.items()
            if site in self.participants
        }
        return self._complete_round()

    def _complete_round(self) -> Optional[CommitMsg]:
        """Commit the collecting round once every participant has voted."""
        if self._current_round is None or self._proposal is None:
            return None
        if set(self._replies) != set(self.participants):
            return None
        # All votes in: the agreed value is the componentwise minimum of
        # every reply (each already floored against the proposal).
        commit_vt = self._proposal
        for vt in self._replies.values():
            commit_vt = commit_vt.floor(vt)
        if self.monitor is not None:
            self.monitor.on_commit_decided(self._proposal, self._replies, commit_vt)
        round_id = self._current_round
        self._current_round = None
        self._proposal = None
        self._replies = {}
        self.rounds_committed += 1
        self.last_commit = commit_vt
        return CommitMsg(round_id=round_id, vt=commit_vt)

    def monitored_view(self) -> Dict[str, float]:
        """Latest piggybacked monitor readings, aggregated by maximum.

        The adaptation controller triggers on the *worst* site: a single
        overloaded mirror is enough to justify shedding mirroring work.
        """
        agg: Dict[str, float] = {}
        for readings in self._last_monitored.values():
            for index, value in readings.items():
                agg[index] = max(agg.get(index, 0.0), value)
        return agg


class MainUnitCheckpointer:
    """Main-unit side of the protocol (every site, central included).

    Tracks the vector timestamp of business-logic progress; answers
    CHKPT proposals with ``min(chkpt, last processed)`` per Figure 3.
    """

    def __init__(self, site: str):
        self.site = site
        self.processed_vt = VectorTimestamp()
        self.replies_sent = 0
        self.commits_applied = 0

    def note_processed(self, stream: str, seqno: int) -> None:
        """Record that the EDE has processed event (stream, seqno).

        ``processed_vt`` is private to this checkpointer (votes hand out
        fresh floors of it), so the in-place advance is safe and saves
        one timestamp allocation per processed event.
        """
        self.processed_vt.advance(stream, seqno)

    def on_chkpt(
        self, msg: ChkptMsg, monitored: Optional[Dict[str, float]] = None
    ) -> ChkptRepMsg:
        """Vote: the floor of the proposal and local progress."""
        self.replies_sent += 1
        return ChkptRepMsg(
            round_id=msg.round_id,
            site=self.site,
            vt=msg.vt.floor(self.processed_vt),
            monitored=dict(monitored or {}),
        )

    def on_commit(self, msg: CommitMsg) -> VectorTimestamp:
        """Apply a commit; returns the vt to trim backup queues with."""
        self.commits_applied += 1
        return msg.vt
