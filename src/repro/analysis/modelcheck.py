"""Exhaustive interleaving model checker for the checkpoint protocol.

The paper's modified 2-phase commit (CHKPT -> CHKPT_REP -> COMMIT with
componentwise-minimum agreement, no aborts, no timeouts — PAPER §3.2.1,
Figure 3) has a small, finite state space for realistic parameters:
2–3 mirror sites with a handful of in-flight events.  This module
enumerates **every** delivery order of the protocol messages,
interleaved with every order of per-site event processing, and checks
the safety properties on each reachable state — the offline-validation
discipline MSCS applied to its regroup protocol, pointed at our own
protocol *implementation*: the checker drives the real
:class:`~repro.core.checkpoint.CheckpointCoordinator`,
:class:`~repro.core.checkpoint.MainUnitCheckpointer` and
:class:`~repro.core.queues.BackupQueue` objects, not a re-model of them.

Model
-----
* ``--events`` update events on two streams are mirrored to every site
  before the protocol starts (they sit in each backup queue); each site
  processes them in order, one ``process`` action at a time.
* The coordinator initiates round 1 immediately; control messages
  travel per-site FIFO channels (matching the transport), and a
  ``deliver`` action consumes one message.
* With ``--losses N``, schedules may also *drop* up to N round-1
  control messages — the paper's claim is that a lost control event is
  absorbed by the next round ("the later commit encapsulates it").
* Once all processing and channels drain, the coordinator's periodic
  initiator (``initiate_if_idle``, the rule the live sites run) is
  called until it starts a round: at once when no round is collecting,
  after ``MAX_SKIPPED_INITIATIONS`` declined calls when a lost round-1
  message left one collecting.  That loss-free final round runs
  atomically; afterwards every backup queue must be empty.

Checked invariants
------------------
* **agreement / min-timestamp** — a commit's vector equals the
  proposal floored by every reply the coordinator collected;
* **trim safety (no lost update)** — no site ever trims with a vector
  its own processing does not dominate, and a trim removes exactly the
  covered prefix of the backup queue;
* **commit monotonicity** — successive commits applied by a site never
  regress;
* **absorption / termination** — after the final round, every backup
  queue is empty and every site reached the full vector, no matter
  which round-1 messages were dropped.

Deliberately broken variants (``--mutant``) demonstrate the checker has
teeth; they are expected to be caught.

State-space notes: distinct states are deduplicated (memoised DFS), so
the reported interleaving count is exact while the work is proportional
to the much smaller state count.  The checker reaches into coordinator
internals (``_current_round`` ...) to key states — it is a white-box
companion to the protocol module, updated in lockstep with it.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..core.checkpoint import (
    MAX_SKIPPED_INITIATIONS,
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from ..core.events import UpdateEvent, VectorTimestamp
from ..core.queues import BackupQueue

__all__ = [
    "ModelCheckViolation",
    "ModelCheckReport",
    "check_protocol",
    "MUTANTS",
]

_STREAMS = ("faa", "delta")


class ModelCheckViolation(AssertionError):
    """A safety property failed on some schedule."""

    def __init__(self, message: str, trace: Optional[List[str]] = None):
        super().__init__(message)
        self.trace: List[str] = list(trace or [])


@dataclass(frozen=True)
class ModelCheckReport:
    """Result of an exhaustive run (violation-free, or it would have raised)."""

    sites: int
    events: int
    interleavings: int
    states: int
    lossy_interleavings: int
    lossy_states: int
    max_losses: int
    mutant: Optional[str] = None

    def render(self) -> str:
        lines = [
            f"modelcheck: {self.sites} site(s) x {self.events} in-flight event(s)"
            + (f" [mutant={self.mutant}]" if self.mutant else ""),
            f"  reliable delivery : {self.interleavings} interleavings over "
            f"{self.states} distinct states — all invariants hold",
        ]
        if self.max_losses > 0:
            lines.append(
                f"  with <= {self.max_losses} lost control msg(s): "
                f"{self.lossy_interleavings} interleavings over "
                f"{self.lossy_states} states — every loss absorbed by the "
                "final round"
            )
        return "\n".join(lines)


def _build_events(n_events: int) -> List[UpdateEvent]:
    """``n_events`` stamped events alternating over two streams."""
    clock = VectorTimestamp()
    events: List[UpdateEvent] = []
    for i in range(n_events):
        stream = _STREAMS[i % len(_STREAMS)]
        seqno = i // len(_STREAMS) + 1
        clock = clock.advanced(stream, seqno)
        events.append(
            UpdateEvent(
                kind="modelcheck",
                stream=stream,
                seqno=seqno,
                key=f"K{i}",
                vt=clock,
            )
        )
    return events


class _AgreementRecorder:
    """Coordinator monitor hook: re-derives the committed vector from the
    proposal and the replies and rejects any disagreement."""

    def on_commit_decided(self, proposal, replies, commit_vt) -> None:
        expected = proposal
        for vt in replies.values():
            expected = expected.floor(vt)
        if expected != commit_vt:
            raise ModelCheckViolation(
                "min-timestamp agreement violated: committed "
                f"{commit_vt!r}, floor of proposal+replies is {expected!r}"
            )

    # The runtime monitor protocol has more hooks; the coordinator only
    # calls this one.


class _World:
    """One protocol configuration: real protocol objects + channels."""

    __slots__ = (
        "sites",
        "coord",
        "checkpointers",
        "backups",
        "pending",
        "to_site",
        "from_site",
        "drops_left",
        "final_done",
        "last_commit",
        "full_vt",
        "eager_trim",
    )

    def __init__(
        self,
        n_sites: int,
        events: List[UpdateEvent],
        drops_left: int,
        coordinator_cls=CheckpointCoordinator,
        eager_trim: bool = False,
    ):
        self.sites = tuple(f"site{i}" for i in range(n_sites))
        self.coord = coordinator_cls(
            set(self.sites), monitor=_AgreementRecorder()
        )
        self.checkpointers = {s: MainUnitCheckpointer(s) for s in self.sites}
        self.backups: Dict[str, BackupQueue] = {}
        self.pending: Dict[str, List[UpdateEvent]] = {}
        for s in self.sites:
            queue = BackupQueue()
            for ev in events:
                queue.append(ev)
            self.backups[s] = queue
            self.pending[s] = list(events)
        self.to_site: Dict[str, Deque] = {s: deque() for s in self.sites}
        self.from_site: Dict[str, Deque] = {s: deque() for s in self.sites}
        self.drops_left = drops_left
        self.final_done = False
        self.last_commit: Dict[str, Optional[VectorTimestamp]] = {
            s: None for s in self.sites
        }
        self.full_vt = events[-1].vt if events else VectorTimestamp()
        self.eager_trim = eager_trim
        # round 1 starts immediately, proposing the last backup vector
        msg = self.coord.initiate(self.backups[self.sites[0]].last_vt())
        if msg is not None:
            for s in self.sites:
                self.to_site[s].append(msg)

    def clone(self) -> "_World":
        return copy.deepcopy(self)


def _vt_key(vt: Optional[VectorTimestamp]) -> Tuple:
    return tuple(sorted(vt.as_dict().items())) if vt is not None else ()


def _msg_key(msg) -> Tuple:
    if isinstance(msg, ChkptMsg):
        return ("CHKPT", msg.round_id, _vt_key(msg.vt))
    if isinstance(msg, ChkptRepMsg):
        return ("CHKPT_REP", msg.round_id, msg.site, _vt_key(msg.vt))
    if isinstance(msg, CommitMsg):
        return ("COMMIT", msg.round_id, _vt_key(msg.vt))
    raise TypeError(f"unexpected control message {msg!r}")


def _state_key(w: _World) -> Tuple:
    coord = w.coord
    coord_key = (
        coord._current_round,
        coord._skipped_in_a_row,
        _vt_key(coord._proposal),
        tuple(sorted((s, _vt_key(vt)) for s, vt in coord._replies.items())),
    )
    site_keys = tuple(
        (
            len(w.pending[s]),
            _vt_key(w.checkpointers[s].processed_vt),
            tuple((ev.stream, ev.seqno) for ev in w.backups[s].events()),
            _vt_key(w.last_commit[s]),
            tuple(_msg_key(m) for m in w.to_site[s]),
            tuple(_msg_key(m) for m in w.from_site[s]),
        )
        for s in w.sites
    )
    return (w.drops_left, w.final_done, coord_key, site_keys)


def _safe_trim(w: _World, site: str, vt: VectorTimestamp, trace: List[str]) -> None:
    """Every trim in the model funnels through here: the two trim-safety
    properties are asserted no matter which code path asked for it."""
    ck = w.checkpointers[site]
    if not ck.processed_vt.dominates(vt):
        raise ModelCheckViolation(
            f"{site} trimming with {vt!r} which its processing "
            f"{ck.processed_vt!r} does not dominate: an unprocessed event "
            "would be lost",
            trace,
        )
    backup = w.backups[site]
    expected = backup.covered_count(vt)
    removed = backup.trim(vt)
    if removed != expected:
        raise ModelCheckViolation(
            f"{site} trim removed {removed} events, covered prefix was "
            f"{expected}",
            trace,
        )


def _apply_commit(w: _World, site: str, commit: CommitMsg, trace: List[str]) -> None:
    prev = w.last_commit[site]
    if prev is not None and not commit.vt.dominates(prev):
        raise ModelCheckViolation(
            f"{site} commit regression: {commit.vt!r} after {prev!r}",
            trace,
        )
    vt = w.checkpointers[site].on_commit(commit)
    _safe_trim(w, site, vt, trace)
    w.last_commit[site] = commit.vt


def _actions(w: _World) -> List[Tuple]:
    acts: List[Tuple] = []
    for s in w.sites:
        if w.pending[s]:
            acts.append(("process", s))
        if w.to_site[s]:
            acts.append(("deliver_site", s))
            if w.drops_left > 0:
                acts.append(("drop_site", s))
        if w.from_site[s]:
            acts.append(("deliver_coord", s))
            if w.drops_left > 0:
                acts.append(("drop_coord", s))
    if not acts and not w.final_done:
        acts.append(("final_round",))
    return acts


def _broadcast(w: _World, commit: CommitMsg) -> None:
    for s in w.sites:
        w.to_site[s].append(commit)


def _apply_action(w: _World, action: Tuple, trace: List[str]) -> None:
    kind = action[0]
    if kind == "process":
        site = action[1]
        ev = w.pending[site].pop(0)
        w.checkpointers[site].note_processed(ev.stream, ev.seqno)
    elif kind == "deliver_site":
        site = action[1]
        msg = w.to_site[site].popleft()
        if isinstance(msg, ChkptMsg):
            if w.eager_trim:
                # mutant: trim on the *proposal*, before agreement
                _safe_trim(w, site, msg.vt, trace)
            reply = w.checkpointers[site].on_chkpt(msg)
            w.from_site[site].append(reply)
        elif isinstance(msg, CommitMsg):
            _apply_commit(w, site, msg, trace)
        else:  # pragma: no cover - model only routes CHKPT/COMMIT here
            raise TypeError(f"unexpected site-bound message {msg!r}")
    elif kind == "deliver_coord":
        site = action[1]
        msg = w.from_site[site].popleft()
        commit = w.coord.on_reply(msg)
        if commit is not None:
            _broadcast(w, commit)
    elif kind == "drop_site":
        site = action[1]
        w.to_site[site].popleft()
        w.drops_left -= 1
    elif kind == "drop_coord":
        site = action[1]
        w.from_site[site].popleft()
        w.drops_left -= 1
    elif kind == "final_round":
        # quiescence: run one loss-free round to completion, proposing
        # the full mirrored vector — a later round always proposes at
        # least what any lost commit covered, which is exactly how the
        # paper absorbs losses ("the later commit encapsulates the
        # earlier one").  If an earlier round is still collecting (its
        # replies were dropped), the periodic initiator declines a
        # bounded number of times and then supersedes it — the
        # no-timeout rule.
        msg = None
        for _ in range(MAX_SKIPPED_INITIATIONS + 1):
            msg = w.coord.initiate_if_idle(w.full_vt)
            if msg is not None:
                break
        commit: Optional[CommitMsg] = None
        if msg is not None:
            for s in w.sites:
                reply = w.checkpointers[s].on_chkpt(msg)
                maybe = w.coord.on_reply(reply)
                if maybe is not None:
                    commit = maybe
        if commit is not None:
            for s in w.sites:
                _apply_commit(w, s, commit, trace)
        w.final_done = True
    else:  # pragma: no cover
        raise ValueError(f"unknown action {action!r}")


def _verify_terminal(w: _World, trace: List[str]) -> None:
    for s in w.sites:
        if len(w.backups[s]):
            leftover = [(e.stream, e.seqno) for e in w.backups[s].events()]
            raise ModelCheckViolation(
                f"terminal state: {s} backup queue still holds {leftover} — "
                "a lost control event was not absorbed by the final round",
                trace,
            )
        if w.checkpointers[s].processed_vt != w.full_vt:
            raise ModelCheckViolation(
                f"terminal state: {s} processed {w.checkpointers[s].processed_vt!r}"
                f" != full vector {w.full_vt!r}",
                trace,
            )
        if w.last_commit[s] != w.full_vt:
            raise ModelCheckViolation(
                f"terminal state: {s} last commit {w.last_commit[s]!r} != "
                f"full vector {w.full_vt!r}",
                trace,
            )


def _explore(world: _World) -> Tuple[int, int]:
    """DFS with state dedup; returns (interleavings, distinct states).

    ``interleavings`` counts complete schedules (paths to a terminal
    state); memoisation makes the count exact without re-walking shared
    suffixes.  Any violation raises with the schedule prefix attached.
    """
    memo: Dict[Tuple, int] = {}
    trace: List[str] = []

    def visit(w: _World) -> int:
        key = _state_key(w)
        cached = memo.get(key)
        if cached is not None:
            return cached
        acts = _actions(w)
        if not acts:
            _verify_terminal(w, trace)
            memo[key] = 1
            return 1
        total = 0
        for action in acts:
            branch = w.clone()
            trace.append(" ".join(str(part) for part in action))
            try:
                _apply_action(branch, action, trace)
                total += visit(branch)
            finally:
                trace.pop()
        memo[key] = total
        return total

    paths = visit(world)
    return paths, len(memo)


# -- deliberately broken protocol variants ------------------------------


class _SkipMinAgreementCoordinator(CheckpointCoordinator):
    """Mutant: commits the raw proposal as soon as the first reply
    arrives — skipping both the all-votes barrier and the
    componentwise-minimum agreement.  The checker must catch this as a
    trim-safety violation on some schedule."""

    def on_reply(self, reply: ChkptRepMsg) -> Optional[CommitMsg]:
        if reply.round_id != self._current_round:
            self.stale_replies += 1
            return None
        round_id = self._current_round
        vt = self._proposal
        self._current_round = None
        self._proposal = None
        self._replies = {}
        self.rounds_committed += 1
        self.last_commit = vt
        return CommitMsg(round_id=round_id, vt=vt)  # lint: allow-checkpoint-ctor


def _make_world(
    sites: int, events: List[UpdateEvent], drops: int, mutant: Optional[str]
) -> _World:
    if mutant is None:
        return _World(sites, events, drops)
    if mutant == "skip-min-agreement":
        return _World(
            sites, events, drops, coordinator_cls=_SkipMinAgreementCoordinator
        )
    if mutant == "eager-trim":
        return _World(sites, events, drops, eager_trim=True)
    raise ValueError(f"unknown mutant {mutant!r}")


#: Broken-protocol variants, used to prove the checker catches real bugs.
MUTANTS = ("skip-min-agreement", "eager-trim")


def check_protocol(
    sites: int = 2,
    events: int = 3,
    max_losses: int = 1,
    mutant: Optional[str] = None,
) -> ModelCheckReport:
    """Exhaustively check the protocol; raises :class:`ModelCheckViolation`
    on the first schedule that breaks an invariant."""
    if sites < 1:
        raise ValueError("sites must be >= 1")
    if events < 1:
        raise ValueError("events must be >= 1")
    evs = _build_events(events)
    interleavings, states = _explore(_make_world(sites, evs, 0, mutant))
    lossy_interleavings = lossy_states = 0
    if max_losses > 0:
        lossy_interleavings, lossy_states = _explore(
            _make_world(sites, evs, max_losses, mutant)
        )
    return ModelCheckReport(
        sites=sites,
        events=events,
        interleavings=interleavings,
        states=states,
        lossy_interleavings=lossy_interleavings,
        lossy_states=lossy_states,
        max_losses=max_losses,
        mutant=mutant,
    )
