"""Exhaustive interleaving model checker for the checkpoint protocol.

The paper's modified 2-phase commit (CHKPT -> CHKPT_REP -> COMMIT with
componentwise-minimum agreement, no aborts, no timeouts — PAPER §3.2.1,
Figure 3) has a small, finite state space for realistic parameters:
2–3 mirror sites with a handful of in-flight events.  This module
describes that space as a :class:`~repro.analysis.explore.Model`, and
the explorer enumerates **every** delivery order of the protocol
messages, interleaved with every order of per-site event processing —
the offline-validation discipline MSCS applied to its regroup protocol,
pointed at the code the sites run: central is a
:class:`~repro.core.sitecore.CentralCore`, each mirror a
:class:`~repro.core.sitecore.MirrorCore`, and one
:class:`~repro.core.invariants.InvariantMonitor` watches them all, as
in the simulator and the live cluster.

Model
-----
* ``--events`` update events on two streams are mirrored to every site
  before the protocol starts (they sit in each backup queue); central's
  main unit has processed them, and each mirror processes them in
  order, one ``process`` action at a time.
* Central opens round 1 at once (:meth:`CentralCore.open_round`, which
  casts central's own vote); control messages travel per-site FIFO
  channels (matching the transport), and a ``deliver`` action consumes
  one message: a mirror votes (:meth:`MirrorCore.vote`) or commits
  (:meth:`MirrorCore.commit`); central counts a vote
  (:meth:`CentralCore.on_reply`) and, when it completes the round,
  trims its own backup and sends the COMMIT to every mirror.
* With ``--losses N``, schedules may also *drop* up to N round-1
  control messages — the paper's claim is that a lost control event is
  absorbed by the next round ("the later commit encapsulates it").
* Once all processing and channels drain, central's closing round is
  opened by the periodic initiator's rule (``skip_if_collecting``):
  it declines while a round collects and supersedes it after
  ``MAX_SKIPPED_INITIATIONS`` declined calls.  That loss-free round
  runs atomically; afterwards every backup queue must be empty.

Checked invariants
------------------
* **agreement, trim safety, per-round agreement, commit monotonicity**
  — the runtime monitor's checks, on every commit decision and every
  trim of every schedule;
* **absorption / termination** (model-side, at each terminal state) —
  every backup queue is empty, every mirror processed the full vector
  and every site's last commit is the full vector, no matter which
  round-1 messages were dropped.

Deliberately broken variants (``--mutant``) demonstrate the checker has
teeth; they are expected to be caught.

The key reaches into coordinator internals (``_current_round`` ...) —
the checker is a white-box companion to the protocol module, updated in
lockstep with it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.checkpoint import (
    MAX_SKIPPED_INITIATIONS,
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from ..core.config import MirrorConfig
from ..core.events import UpdateEvent, VectorTimestamp
from ..core.invariants import InvariantMonitor
from ..core.queues import BackupQueue
from ..core.sitecore import CentralCore, MirrorCore
from .explore import Model, ModelCheckReport, ModelCheckViolation, explore

__all__ = ["CheckpointModel", "check_protocol", "MUTANTS"]

_STREAMS = ("faa", "delta")

#: Broken-protocol variants, used to prove the checker catches real bugs.
MUTANTS = ("skip-min-agreement", "eager-trim")


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


class _EagerTrimMirror(MirrorCore):
    """Mutant: trims on the CHKPT's proposal, before agreement."""

    def vote(self, chkpt: ChkptMsg, readings: Dict[str, float]) -> ChkptRepMsg:
        self.trim(chkpt)  # the proposal's round and vector, as if committed
        return super().vote(chkpt, readings)


class _World:
    """Central, the mirrors, and the control channels between them."""

    __slots__ = ("central", "mirrors", "processed", "to_site", "from_site",
                 "drops_left", "final_done")

    def __init__(self, central: CentralCore, mirrors: Dict[str, MirrorCore],
                 drops: int):
        self.central = central
        self.mirrors = mirrors
        #: how many of the events each mirror has processed
        self.processed = {s: 0 for s in mirrors}
        self.to_site: Dict[str, Deque] = {s: deque() for s in mirrors}
        self.from_site: Dict[str, Deque] = {s: deque() for s in mirrors}
        self.drops_left = drops
        self.final_done = False


def _vt_key(vt: Optional[VectorTimestamp]) -> Tuple:
    return tuple(sorted(vt.as_dict().items())) if vt is not None else ()


def _msg_key(msg) -> Tuple:
    if isinstance(msg, ChkptRepMsg):
        return ("CHKPT_REP", msg.round_id, msg.site, _vt_key(msg.vt))
    return (type(msg).__name__, msg.round_id, _vt_key(msg.vt))


class CheckpointModel(Model):
    """``sites`` mirrors and central, ``events`` in flight, up to
    ``losses`` round-1 control messages dropped."""

    def __init__(self, sites: int, events: int, losses: int,
                 mutant: Optional[str] = None):
        if mutant is not None and mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {mutant!r}")
        self.sites = tuple(f"site{i}" for i in range(sites))
        self.events = _build_events(events)
        self.losses = losses
        self.mutant = mutant
        self.full_vt = self.events[-1].vt

    def initial(self) -> _World:
        monitor = InvariantMonitor()
        checkpointer = MainUnitCheckpointer("central")
        backup = BackupQueue()
        for ev in self.events:
            checkpointer.note_processed(ev.stream, ev.seqno)
            backup.append(ev)
        participants = set(self.sites) | {"central"}
        central = CentralCore(MirrorConfig(), participants, checkpointer,
                              monitor=monitor, backup=backup)
        if self.mutant == "skip-min-agreement":
            central.coordinator = _SkipMinAgreementCoordinator(
                participants, monitor=monitor
            )
        mirror_cls = _EagerTrimMirror if self.mutant == "eager-trim" else MirrorCore
        mirrors = {}
        for s in self.sites:
            mirror = mirrors[s] = mirror_cls(s, MainUnitCheckpointer(s), monitor)
            mirror.backup.extend(self.events)
        w = _World(central, mirrors, self.losses)
        msg = central.open_round({}, skip_if_collecting=False)
        if isinstance(msg, CommitMsg):  # committed on central's own vote
            self._committed(w, msg)
        else:
            for s in self.sites:
                w.to_site[s].append(msg)
        return w

    def _committed(self, w: _World, commit: CommitMsg) -> None:
        w.central.trim(commit)
        for s in self.sites:
            w.to_site[s].append(commit)

    def actions(self, w: _World) -> List[Tuple]:
        acts: List[Tuple] = []
        for s in self.sites:
            if w.processed[s] < len(self.events):
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

    def step(self, w: _World, action: Tuple) -> None:
        kind = action[0]
        if kind == "final_round":
            self._final_round(w)
            return
        site = action[1]
        if kind == "process":
            ev = self.events[w.processed[site]]
            w.processed[site] += 1
            w.mirrors[site].checkpointer.note_processed(ev.stream, ev.seqno)
        elif kind == "deliver_site":
            msg = w.to_site[site].popleft()
            if isinstance(msg, ChkptMsg):
                w.from_site[site].append(w.mirrors[site].vote(msg, {}))
            else:
                w.mirrors[site].commit(msg)
        elif kind == "deliver_coord":
            commit = w.central.on_reply(w.from_site[site].popleft())
            if commit is not None:
                self._committed(w, commit)
        else:  # drop_site / drop_coord
            channel = w.to_site if kind == "drop_site" else w.from_site
            channel[site].popleft()
            w.drops_left -= 1

    def _final_round(self, w: _World) -> None:
        """The closing round, delivered atomically and without loss."""
        central = w.central
        msg = None
        for _ in range(MAX_SKIPPED_INITIATIONS + 1):
            msg = central.open_round({}, skip_if_collecting=True, final=True)
            if msg is not None:
                break
        commit = msg if isinstance(msg, CommitMsg) else None
        if isinstance(msg, ChkptMsg):
            for mirror in w.mirrors.values():
                commit = central.on_reply(mirror.vote(msg, {})) or commit
        if commit is not None:
            central.trim(commit)
            for mirror in w.mirrors.values():
                mirror.commit(commit)
        w.final_done = True

    def key(self, w: _World) -> Tuple:
        coord = w.central.coordinator
        monitor = w.central.monitor
        return (
            w.drops_left,
            w.final_done,
            coord._current_round,
            coord._skipped_in_a_row,
            _vt_key(coord._proposal),
            tuple(sorted((s, _vt_key(vt)) for s, vt in coord._replies.items())),
            len(w.central.backup),
            tuple(
                (
                    w.processed[s],
                    _vt_key(mirror.checkpointer.processed_vt),
                    len(mirror.backup),
                    _vt_key(monitor.last_commit(s)),
                    tuple(_msg_key(m) for m in w.to_site[s]),
                    tuple(_msg_key(m) for m in w.from_site[s]),
                )
                for s, mirror in w.mirrors.items()
            ),
        )

    def check_terminal(self, w: _World) -> None:
        full = self.full_vt
        for site in (w.central, *w.mirrors.values()):
            s = site.site
            if len(site.backup):
                leftover = [(e.stream, e.seqno) for e in site.backup.events()]
                raise ModelCheckViolation(
                    f"terminal state: {s} backup queue still holds {leftover} — "
                    "a lost control event was not absorbed by the final round"
                )
            if site.checkpointer.processed_vt != full:
                raise ModelCheckViolation(
                    f"terminal state: {s} processed "
                    f"{site.checkpointer.processed_vt!r} != full vector {full!r}"
                )
            last = site.monitor.last_commit(s)
            if last != full:
                raise ModelCheckViolation(
                    f"terminal state: {s} last commit {last!r} != "
                    f"full vector {full!r}"
                )


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
    interleavings, states = explore(CheckpointModel(sites, events, 0, mutant))
    lines = [
        f"reliable delivery : {interleavings} interleavings over "
        f"{states} distinct states — all invariants hold"
    ]
    lossy_interleavings = lossy_states = 0
    if max_losses > 0:
        lossy_interleavings, lossy_states = explore(
            CheckpointModel(sites, events, max_losses, mutant)
        )
        lines.append(
            f"with <= {max_losses} lost control msg(s): "
            f"{lossy_interleavings} interleavings over {lossy_states} "
            "states — every loss absorbed by the final round"
        )
    return ModelCheckReport(
        title=f"modelcheck: {sites} site(s) x {events} in-flight event(s)"
        + (f" [mutant={mutant}]" if mutant else ""),
        lines=tuple(lines),
        interleavings=interleavings,
        states=states,
        lossy_interleavings=lossy_interleavings,
        lossy_states=lossy_states,
    )
