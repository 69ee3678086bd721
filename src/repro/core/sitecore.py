"""The mirroring protocol's decisions, once, for every driver (§3.1–3.2).

:class:`CentralCore` is the central auxiliary unit's state machine: it
stamps events, counts them towards the next checkpoint round, opens a
round and casts the local main unit's vote, counts the mirrors' votes,
piggybacks the adaptation decision on the COMMIT and trims the backup
queue.  :class:`MirrorCore` is a mirror's: it votes on a CHKPT and
applies a COMMIT.  Neither holds a clock, task, queue, socket or cost
model — the shape :class:`~repro.shard.handoff.RoutingCore` has.

Three kinds of driver call them and do the rest themselves:

* the simulator's aux units (:mod:`repro.core.aux_unit`) charge each
  step's modelled cost around the call;
* the live sites (:mod:`repro.rt.sites`) publish what a call returns;
* a mirror the failover supervisor promotes runs its own
  :class:`CentralCore` over its backup queue.

With an :class:`~repro.core.invariants.InvariantMonitor` attached, the
stamping, commit-decision and trim checks run under every driver.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from .adaptation import AdaptationController
from .checkpoint import (
    CheckpointCoordinator,
    ChkptMsg,
    ChkptRepMsg,
    CommitMsg,
    MainUnitCheckpointer,
)
from .config import MirrorConfig
from .events import UpdateEvent, VectorTimestamp
from .invariants import InvariantMonitor
from .queues import BackupQueue

if TYPE_CHECKING:
    from .maincore import MainCore

__all__ = ["CentralCore", "MirrorCore"]


class _BackupSite:
    """What every site keeps: the backup queue, trimmed by commits."""

    def __init__(
        self,
        site: str,
        checkpointer: MainUnitCheckpointer,
        monitor: Optional[InvariantMonitor],
        backup: Optional[BackupQueue] = None,
    ):
        self.site = site
        #: the local main unit's; a driver that replaces the main unit's
        #: checkpointer re-points this on the same line
        self.checkpointer = checkpointer
        self.monitor = monitor
        self.backup = backup if backup is not None else BackupQueue()

    def trim(self, commit: CommitMsg) -> int:
        """Apply ``commit`` locally and trim the backup queue by it;
        returns the number of events trimmed."""
        vt = self.checkpointer.on_commit(commit)
        monitor = self.monitor
        if monitor is None:
            return self.backup.trim(vt)
        covered = self.backup.covered_count(vt)
        trimmed = self.backup.trim(vt)
        monitor.on_commit_applied(
            self.site, commit.round_id, vt,
            self.checkpointer.processed_vt, covered, trimmed,
        )
        return trimmed


class CentralCore(_BackupSite):
    """The central site's protocol state: mirroring config and rule
    engine, backup queue, checkpoint coordinator, stamping clock,
    processed-event count and adaptation controller.

    ``main`` is the local main unit a new config also reaches, so it
    serves as that config says; a promoted mirror's core has none."""

    def __init__(
        self,
        config: MirrorConfig,
        participants: set,
        checkpointer: MainUnitCheckpointer,
        adaptation: Optional[AdaptationController] = None,
        monitor: Optional[InvariantMonitor] = None,
        site: str = "central",
        backup: Optional[BackupQueue] = None,
        stamp_clock: Optional[VectorTimestamp] = None,
        first_round: int = 1,
        main: Optional["MainCore"] = None,
    ):
        super().__init__(site, checkpointer, monitor, backup)
        self.main = main
        self.config = config
        self.engine = config.build_engine()
        self.adaptation = adaptation
        self.coordinator = CheckpointCoordinator(
            participants, monitor=monitor, first_round=first_round
        )
        #: the vector clock events are stamped with
        self.stamp_clock = (
            stamp_clock if stamp_clock is not None else VectorTimestamp()
        )
        self.processed_events = 0

    def apply_config(self, config: MirrorConfig) -> None:
        """Install a new mirroring configuration (dynamic API changes and
        adaptation commands both land here).  The status table survives
        the swap: rule history (overwrite runs, suppressions) is
        application state, not function state."""
        self.config = config
        self.engine = config.build_engine(table=self.engine.table)
        if self.main is not None:
            self.main.configure(config)

    def stamp(self, event: UpdateEvent, now: float) -> UpdateEvent:
        """Advance the stamping clock past ``event`` and stamp it."""
        vt = self.stamp_clock = self.stamp_clock.advanced(event.stream, event.seqno)
        if self.monitor is not None:
            self.monitor.on_stamped(event.stream, event.seqno)
        return event.stamped(vt, now)

    def count_processed(self, n: int) -> int:
        """Count ``n`` more processed events; returns how many rounds are
        now due — one per ``checkpoint_freq`` boundary crossed ("once per
        50 *processed* events", §3.2.1, so the cadence does not depend on
        how much the rules filter)."""
        freq = self.config.checkpoint_freq
        before = self.processed_events
        self.processed_events = before + n
        return self.processed_events // freq - before // freq

    def open_round(
        self,
        readings: Dict[str, float],
        skip_if_collecting: bool,
        final: bool = False,
    ) -> Union[ChkptMsg, CommitMsg, None]:
        """Open a round on the backup queue's newest stamp and cast the
        local main unit's vote, ``readings`` piggybacked.  Returns the
        CHKPT to send, the COMMIT if that vote completed the round (no
        other participant), or ``None`` (nothing to checkpoint, or
        ``skip_if_collecting`` and a round still collects — see
        :meth:`CheckpointCoordinator.initiate_if_idle`).

        The ``final`` round, at the end of the stream, re-proposes the
        last commit when the backup queue is empty: a mirror whose
        COMMIT was lost still holds what that commit covered, and no
        later round would absorb it."""
        coordinator = self.coordinator
        initiate = (
            coordinator.initiate_if_idle if skip_if_collecting
            else coordinator.initiate
        )
        proposal = self.backup.last_vt()
        if proposal is None and final:
            proposal = coordinator.last_commit
        chkpt = initiate(proposal)
        if chkpt is None:
            return None
        commit = coordinator.on_reply(self.checkpointer.on_chkpt(chkpt, readings))
        return chkpt if commit is None else commit

    def on_reply(self, reply: ChkptRepMsg) -> Optional[CommitMsg]:
        """Count a mirror's vote; returns the COMMIT it completed."""
        return self.coordinator.on_reply(reply)

    def leave(self, site: str) -> Optional[CommitMsg]:
        """Leave a dead ``site`` out of agreement: rounds no longer wait
        for its vote.  Returns the COMMIT of a collecting round that its
        vote alone held open — the caller broadcasts it."""
        coordinator = self.coordinator
        if site not in coordinator.participants:
            return None
        return coordinator.set_participants(coordinator.participants - {site})

    def adapt(self, commit: CommitMsg, readings: Dict[str, float]) -> CommitMsg:
        """Decide on adaptation over the votes' piggybacked readings and
        the local ``readings`` (worst value wins), install any change and
        return the COMMIT that carries it to the mirrors (§3.2.2)."""
        if self.adaptation is None:
            return commit
        monitored = dict(self.coordinator.monitored_view())
        for index, value in readings.items():
            monitored[index] = max(monitored.get(index, 0.0), value)
        command = self.adaptation.evaluate(monitored)
        if command is None:
            return commit
        self.apply_config(command.config)
        return commit.with_adapt(command)


class MirrorCore(_BackupSite):
    """A mirror site's protocol state: its backup queue and the last
    adaptation it took, with that command's sequence number."""

    def __init__(
        self,
        site: str,
        checkpointer: MainUnitCheckpointer,
        monitor: Optional[InvariantMonitor] = None,
    ):
        super().__init__(site, checkpointer, monitor)
        self.applied_config: Optional[MirrorConfig] = None
        self.applied_adapt_seq = 0

    def vote(self, chkpt: ChkptMsg, readings: Dict[str, float]) -> ChkptRepMsg:
        """The CHKPT_REP: ``min(chkpt, processed)``, ``readings``
        piggybacked."""
        return self.checkpointer.on_chkpt(chkpt, readings)

    def commit(self, msg: CommitMsg) -> Tuple[int, Optional[MirrorConfig]]:
        """Apply a COMMIT: take its adaptation if it is newer than the
        last one taken (sequence numbers guard against out-of-order
        control delivery) and trim.  Returns the number of events
        trimmed and the config installed, if any."""
        installed = None
        command = msg.adapt
        if command is not None and command.seq > self.applied_adapt_seq:
            self.applied_adapt_seq = command.seq
            self.applied_config = installed = command.config
        return self.trim(msg), installed
