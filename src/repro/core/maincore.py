"""The main unit's work, once, for the simulated and live units (§3.1).

Every site's main unit runs the Event Derivation Engine over the events
its auxiliary unit forwards and serves clients' initial-state requests.
:class:`MainCore` is that unit without a clock, task, queue, socket or
cost model — the shape :mod:`repro.core.sitecore` gives the protocol:

* :meth:`~MainCore.apply` / :meth:`~MainCore.apply_run` feed the EDE
  and advance the checkpoint floor (the site's half of the checkpoint
  protocol, :class:`~repro.core.checkpoint.MainUnitCheckpointer`:
  replies are computed from *its* progress, so a commit never covers
  an event some EDE has not applied);
* :meth:`~MainCore.serve` chooses a request's view — full, delta or
  cached — and keeps the one accounting record;
* :meth:`~MainCore.shard_control` applies a handoff in stream order.

Two units subclass it: the simulator's
:class:`~repro.core.main_unit.MainUnit` charges modelled cost around
each call and coalesces in-flight builds; the live
:class:`~repro.rt.sites.AsyncMainUnit` drains its inbox through it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Sequence

from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.state import StateSnapshot
from ..shard.handoff import (
    ShardControl,
    ShardHandoff,
    ShardTransfer,
    extract_transfer,
    install_transfer,
)
from .checkpoint import MainUnitCheckpointer
from .config import MirrorConfig
from .events import UpdateEvent

__all__ = ["ACCOUNTING", "MainCore", "sum_accounting"]

#: The accounting record every main unit keeps, named as
#: :class:`~repro.metrics.RunMetrics` and ``NetRunSummary`` name its
#: totals over a run's main units (:func:`sum_accounting`).
ACCOUNTING = (
    "snapshot_builds",
    "snapshot_cache_hits",
    "delta_snapshots_served",
    "bytes_saved_by_delta",
)

#: What an engine without a state store serves (e.g. the games
#: scoreboard): a fixed-size view of nothing.
_STUB_VIEW = StateSnapshot(taken_at=0.0, flight_count=0, size=2048, as_of={})


def sum_accounting(record: Any, mains: Iterable["MainCore"]) -> None:
    """Set the :data:`ACCOUNTING` fields of ``record`` (a run's
    ``RunMetrics`` or ``NetRunSummary``) to their totals over ``mains``."""
    mains = list(mains)
    for name in ACCOUNTING:
        setattr(record, name, sum(getattr(m, name) for m in mains))


class MainCore:
    """One site's main unit: the EDE, its checkpoint floor, the serving
    settings and the accounting record.

    ``ede`` is the business logic: the airline EDE, or anything with
    ``process(event) -> outputs`` and ``state_digest()``.  An engine
    with ``supports_discard`` also has ``process_many``; one with a
    ``state`` store serves real views, others the stub.  A promoted or
    restarted site re-points ``ede`` and ``checkpointer`` in place.
    """

    def __init__(self, site: str, ede: Any, config: Optional[MirrorConfig] = None):
        self.site = site
        self.ede = ede
        self.checkpointer = MainUnitCheckpointer(site)
        #: True on the site that distributes updates to the regular
        #: clients: central, or the mirror failover promotes
        self.distribute_updates = False
        self._serve_cached = False
        self._serve_deltas = False
        self._delta_fraction = 0.25
        self.configure(config)
        self.events_applied = 0
        self.snapshot_builds = 0
        self.snapshot_cache_hits = 0
        self.delta_snapshots_served = 0
        self.bytes_saved_by_delta = 0
        #: cross-shard handoff (repro.shard): a central shard's main unit
        #: with a sink here replies to tombstones with transfer frames;
        #: mirrors (and unsharded centrals) leave it None
        self.shard_out: Optional[Callable[[ShardTransfer], None]] = None
        self.handoffs_out = 0
        self.transfers_in = 0

    def configure(self, config: Optional[MirrorConfig]) -> None:
        """Serve as ``config`` says: each subclass calls this with every
        config its site installs (at start, on a dynamic API change, on
        an adaptation)."""
        if config is None:
            return
        self._serve_cached = config.serve_cached_snapshots
        self._serve_deltas = config.delta_snapshots
        self._delta_fraction = config.delta_fallback_fraction

    # -- events ----------------------------------------------------------
    def apply(self, event: UpdateEvent) -> List[UpdateEvent]:
        """Apply one event; returns the updates it derived."""
        outputs = self.ede.process(event)
        self.checkpointer.note_processed(event.stream, event.seqno)
        self.events_applied += 1
        return outputs

    def apply_run(
        self, events: Sequence[UpdateEvent], keep_outputs: bool
    ) -> List[UpdateEvent]:
        """Apply a run; returns its updates when ``keep_outputs``, else
        nothing.

        An engine that supports discard applies the run in one
        ``process_many`` call, advancing the checkpoint floor in place
        and building no update copies: each input event stands for its
        own, and the derived events follow the run's.  Others apply
        event by event."""
        ede = self.ede
        if not getattr(ede, "supports_discard", False):
            outputs = [out for event in events for out in self.apply(event)]
            return outputs if keep_outputs else []
        kept = list(events) if keep_outputs else None
        ede.process_many(events, self.checkpointer.processed_vt.advance, kept)
        self.events_applied += len(events)
        return kept or []

    def shard_control(self, item: ShardControl) -> None:
        """Apply a handoff tombstone or transfer install in stream order.

        A :class:`ShardHandoff` extracts and removes the flight; with a
        ``shard_out`` sink the :class:`ShardTransfer` goes to it for the
        router.  A received transfer installs the flight's state ahead
        of its post-handoff updates."""
        if isinstance(item, ShardHandoff):
            transfer = extract_transfer(self.ede, item)
            self.handoffs_out += 1
            if self.shard_out is not None:
                self.shard_out(transfer)
        elif isinstance(item, ShardTransfer):
            install_transfer(self.ede, item)
            self.transfers_in += 1

    # -- requests --------------------------------------------------------
    def serve(self, request: InitStateRequest, now: float) -> Any:
        """The view ``request`` gets at ``now``, counted in the record.

        A resumable request gets a delta when delta serving is on and
        the delta stays under the fallback fraction, else the full view;
        a plain request gets the full view.  Either comes from the
        store's generation cache.  A request counts as a build when the
        store built, else as a cache hit when its view is full; a delta
        also counts as served."""
        state = getattr(self.ede, "state", None)
        if state is None:
            return _STUB_VIEW
        builds = state.snapshot_builds
        if self._serve_deltas and request.resumable:
            view = state.delta_snapshot(
                now,
                since_generation=request.resume_generation,
                since_marks=request.resume_as_of,
                max_fraction=self._delta_fraction,
            )
        else:
            view = state.snapshot(now)
        if state.snapshot_builds > builds:
            self.snapshot_builds += 1
        elif not view.is_delta:
            self.snapshot_cache_hits += 1
        if view.is_delta:
            self.delta_snapshots_served += 1
            self.bytes_saved_by_delta += view.bytes_saved
        return view

    def respond(
        self,
        request: InitStateRequest,
        view: Any,
        served_at: float,
        degraded: bool = False,
    ) -> InitStateResponse:
        """The response that carries ``view`` to ``request``'s client."""
        delta = view.is_delta
        return InitStateResponse(
            client_id=request.client_id,
            issued_at=request.issued_at,
            served_at=served_at,
            snapshot_size=view.size,
            served_by=self.site,
            generation=view.generation,
            delta=delta,
            full_size=view.full_size if delta else view.size,
            degraded=degraded,
        )
