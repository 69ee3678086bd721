"""Exhaustive interleaving model checker for the shard-handoff protocol.

The tombstone/transfer handoff (:mod:`repro.shard.handoff`) is the one
distributed protocol this cluster runs that the checkpoint checker
(:mod:`repro.analysis.modelcheck`) does not cover: the ingress router
and two shards exchange ``ShardHandoff`` (tombstone), ``ShardTransfer``
(extracted state) and replayed-update frames over per-shard ordered
connections while the flight's updates keep arriving.  This module
enumerates **every** schedule of routing, frame delivery, reply
delivery, reply duplication and crash-resend within a bounded scenario
and checks the ownership-safety properties on each — driving the real
:class:`~repro.shard.handoff.RoutingCore`, not a re-model of it.

Model
-----
* One flight (``F0``) receives a fixed script of ``--events`` updates
  with a cross-shard handoff between each consecutive pair, so with 2+
  shards the flight ping-pongs and a second handoff can surface while
  the first transfer is still pending (the re-buffer path).
* Each shard is modelled as the ordered application of its inbound
  frame queue onto a per-flight record: an update appends its label, a
  tombstone extracts the record (the reply carries it), an install
  replaces the record with the transferred payload.
* ``--dups N`` lets schedules re-send up to N transfer replies (the
  only frame the real transport can duplicate: an app-level resend).
* ``--crashes N`` models up to N mid-transfer crashes of the *old*
  shard: the promoted replica re-derives its last extraction reply and
  re-sends it — so the router may see the reply zero-delay, late,
  twice, or after a later transfer's reply (reordered across
  connections).

Checked invariants
------------------
* **no-stale-owner** — no update frame is ever applied by a shard that
  tombstoned the flight and has not been re-installed;
* **in-order apply / no-dup** — every applied label extends the
  record by exactly one (a duplicate or a gap trips immediately);
* **no-loss (terminal)** — at quiescence exactly one shard holds the
  flight, its record is the full script in order, and the router's
  owner map names that shard;
* **reply idempotence** — a duplicated/late transfer reply is rejected
  by the router only when that seq already completed.

Deliberately broken variants (``--mutant``) prove the checker has
teeth: ``drop-buffering`` forwards mid-transfer updates to the stale
owner instead of buffering; ``replay-before-install`` flushes the
buffered updates to the new shard *before* the install frame.  Both
must be caught with a counterexample schedule.

The scenario is a :class:`~repro.analysis.explore.Model`; the explorer
walks it, and :func:`~repro.analysis.explore.replay_schedule` re-executes
a printed counterexample on a fresh :class:`HandoffModel`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.events import HANDOFF, UpdateEvent
from ..shard.handoff import RoutingCore, ShardHandoff, ShardTransfer
from ..shard.partition import Partitioner
from .explore import (
    Model,
    ModelCheckReport,
    ModelCheckViolation,
    explore,
    parse_schedule,
    replay_schedule,
    serialize_schedule,
)

__all__ = [
    "HandoffModel",
    "check_handoff",
    "HANDOFF_MUTANTS",
    "serialize_schedule",
    "parse_schedule",
    "replay_schedule",
]

_FLIGHT = "F0"
_STREAM = "faa"


class _TablePartitioner(Partitioner):
    """Deterministic stub: airports ``A<i>`` belong to shard ``i``,
    flights to shard 0 — all the :class:`RoutingCore` needs."""

    strategy = "table"

    def __init__(self, n_shards: int):
        super().__init__(n_shards)

    def owner_of(self, key: str) -> int:
        if key.startswith("A"):
            return int(key[1:]) % self.n_shards
        return 0


def _build_script(n_shards: int, n_updates: int) -> List[UpdateEvent]:
    """``n_updates`` labelled updates with a cross-shard handoff between
    each consecutive pair.  Labels number the flight's full ordered
    update sequence (handoffs included): the terminal record must read
    exactly ``1..max_label``."""
    events: List[UpdateEvent] = []
    label = 0
    owner = 0
    for i in range(n_updates):
        label += 1
        events.append(
            UpdateEvent(
                kind="handoffcheck",
                stream=_STREAM,
                seqno=label,
                key=_FLIGHT,
                payload={"label": label},
            )
        )
        if i < n_updates - 1 and n_shards > 1:
            owner = (owner + 1) % n_shards
            label += 1
            events.append(
                UpdateEvent(
                    kind=HANDOFF,
                    stream=_STREAM,
                    seqno=label,
                    key=_FLIGHT,
                    payload={"label": label, "airport": f"A{owner}"},
                )
            )
    return events


# -- frames on the modelled connections ---------------------------------
# to_shard[i] holds ("ev", event) | ("tomb", handoff) | ("install",
# transfer, payload); from_shard[i] holds ("rep", transfer, payload).
# ``payload`` is the extracted record (tuple of labels) or None when the
# old shard had never seen the flight — carried next to the frame the
# way ``ShardTransfer.view`` carries it in the real protocol.


class _World:
    """The router core and the modelled shards with their connections."""

    __slots__ = (
        "core",
        "script_pos",
        "to_shard",
        "from_shard",
        "held",
        "tombstoned",
        "last_extract",
        "completed_seqs",
        "dups_left",
        "crashes_left",
    )

    def __init__(self, core: RoutingCore, n_shards: int, dups: int, crashes: int):
        self.core = core
        self.script_pos = 0
        self.to_shard: Dict[int, Deque[Tuple]] = {
            i: deque() for i in range(n_shards)
        }
        self.from_shard: Dict[int, Deque[Tuple]] = {
            i: deque() for i in range(n_shards)
        }
        #: shard i's record store: flight -> ordered applied labels
        self.held: Dict[int, Dict[str, List[int]]] = {
            i: {} for i in range(n_shards)
        }
        self.tombstoned: Dict[int, Set[str]] = {
            i: set() for i in range(n_shards)
        }
        #: shard i's most recent extraction reply (crash re-send source)
        self.last_extract: Dict[int, Optional[Tuple]] = {
            i: None for i in range(n_shards)
        }
        self.completed_seqs: Set[int] = set()
        self.dups_left = dups
        self.crashes_left = crashes


def _frame_key(frame: Tuple) -> Tuple:
    kind = frame[0]
    if kind == "ev":
        return ("ev", int(frame[1].payload["label"]))
    if kind == "tomb":
        h = frame[1]
        return ("tomb", h.flight_id, h.seq, h.from_shard, h.to_shard)
    if kind in ("install", "rep"):
        t = frame[1]
        return (kind, t.flight_id, t.seq, t.to_shard, frame[2])
    raise TypeError(f"unexpected frame {frame!r}")  # pragma: no cover


def _enqueue_emissions(
    w: _World, emissions: Sequence[Tuple[int, object]], payload: Optional[Tuple]
) -> None:
    """Ship router emissions down the shards' ordered connections.
    ``payload`` rides alongside an install frame (the transferred
    record), mirroring ``ShardTransfer.view``."""
    for shard, item in emissions:
        if isinstance(item, ShardHandoff):
            w.to_shard[shard].append(("tomb", item))
        elif isinstance(item, ShardTransfer):
            w.to_shard[shard].append(("install", item, payload))
        else:
            w.to_shard[shard].append(("ev", item))


def _apply_update(w: _World, shard: int, event: UpdateEvent) -> None:
    flight = event.key
    label = int(event.payload["label"])
    if flight in w.tombstoned[shard]:
        raise ModelCheckViolation(
            f"stale owner: shard{shard} asked to apply label {label} of "
            f"{flight} after tombstoning it — the router forwarded an "
            "update to the old shard mid-transfer"
        )
    record = w.held[shard].setdefault(flight, [])
    if label != (record[-1] if record else 0) + 1:
        raise ModelCheckViolation(
            f"out-of-order apply: shard{shard} applying label {label} of "
            f"{flight} onto record {record} — an update was lost, "
            "duplicated, or replayed before the transfer installed"
        )
    record.append(label)


# -- deliberately broken protocol variants ------------------------------


class _NoBufferRoutingCore(RoutingCore):
    """Mutant: forwards mid-transfer updates straight to the old owner
    instead of buffering them at the router.  The tombstone is already
    ahead of them on that ordered connection, so the old shard applies
    post-handoff updates after extracting the flight — the checker must
    catch this as a stale-owner violation."""

    def route(self, event: UpdateEvent) -> List[Tuple[int, object]]:
        pending = self._pending.get(event.key)
        if pending is not None:
            self.events_routed += 1
            return [(pending.from_shard, event)]
        return super().route(event)


class _ReplayFirstRoutingCore(RoutingCore):
    """Mutant: flushes the buffered updates to the new shard *before*
    the install frame.  The new shard applies the handoff suffix onto a
    record the transfer has not populated yet (and the install then
    clobbers whatever it applied) — the checker must catch this as an
    out-of-order apply or terminal loss."""

    def complete(self, transfer: ShardTransfer) -> List[Tuple[int, object]]:
        pending = self._pending.get(transfer.flight_id)
        if pending is None or pending.seq != transfer.seq:
            raise ValueError(
                f"transfer reply for {transfer.flight_id!r} seq "
                f"{transfer.seq} matches no pending handoff"
            )
        del self._pending[transfer.flight_id]
        self.transfers_completed += 1
        self._owner[transfer.flight_id] = transfer.to_shard
        emissions: List[Tuple[int, object]] = []
        for event in pending.buffered:
            emissions.extend(self.route(event))
        emissions.append((transfer.to_shard, transfer))
        return emissions


#: Broken-protocol variants, used to prove the checker catches real bugs.
HANDOFF_MUTANTS = ("drop-buffering", "replay-before-install")

_CORE_CLASSES = {
    None: RoutingCore,
    "drop-buffering": _NoBufferRoutingCore,
    "replay-before-install": _ReplayFirstRoutingCore,
}


class HandoffModel(Model):
    """``shards`` shards, ``events`` scripted updates, up to ``dups``
    duplicated replies and ``crashes`` crash re-sends."""

    def __init__(self, shards: int, events: int, dups: int, crashes: int,
                 mutant: Optional[str] = None):
        try:
            self.core_cls = _CORE_CLASSES[mutant]
        except KeyError:
            raise ValueError(f"unknown mutant {mutant!r}") from None
        self.n_shards = shards
        self.script = _build_script(shards, events)
        self.full_labels = tuple(int(ev.payload["label"]) for ev in self.script)
        self.dups = dups
        self.crashes = crashes

    def initial(self) -> _World:
        core = self.core_cls(_TablePartitioner(self.n_shards))
        return _World(core, self.n_shards, self.dups, self.crashes)

    def key(self, w: _World) -> Tuple:
        core = w.core
        core_key = (
            tuple(sorted(core._owner.items())),
            tuple(
                sorted(
                    (
                        f,
                        p.seq,
                        p.from_shard,
                        p.to_shard,
                        tuple(int(e.payload["label"]) for e in p.buffered),
                    )
                    for f, p in core._pending.items()
                )
            ),
            core._seq,
        )
        shard_keys = tuple(
            (
                tuple(_frame_key(fr) for fr in w.to_shard[i]),
                tuple(_frame_key(fr) for fr in w.from_shard[i]),
                tuple(sorted((f, tuple(ls)) for f, ls in w.held[i].items())),
                tuple(sorted(w.tombstoned[i])),
                (
                    _frame_key(w.last_extract[i])
                    if w.last_extract[i] is not None
                    else None
                ),
            )
            for i in range(self.n_shards)
        )
        return (
            w.script_pos,
            w.dups_left,
            w.crashes_left,
            tuple(sorted(w.completed_seqs)),
            core_key,
            shard_keys,
        )

    def actions(self, w: _World) -> List[Tuple]:
        acts: List[Tuple] = []
        if w.script_pos < len(self.script):
            acts.append(("route",))
        for i in range(self.n_shards):
            if w.to_shard[i]:
                acts.append(("deliver", i))
            if w.from_shard[i]:
                acts.append(("reply", i))
                if w.dups_left > 0:
                    acts.append(("dup", i))
            if w.crashes_left > 0 and w.last_extract[i] is not None:
                acts.append(("crash", i))
        return acts

    def step(self, w: _World, action: Tuple) -> None:
        kind = action[0]
        if kind == "route":
            event = self.script[w.script_pos]
            w.script_pos += 1
            _enqueue_emissions(w, w.core.route(event), None)
        elif kind == "deliver":
            shard = action[1]
            frame = w.to_shard[shard].popleft()
            if frame[0] == "ev":
                _apply_update(w, shard, frame[1])
            elif frame[0] == "tomb":
                handoff: ShardHandoff = frame[1]
                flight = handoff.flight_id
                record = w.held[shard].pop(flight, None)
                w.tombstoned[shard].add(flight)
                payload = tuple(record) if record is not None else None
                reply = ShardTransfer(
                    flight_id=flight,
                    airport=handoff.airport,
                    from_shard=handoff.from_shard,
                    to_shard=handoff.to_shard,
                    seq=handoff.seq,
                )
                w.from_shard[shard].append(("rep", reply, payload))
                w.last_extract[shard] = ("rep", reply, payload)
            else:  # install
                transfer: ShardTransfer = frame[1]
                payload = frame[2]
                flight = transfer.flight_id
                w.tombstoned[shard].discard(flight)
                if payload is not None:
                    w.held[shard][flight] = list(payload)
        elif kind == "reply":
            shard = action[1]
            _, transfer, payload = w.from_shard[shard].popleft()
            try:
                emissions = w.core.complete(transfer)
            except ValueError:
                # the core rejected the reply: legal only for a re-send of
                # an already-completed transfer (idempotence), never for a
                # first delivery
                if transfer.seq not in w.completed_seqs:
                    raise ModelCheckViolation(
                        f"reply rejected: transfer seq {transfer.seq} for "
                        f"{transfer.flight_id} refused by the router but was "
                        "never completed — the transferred state is lost"
                    ) from None
                return
            w.completed_seqs.add(transfer.seq)
            _enqueue_emissions(w, emissions, payload)
        elif kind == "dup":
            shard = action[1]
            w.from_shard[shard].append(w.from_shard[shard][0])
            w.dups_left -= 1
        elif kind == "crash":
            # shard's incarnation dies mid-transfer; the promoted replica
            # (replica consistency proven in tests/rt) re-derives its last
            # extraction and re-sends the reply on the fresh connection
            shard = action[1]
            resend = w.last_extract[shard]
            assert resend is not None
            w.from_shard[shard].append(resend)
            w.crashes_left -= 1
        else:  # pragma: no cover
            raise ValueError(f"unknown action {action!r}")

    def check_terminal(self, w: _World) -> None:
        owners = [i for i in range(self.n_shards) if _FLIGHT in w.held[i]]
        if len(owners) != 1:
            raise ModelCheckViolation(
                f"terminal state: {_FLIGHT} held by shards {owners} — "
                + (
                    "the record was lost in transfer"
                    if not owners
                    else "ownership was duplicated"
                )
            )
        record = tuple(w.held[owners[0]][_FLIGHT])
        if record != self.full_labels:
            raise ModelCheckViolation(
                f"terminal state: shard{owners[0]} record {list(record)} != "
                f"full update sequence {list(self.full_labels)} — an update "
                "was lost or duplicated across the handoff"
            )
        mapped = w.core.owner_of(_FLIGHT)
        if mapped != owners[0]:
            raise ModelCheckViolation(
                f"terminal state: router owner map names shard{mapped} but "
                f"shard{owners[0]} holds the record"
            )
        if w.core.pending:
            raise ModelCheckViolation(
                f"terminal state: {w.core.pending} transfer(s) never "
                "completed"
            )


def check_handoff(
    shards: int = 2,
    events: int = 3,
    dups: int = 1,
    crashes: int = 1,
    mutant: Optional[str] = None,
) -> ModelCheckReport:
    """Exhaustively check the handoff protocol; raises
    :class:`ModelCheckViolation` on the first schedule that breaks an
    invariant."""
    if shards < 2:
        raise ValueError("shards must be >= 2 (a handoff needs two)")
    if events < 2:
        raise ValueError("events must be >= 2 (a handoff needs a suffix)")
    model = HandoffModel(shards, events, dups, crashes, mutant)
    interleavings, states = explore(model)
    handoffs = sum(1 for ev in model.script if ev.kind == HANDOFF)
    return ModelCheckReport(
        title=f"modelcheck[handoff]: {shards} shard(s), {events} update(s), "
        f"{handoffs} cross-shard handoff(s)"
        + (f" [mutant={mutant}]" if mutant else ""),
        lines=(
            f"<= {dups} duplicated reply/ies, <= {crashes} crash "
            f"re-send(s): {interleavings} interleavings over {states} "
            "distinct states — no loss, no duplication, no stale owner",
        ),
        interleavings=interleavings,
        states=states,
        handoffs=handoffs,
    )
