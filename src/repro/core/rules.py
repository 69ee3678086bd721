"""Semantic mirroring rules (§3.2.1 of the paper).

Mirroring at the middleware level lets the framework use application
semantics to shrink mirror traffic.  The rules implemented here are the
ones Table 1 exposes:

* :class:`TypeFilterRule` / :class:`ContentFilterRule` — drop events by
  type or payload content.
* :class:`OverwriteRule` — ``set_overwrite(t, l)``: of every run of
  ``l`` same-type events for one key, mirror only the first (the
  paper's "send one event for each flight, followed by discarding the
  next max_length-1 many events of that type for the same flight").
* :class:`ComplexSequenceRule` — ``set_complex_seq(t1, value, t2)``:
  once an event of type ``t1`` whose payload matches ``value`` arrives
  for a key, discard all later ``t2`` events for that key (FAA fixes
  after Delta says "flight landed").
* :class:`ComplexTupleRule` — ``set_complex_tuple(t, values, n)``:
  combine ``n`` events with the given types/values into one complex
  event ('flight landed' + 'at runway' + 'at gate' → 'flight arrived'),
  optionally suppressing further related kinds.
* :class:`CoalesceRule` — ``set_params(c, number, f)``: buffer up to
  ``number`` events per key on the sending side and emit one combined
  mirror event.

Rules are pure state machines over (:class:`UpdateEvent`,
:class:`StatusTable`) so both runtimes and the property-based tests can
drive them directly.

The engine runs receive-side rules in the receiving task's order:
filters, then complex-sequence suppression, then complex-tuple
combination, then overwriting — and the coalesce rule on the sending
side, matching the paper's task split ("Event coalescing is performed
by the sending task.  The receiving task is responsible for discarding
events in an overwriting sequence ... or for combining events based on
event values").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .events import UpdateEvent
from .queues import StatusTable

__all__ = [
    "Rule",
    "TypeFilterRule",
    "ContentFilterRule",
    "OverwriteRule",
    "ComplexSequenceRule",
    "ComplexTupleRule",
    "CoalesceRule",
    "RuleEngine",
    "payload_matches",
]

_rule_ids = itertools.count()

#: Shared empty result for every "discard this event" hook return.  The
#: engine never mutates hook results (replacement lists are re-dispatched
#: and *new* output lists collect the survivors), so all discards can
#: alias one immutable tuple instead of allocating a fresh ``[]`` per
#: dropped event — the overwrite lane discards ``max_length - 1`` of
#: every run, which made that allocation a top hot-path entry.
_DISCARD: tuple = ()


def payload_matches(payload: Mapping[str, Any], pattern: Mapping[str, Any]) -> bool:
    """True when every (field, value) of ``pattern`` appears in ``payload``.

    This is the concrete form of the paper's "event *value*" arguments:
    ``set_complex_seq(event_type_Delta, event *target_value, ...)`` where
    target_value is "Delta event whose status field value is
    'flight landed'" — i.e. a field/value match.
    """
    return all(payload.get(k) == v for k, v in pattern.items())


class Rule:
    """Base class; concrete rules override the hooks they participate in."""

    #: which pipeline stage this rule's :meth:`flush` belongs to —
    #: receive-side holds (complex tuples) vs. send-side holds (coalesce)
    flush_side = "receive"

    def __init__(self):
        self.rule_id = f"{type(self).__name__}#{next(_rule_ids)}"

    def match_kinds(self) -> Optional[frozenset]:
        """Event kinds this rule's hooks can possibly act on.

        ``None`` means *all* kinds (content filters, custom hooks).  The
        :class:`RuleEngine` dispatch index uses this to route an event
        only through the rules that can affect it; a rule MUST be
        a no-op (hook returns ``None``) for every kind outside this set.
        """
        return None

    def on_receive(
        self, event: UpdateEvent, table: StatusTable
    ) -> Optional[Sequence[UpdateEvent]]:
        """Receive-side hook.

        Returns ``None`` to pass the event through unchanged, or a
        sequence of replacement events (empty = discard; rules should
        return the shared :data:`_DISCARD` tuple rather than ``[]``).
        """
        return None

    def on_send(
        self, event: UpdateEvent, table: StatusTable
    ) -> Optional[Sequence[UpdateEvent]]:
        """Send-side hook; same contract as :meth:`on_receive`."""
        return None

    def flush(self, table: StatusTable) -> List[UpdateEvent]:
        """Emit anything the rule is still buffering (end of stream /
        checkpoint boundary)."""
        return []


class TypeFilterRule(Rule):
    """Discard all events of the given kinds."""

    def __init__(self, kinds: Sequence[str]):
        super().__init__()
        if not kinds:
            raise ValueError("TypeFilterRule needs at least one kind")
        self.kinds = frozenset(kinds)

    def match_kinds(self):
        return self.kinds

    def on_receive(self, event, table):
        if event.kind in self.kinds:
            return _DISCARD
        return None


class ContentFilterRule(Rule):
    """Discard events whose payload satisfies ``predicate``."""

    def __init__(self, predicate: Callable[[UpdateEvent], bool]):
        super().__init__()
        self.predicate = predicate

    def on_receive(self, event, table):
        if self.predicate(event):
            return _DISCARD
        return None


class OverwriteRule(Rule):
    """Mirror only the first of every run of ``max_length`` events.

    Applies to events of ``kind``, grouped by event key.  This is the
    paper's *selective mirroring* workhorse for FAA position updates.
    """

    def __init__(self, kind: str, max_length: int):
        super().__init__()
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.kind = kind
        self.max_length = max_length

    def match_kinds(self):
        return frozenset((self.kind,))

    def on_receive(self, event, table):
        if event.kind != self.kind:
            return None
        # fused note_payload + overwrite_step (one status lookup per event)
        if table.overwrite_note_step(
            event.key, event.kind, event.payload, self.max_length
        ):
            return None  # first of the run: mirror as-is
        return _DISCARD  # overwritten: discard


class ComplexSequenceRule(Rule):
    """After a trigger event, discard all later events of another kind.

    ``set_complex_seq(t1, value, t2)``: once an event of kind
    ``trigger_kind`` whose payload matches ``trigger_value`` is seen for
    a key, all subsequent ``target_kind`` events for the same key are
    discarded.
    """

    def __init__(
        self,
        trigger_kind: str,
        trigger_value: Mapping[str, Any],
        target_kind: str,
    ):
        super().__init__()
        self.trigger_kind = trigger_kind
        self.trigger_value = dict(trigger_value)
        self.target_kind = target_kind

    def match_kinds(self):
        return frozenset((self.trigger_kind, self.target_kind))

    def on_receive(self, event, table):
        if event.kind == self.target_kind and table.is_suppressed(
            event.key, self.target_kind
        ):
            table.count_sequence_discard()
            return _DISCARD
        if event.kind == self.trigger_kind and payload_matches(
            event.payload, self.trigger_value
        ):
            table.suppress(event.key, self.target_kind)
        return None


class ComplexTupleRule(Rule):
    """Combine ``n`` events with given kinds/values into one complex event.

    When one matching event of every listed kind has arrived for a key,
    they are replaced by a single combined event of ``combined_kind``
    whose payload merges the components'.  Components are *held* (not
    mirrored individually) while the tuple is assembling, matching the
    paper's "multiple events like 'flight landed', 'flight at runway',
    and 'flight at gate' can be collapsed into a single complex event".

    ``suppresses`` lists kinds to discard for the key once the combined
    event has fired ("the presence of such an event implies that all
    position events for that flight can be discarded").
    """

    def __init__(
        self,
        kinds: Sequence[str],
        values: Sequence[Mapping[str, Any]],
        combined_kind: str,
        suppresses: Sequence[str] = (),
    ):
        super().__init__()
        if len(kinds) != len(values):
            raise ValueError("kinds and values must have equal length")
        if len(kinds) < 2:
            raise ValueError("a complex tuple needs at least 2 components")
        if len(set(kinds)) != len(kinds):
            raise ValueError("component kinds must be distinct")
        self.kinds = list(kinds)
        self.values = [dict(v) for v in values]
        self.combined_kind = combined_kind
        self.suppresses = tuple(suppresses)

    def match_kinds(self):
        return frozenset(self.kinds) | frozenset(self.suppresses)

    def _matches_component(self, event: UpdateEvent) -> Optional[str]:
        for kind, value in zip(self.kinds, self.values):
            if event.kind == kind and payload_matches(event.payload, value):
                return kind
        return None

    def on_receive(self, event, table):
        if event.kind in self.suppresses and table.is_suppressed(
            event.key, event.kind
        ):
            table.count_sequence_discard()
            return _DISCARD
        kind = self._matches_component(event)
        if kind is None:
            return None
        slot = table.tuple_slot(event.key, self.rule_id)
        slot[kind] = event
        if len(slot) < len(self.kinds):
            return _DISCARD  # held while assembling
        # Tuple complete: build the combined event.
        components = [slot[k] for k in self.kinds]
        table.clear_tuple(event.key, self.rule_id)
        table.combined_tuples += 1
        merged: Dict[str, Any] = {}
        for comp in components:
            merged.update(comp.payload)
        merged["combined_from"] = [c.kind for c in components]
        combined = UpdateEvent.unchecked(
            kind=self.combined_kind,
            stream=event.stream,
            seqno=event.seqno,
            key=event.key,
            payload=merged,
            size=max(c.size for c in components),
            vt=event.vt,
            entered_at=min(c.entered_at for c in components),
            coalesced_from=sum(c.coalesced_from for c in components),
        )
        for kind in self.suppresses:
            table.suppress(event.key, kind)
        return [combined]

    def flush(self, table):
        # Partial tuples are abandoned at flush: their components were
        # individually held, so re-emit them unmodified.
        out: List[UpdateEvent] = []
        for key in table.keys():
            slot = table.tuple_slot(key, self.rule_id)
            if slot:
                out.extend(slot.values())
                table.clear_tuple(key, self.rule_id)
        return out


class CoalesceRule(Rule):
    """Send-side coalescing: up to ``max_count`` events per key become one.

    The combined event carries the *last* component's payload (later
    updates overwrite earlier ones — the paper's motivating case), the
    maximum component size, and ``coalesced_from`` totalling the
    originals.  Buffers flush when full, and on :meth:`flush`.
    """

    flush_side = "send"

    def __init__(self, max_count: int, kinds: Optional[Sequence[str]] = None):
        super().__init__()
        if max_count < 1:
            raise ValueError("max_count must be >= 1")
        self.max_count = max_count
        self.kinds = frozenset(kinds) if kinds is not None else None

    def match_kinds(self):
        return self.kinds

    def _applies(self, event: UpdateEvent) -> bool:
        return self.kinds is None or event.kind in self.kinds

    @staticmethod
    def _combine(buffer: List[UpdateEvent]) -> UpdateEvent:
        last = buffer[-1]
        return UpdateEvent.unchecked(
            kind=last.kind,
            stream=last.stream,
            seqno=last.seqno,
            key=last.key,
            payload=dict(last.payload),
            size=max(e.size for e in buffer),
            vt=last.vt,
            entered_at=min(e.entered_at for e in buffer),
            coalesced_from=sum(e.coalesced_from for e in buffer),
        )

    def on_send(self, event, table):
        if not self._applies(event) or self.max_count == 1:
            return None
        buf = table.coalesce_buffer(event.key, self.rule_id)
        buf.append(event)
        if len(buf) < self.max_count:
            return _DISCARD  # held
        combined = self._combine(buf)
        table.coalesced_events += len(buf) - 1
        table.clear_coalesce(event.key, self.rule_id)
        return [combined]

    def flush(self, table):
        out: List[UpdateEvent] = []
        # indexed by rule_id: visits only this rule's buffers instead of
        # scanning every entity key once per coalesce rule
        for key, rule_id, buf in table.pending_coalesce(self.rule_id):
            out.append(self._combine(buf))
            table.coalesced_events += len(buf) - 1
            table.clear_coalesce(key, rule_id)
        return out


class RuleEngine:
    """Ordered rule pipeline with receive-side and send-side stages.

    An event entering :meth:`on_receive` passes through every rule's
    receive hook in order; a rule returning a replacement list reroutes
    the remaining rules over each replacement.  :meth:`on_send` does the
    same with send hooks.  The engine counts every outcome so the
    experiment harness can report traffic reduction.
    """

    def __init__(self, rules: Sequence[Rule] = (), table: Optional[StatusTable] = None):
        self.rules: List[Rule] = list(rules)
        self.table = table if table is not None else StatusTable()
        self.received = 0
        self.passed_receive = 0
        self.sent = 0
        self.passed_send = 0
        self._rebuild_index()

    # -- dispatch index ----------------------------------------------------
    #
    # The naive pipeline walks *every* rule for *every* event and calls
    # both hooks through getattr — for kind-keyed rule sets (the normal
    # case: overwrite/sequence/tuple rules all declare their kinds) most
    # of those calls are guaranteed no-ops.  The index, rebuilt whenever
    # the rule list changes, keeps per hook the rules that actually
    # override it, together with their declared kind sets; per event
    # kind a "lane" — the ordered tuple of (position, bound hook) that
    # can affect that kind — is computed once and cached.

    def _rebuild_index(self) -> None:
        self._recv_declared: List[tuple] = []
        self._send_declared: List[tuple] = []
        self._recv_lanes: Dict[str, tuple] = {}
        self._send_lanes: Dict[str, tuple] = {}
        for position, rule in enumerate(self.rules):
            cls = type(rule)
            kinds = rule.match_kinds()
            if cls.on_receive is not Rule.on_receive:
                self._recv_declared.append((position, rule.on_receive, kinds))
            if cls.on_send is not Rule.on_send:
                self._send_declared.append((position, rule.on_send, kinds))

    def _lane(self, kind: str, declared: List[tuple], lanes: Dict[str, tuple]) -> tuple:
        lane = lanes.get(kind)
        if lane is None:
            lane = lanes[kind] = tuple(
                (position, hook)
                for position, hook, kinds in declared
                if kinds is None or kind in kinds
            )
        return lane

    def add_rule(self, rule: Rule) -> None:
        """Append a rule to the end of the pipeline."""
        self.rules.append(rule)
        self._rebuild_index()

    def remove_rules(self, rule_type: type) -> int:
        """Drop all rules of a given class; returns how many were removed."""
        before = len(self.rules)
        self.rules = [r for r in self.rules if not isinstance(r, rule_type)]
        self._rebuild_index()
        return before - len(self.rules)

    def _dispatch(
        self,
        event: UpdateEvent,
        declared: List[tuple],
        lanes: Dict[str, tuple],
        start: int = 0,
    ) -> List[UpdateEvent]:
        """Run ``event`` through the rules at pipeline position >= ``start``
        that can affect its kind.  Replacement events re-enter at the
        position after the rule that produced them (a rule never re-sees
        its own output), each dispatched down its *own* kind's lane —
        this is exactly the naive pipeline's semantics, reached without
        touching unrelated rules."""
        table = self.table
        for position, hook in self._lane(event.kind, declared, lanes):
            if position < start:
                continue
            result = hook(event, table)
            if result is None:
                continue
            if not result:
                return []  # public contract: always a list (hooks
                # themselves return the shared _DISCARD tuple)
            if len(result) == 1:
                replacement = result[0]
                if replacement is event:
                    continue
                event = replacement
                # re-enter: the replacement's kind may follow another lane
                return self._dispatch(event, declared, lanes, position + 1)
            out: List[UpdateEvent] = []
            for replacement in result:
                out.extend(self._dispatch(replacement, declared, lanes, position + 1))
            return out
        return [event]

    def _replacements(
        self,
        result: List[UpdateEvent],
        declared: List[tuple],
        lanes: Dict[str, tuple],
        position: int,
    ) -> List[UpdateEvent]:
        if len(result) == 1:
            return self._dispatch(result[0], declared, lanes, position + 1)
        out: List[UpdateEvent] = []
        for replacement in result:
            out.extend(self._dispatch(replacement, declared, lanes, position + 1))
        return out

    def on_receive(self, event: UpdateEvent) -> List[UpdateEvent]:
        """Receive-side pipeline: events to place on the ready queue."""
        self.received += 1
        # inlined _dispatch fast path: pass-through and discard return
        # without a second call frame (this is the per-event hot loop)
        lane = self._recv_lanes.get(event.kind)
        if lane is None:
            lane = self._lane(event.kind, self._recv_declared, self._recv_lanes)
        table = self.table
        for position, hook in lane:
            result = hook(event, table)
            if result is None:
                continue
            if not result:
                return []  # discard: list-typed like every return here
            result = self._replacements(
                result, self._recv_declared, self._recv_lanes, position
            )
            self.passed_receive += len(result)
            return result
        self.passed_receive += 1
        return [event]

    def on_send(self, event: UpdateEvent) -> List[UpdateEvent]:
        """Send-side pipeline: events to actually mirror right now."""
        self.sent += 1
        lane = self._send_lanes.get(event.kind)
        if lane is None:
            lane = self._lane(event.kind, self._send_declared, self._send_lanes)
        table = self.table
        for position, hook in lane:
            result = hook(event, table)
            if result is None:
                continue
            if not result:
                return []  # discard: list-typed like every return here
            result = self._replacements(
                result, self._send_declared, self._send_lanes, position
            )
            self.passed_send += len(result)
            return result
        self.passed_send += 1
        return [event]

    def forward_many(self, events: List[UpdateEvent]) -> List[UpdateEvent]:
        """Receive- then send-side pipeline over several events.

        Exactly equivalent to ``on_send(p) for p in on_receive(e)`` per
        event (same outputs, same counters); a pipeline with no
        overriding hooks — plain simple mirroring — short-circuits to
        pure accounting instead of paying two calls and two list
        allocations per event.
        """
        if not self._recv_declared and not self._send_declared:
            n = len(events)
            self.received += n
            self.passed_receive += n
            self.sent += n
            self.passed_send += n
            return list(events)
        out: List[UpdateEvent] = []
        extend = out.extend
        on_receive = self.on_receive
        on_send = self.on_send
        for event in events:
            for passed in on_receive(event):
                extend(on_send(passed))
        return out

    def flush(self, side: Optional[str] = None) -> List[UpdateEvent]:
        """Flush what rules are still holding.

        ``side`` restricts the flush to ``"receive"``-side holds
        (complex-tuple partials) or ``"send"``-side holds (coalesce
        buffers); ``None`` flushes everything.
        """
        out: List[UpdateEvent] = []
        for rule in self.rules:
            if side is None or rule.flush_side == side:
                out.extend(rule.flush(self.table))
        return out

    def stats(self) -> Dict[str, int]:
        """Traffic-reduction accounting for reports."""
        return {
            "received": self.received,
            "passed_receive": self.passed_receive,
            "sent": self.sent,
            "passed_send": self.passed_send,
            "discarded_overwrite": self.table.discarded_overwrite,
            "discarded_sequence": self.table.discarded_sequence,
            "combined_tuples": self.table.combined_tuples,
            "coalesced_events": self.table.coalesced_events,
        }
