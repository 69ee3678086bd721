"""Indexed subscription matching: one event against N predicates in
~O(matches).

The layout is the classic content-based pub/sub decomposition
(Gryphon-style): canonicalised predicates are split into *matchers* —
conjunctions of indexable atoms — plus a residual lane for shapes the
indexes cannot carry (negation, mixed nesting).

* **Inverted indexes** — flight / kind / airport / payload-field
  equality each map attribute value -> list of matcher entries, so an
  event touches only the entries that could match it.
* **Counting match** — a multi-atom conjunction holds when the number
  of distinct index hits this event reaches its conjunct count; the
  per-event counter dict touches only hit matchers, never the full
  population.
* **Single-conjunct fast lane** — one-atom matchers (the overwhelming
  shape for "my flight" subscriptions) skip the counter entirely: an
  index hit is a match.
* **Residual lane** — predicates with negation or non-flat nesting are
  evaluated naively per event.  Correctness never depends on a
  predicate being indexable; indexing is purely an economics upgrade.

The module is on the per-event hot path (lint ``HOT_MODULES``): every
class is slotted, every per-event structure is a dict or list (strict
packages forbid set iteration — dict order is insertion order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import UpdateEvent
from .predicate import (
    And,
    ByAirport,
    ByFlight,
    ByKind,
    FieldCmp,
    MatchAll,
    Not,
    Or,
    Predicate,
    _cmp,
    canonical,
)

__all__ = ["MatchEngine", "NaiveEngine", "EngineStats"]


# One counting-lane index entry: (matcher_id, sub_id, conjuncts_needed),
# always with needed >= 2.  Single-conjunct matchers skip entries
# entirely: each index bucket is a (fast_sub_ids, counting_entries)
# pair, and a fast-lane hit is a bare sub_id merged into the match set
# with one C-level dict update instead of a per-entry Python loop.
_Entry = Tuple[int, int, int]

#: Index bucket: ([sub_ids with needed == 1], [counting entries]).
_Bucket = Tuple[List[int], List[_Entry]]


@dataclass(slots=True)
class EngineStats:
    """Counters proving the per-matched-event economics."""

    events_evaluated: int = 0
    index_hits: int = 0
    counting_completions: int = 0
    residual_evaluations: int = 0
    matches_returned: int = 0


@dataclass(slots=True)
class _Registration:
    """Undo record for one subscription: where its entries live.

    ``entries`` pairs the concrete inner list (a bucket's fast lane or
    counting lane) with the exact item appended to it, so discard is a
    plain ``list.remove`` either way."""

    entries: List[Tuple[List[Any], Any]] = field(default_factory=list)
    cmp_entries: List[Tuple[List[Tuple[int, int, int, str, Any]],
                            Tuple[int, int, int, str, Any]]] = field(
        default_factory=list)
    residual: Optional[Tuple[int, Predicate]] = None
    always: bool = False


class MatchEngine:
    """Attribute-indexed predicate matcher with a naive-oracle contract:
    ``match(event)`` returns exactly the sub_ids whose predicates hold,
    sorted ascending."""

    __slots__ = (
        "_flight_index",
        "_kind_index",
        "_airport_index",
        "_field_eq",
        "_field_cmp",
        "_residual",
        "_always",
        "_regs",
        "_next_matcher",
        "stats",
    )

    def __init__(self) -> None:
        self._flight_index: Dict[str, _Bucket] = {}
        self._kind_index: Dict[str, _Bucket] = {}
        self._airport_index: Dict[str, _Bucket] = {}
        # payload-field lanes, keyed by field name: equality entries by
        # value, ordered comparisons as a per-field linear list (the
        # residual *within* the index: probed only when the event
        # actually carries the field)
        self._field_eq: Dict[str, Dict[Any, _Bucket]] = {}
        self._field_cmp: Dict[str, List[Tuple[int, int, int, str, Any]]] = {}
        self._residual: List[Tuple[int, Predicate]] = []
        self._always: List[int] = []  # sub_ids matching every event
        self._regs: Dict[int, _Registration] = {}
        self._next_matcher = 1
        self.stats = EngineStats()

    def __len__(self) -> int:
        return len(self._regs)

    # -- registration --------------------------------------------------
    def add(self, sub_id: int, pred: Predicate) -> None:
        """Index one subscription (replacing any prior ``sub_id``)."""
        if sub_id in self._regs:
            self.discard(sub_id)
        pred = canonical(pred)
        reg = _Registration()
        self._regs[sub_id] = reg
        if isinstance(pred, MatchAll):
            reg.always = True
            self._always.append(sub_id)
            return
        groups = pred.children if isinstance(pred, Or) else (pred,)
        needs_residual = False
        for group in groups:
            if not self._add_group(sub_id, group, reg):
                needs_residual = True
        if needs_residual:
            # the residual lane evaluates the *full* predicate, so one
            # entry covers every non-indexable disjunct; indexed
            # disjuncts that hit first short-circuit the naive walk
            entry = (sub_id, pred)
            reg.residual = entry
            self._residual.append(entry)

    def _add_group(self, sub_id: int, group: Predicate,
                   reg: _Registration) -> bool:
        """One disjunct: index it if it is a flat conjunction of atoms;
        returns False when it must go to the residual lane instead."""
        atoms = group.children if isinstance(group, And) else (group,)
        indexable = isinstance(group, (And, ByFlight, ByKind, ByAirport,
                                       FieldCmp)) and all(
            isinstance(a, (ByFlight, ByKind, ByAirport, FieldCmp))
            for a in atoms
        )
        if not indexable:
            return False
        matcher_id = self._next_matcher
        self._next_matcher += 1
        needed = len(atoms)
        entry: _Entry = (matcher_id, sub_id, needed)
        for atom in atoms:
            if isinstance(atom, ByFlight):
                bucket = self._flight_index.setdefault(
                    atom.flight_id, ([], []))
            elif isinstance(atom, ByKind):
                bucket = self._kind_index.setdefault(atom.kind, ([], []))
            elif isinstance(atom, ByAirport):
                bucket = self._airport_index.setdefault(
                    atom.airport, ([], []))
            else:  # FieldCmp
                if atom.op == "==" and self._hashable(atom.value):
                    lane = self._field_eq.setdefault(atom.field, {})
                    bucket = lane.setdefault(atom.value, ([], []))
                else:
                    cmp_bucket = self._field_cmp.setdefault(atom.field, [])
                    cmp_entry = (matcher_id, sub_id, needed,
                                 atom.op, atom.value)
                    cmp_bucket.append(cmp_entry)
                    reg.cmp_entries.append((cmp_bucket, cmp_entry))
                    continue
            if needed == 1:
                bucket[0].append(sub_id)
                reg.entries.append((bucket[0], sub_id))
            else:
                bucket[1].append(entry)
                reg.entries.append((bucket[1], entry))
        return True

    @staticmethod
    def _hashable(value: Any) -> bool:
        try:
            hash(value)
        except TypeError:
            return False
        return True

    def discard(self, sub_id: int) -> bool:
        """Remove one subscription; returns whether it existed."""
        reg = self._regs.pop(sub_id, None)
        if reg is None:
            return False
        for bucket, entry in reg.entries:
            bucket.remove(entry)
        for cmp_bucket, cmp_entry in reg.cmp_entries:
            cmp_bucket.remove(cmp_entry)
        if reg.residual is not None:
            self._residual.remove(reg.residual)
        if reg.always:
            self._always.remove(sub_id)
        return True

    # -- matching ------------------------------------------------------
    def match(self, event: UpdateEvent) -> List[int]:
        """All sub_ids whose predicate holds for ``event`` (sorted)."""
        stats = self.stats
        stats.events_evaluated += 1
        matched: Dict[int, bool] = {}
        counts: Dict[int, int] = {}
        for sub_id in self._always:
            matched[sub_id] = True
        bucket = self._flight_index.get(event.key)
        if bucket is not None:
            self._probe(bucket, counts, matched, stats)
        bucket = self._kind_index.get(event.kind)
        if bucket is not None:
            self._probe(bucket, counts, matched, stats)
        payload = event.payload
        if self._airport_index:
            airport = payload.get("airport")
            if isinstance(airport, str):
                bucket = self._airport_index.get(airport)
                if bucket is not None:
                    self._probe(bucket, counts, matched, stats)
        for fname, lane in self._field_eq.items():
            value = payload.get(fname, _MISSING)
            if value is _MISSING or not self._hashable(value):
                continue
            bucket = lane.get(value)
            if bucket is not None:
                self._probe(bucket, counts, matched, stats)
        for fname, cmp_bucket in self._field_cmp.items():
            value = payload.get(fname, _MISSING)
            if value is _MISSING:
                continue
            for matcher_id, sub_id, needed, op, ref in cmp_bucket:
                if not _cmp(value, op, ref):
                    continue
                stats.index_hits += 1
                if needed == 1:
                    matched[sub_id] = True
                else:
                    got = counts.get(matcher_id, 0) + 1
                    counts[matcher_id] = got
                    if got == needed:
                        stats.counting_completions += 1
                        matched[sub_id] = True
        for sub_id, pred in self._residual:
            if sub_id in matched:
                continue
            stats.residual_evaluations += 1
            if pred.matches(event):
                matched[sub_id] = True
        result = sorted(matched)
        stats.matches_returned += len(result)
        return result

    @staticmethod
    def _probe(bucket: _Bucket, counts: Dict[int, int],
               matched: Dict[int, bool], stats: EngineStats) -> None:
        fast, slow = bucket
        stats.index_hits += len(fast) + len(slow)
        if fast:
            # the dominant lane ("my flight" one-atom subscriptions)
            # merges in one C-level call, never a per-entry Python loop
            matched.update(dict.fromkeys(fast, True))
        for matcher_id, sub_id, needed in slow:
            got = counts.get(matcher_id, 0) + 1
            counts[matcher_id] = got
            if got == needed:
                stats.counting_completions += 1
                matched[sub_id] = True


_MISSING = object()


class NaiveEngine:
    """The evaluate-everything oracle the indexed engine is audited
    against (hypothesis property in ``tests/properties``)."""

    __slots__ = ("_subs",)

    def __init__(self) -> None:
        self._subs: Dict[int, Predicate] = {}

    def __len__(self) -> int:
        return len(self._subs)

    def add(self, sub_id: int, pred: Predicate) -> None:
        self._subs[sub_id] = canonical(pred)

    def discard(self, sub_id: int) -> bool:
        return self._subs.pop(sub_id, None) is not None

    def match(self, event: UpdateEvent) -> List[int]:
        return sorted(
            sub_id for sub_id, pred in self._subs.items()
            if pred.matches(event)
        )
