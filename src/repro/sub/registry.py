"""The subscription registry and the unified information-flow graph.

:class:`SubscriptionRegistry` is the broker's source of truth: client
-> subscriptions, subscriptions -> indexed engine, plus the canonical
*signature* per client that the net layer keys shared-frame groups by.

The registry also answers the architectural question the paper's
mirroring rules raise once subscriptions exist: overwrite/coalesce
rules already do *semantic filtering* on the mirror path, and
per-client predicates do semantic filtering on the client path — they
are the same kind of node.  :meth:`SubscriptionRegistry.flow_graph`
renders both as one information-flow graph
(source -> mirroring rules -> broker -> subscription groups -> clients),
which is the Gryphon framing of the system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.events import UpdateEvent
from .engine import MatchEngine
from .predicate import (
    MatchAll,
    Node,
    Or,
    Predicate,
    canonical,
    from_nodes,
    signature,
    to_nodes,
)

__all__ = [
    "Subscription",
    "SubscriptionRegistry",
    "FlowNode",
    "FlowEdge",
    "InformationFlowGraph",
]


@dataclass(frozen=True, slots=True)
class Subscription:
    """One registered predicate (already canonical)."""

    sub_id: int
    client_id: str
    predicate: Predicate

    def nodes(self) -> Tuple[Node, ...]:
        return to_nodes(self.predicate)


def _term_digest(pred: Predicate) -> int:
    """128-bit digest of one canonical disjunct."""
    text = repr(to_nodes(pred)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=16).digest(), "big")


_MATCH_ALL_TERM = _term_digest(MatchAll())


class SubscriptionRegistry:
    """Client subscription table over an indexed :class:`MatchEngine`.

    Deterministic by construction: sub_ids are assigned from a counter,
    every table is a dict (insertion-ordered), and match results come
    back sorted."""

    __slots__ = (
        "engine", "_subs", "_by_client", "_next_id", "_terms", "_refs", "_acc",
    )

    def __init__(self) -> None:
        self.engine = MatchEngine()
        self._subs: Dict[int, Subscription] = {}
        self._by_client: Dict[str, Dict[int, Subscription]] = {}
        self._next_id = 1
        # combined interest per client, kept current per change:
        # sub_id -> digests of its predicate's disjuncts; client ->
        # {digest: predicates contributing it}; client -> XOR of the
        # distinct digests
        self._terms: Dict[int, Tuple[int, ...]] = {}
        self._refs: Dict[str, Dict[int, int]] = {}
        self._acc: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._subs)

    # -- table maintenance ---------------------------------------------
    def subscribe(
        self,
        client_id: str,
        predicate: Predicate,
        sub_id: Optional[int] = None,
    ) -> Subscription:
        """Register (or replace, when ``sub_id`` is reused) one
        subscription; returns the stored record."""
        if sub_id is None:
            sub_id = self._next_id
        if sub_id >= self._next_id:
            self._next_id = sub_id + 1
        existing = self._subs.get(sub_id)
        if existing is not None:
            self.unsubscribe(existing.client_id, sub_id)
        sub = Subscription(sub_id, client_id, canonical(predicate))
        self._subs[sub_id] = sub
        self._by_client.setdefault(client_id, {})[sub_id] = sub
        self.engine.add(sub_id, sub.predicate)
        pred = sub.predicate
        terms = tuple(
            _term_digest(d)
            for d in (pred.children if isinstance(pred, Or) else (pred,))
        )
        self._terms[sub_id] = terms
        self._note_terms(client_id, terms, 1)
        return sub

    def _note_terms(self, client_id: str, terms: Tuple[int, ...], step: int) -> None:
        refs = self._refs.setdefault(client_id, {})
        for term in terms:
            before = refs.get(term, 0)
            refs[term] = before + step
            if not before or not refs[term]:
                self._acc[client_id] = self._acc.get(client_id, 0) ^ term
            if not refs[term]:
                del refs[term]

    def subscribe_nodes(
        self, client_id: str, nodes: Iterable[Node],
        sub_id: Optional[int] = None,
    ) -> Subscription:
        """Register from the wire node form (validating)."""
        return self.subscribe(client_id, from_nodes(tuple(nodes)), sub_id)

    def unsubscribe(
        self, client_id: str, sub_id: Optional[int] = None
    ) -> List[int]:
        """Drop one subscription, or all for the client when ``sub_id``
        is None; returns the removed ids."""
        table = self._by_client.get(client_id)
        if not table:
            return []
        if sub_id is None:
            removed = [sid for sid in table]
        elif sub_id in table:
            removed = [sub_id]
        else:
            return []
        for sid in removed:
            del table[sid]
            del self._subs[sid]
            self.engine.discard(sid)
            self._note_terms(client_id, self._terms.pop(sid), -1)
        if not table:
            del self._by_client[client_id]
            del self._refs[client_id]
            del self._acc[client_id]
        return removed

    # -- queries -------------------------------------------------------
    def match(self, event: UpdateEvent) -> List[Subscription]:
        return [self._subs[sid] for sid in self.engine.match(event)]

    def match_clients(self, event: UpdateEvent) -> List[str]:
        """Distinct client_ids with at least one matching subscription,
        in first-match order."""
        seen: Dict[str, bool] = {}
        for sid in self.engine.match(event):
            seen.setdefault(self._subs[sid].client_id, True)
        return [cid for cid in seen]

    def match_clients_batch(
        self, events: Iterable[UpdateEvent]
    ) -> List[List[str]]:
        """Per-event distinct client_ids for a whole batch (first-match
        order, same as :meth:`match_clients` event by event) — the one
        registry call the push path makes per chunk."""
        match_clients = self.match_clients
        return [match_clients(event) for event in events]

    def subscriptions(self) -> List[Subscription]:
        return [self._subs[sid] for sid in self._subs]

    def client_ids(self) -> List[str]:
        return [cid for cid in self._by_client]

    def client_subscriptions(self, client_id: str) -> List[Subscription]:
        table = self._by_client.get(client_id, {})
        return [table[sid] for sid in table]

    def active_count(self, client_id: str) -> int:
        return len(self._by_client.get(client_id, {}))

    def client_key(self, client_id: str) -> int:
        """Grouping key of the client's combined interest: 0 without
        subscriptions, else a digest equal for two clients exactly when
        :meth:`client_signature` is (up to a 128-bit collision).  Kept
        current per subscription change, so reading it costs nothing —
        the push path regroups a connection on every SUBSCRIBE."""
        refs = self._refs.get(client_id)
        if not refs:
            return 0
        if _MATCH_ALL_TERM in refs:
            return _MATCH_ALL_TERM
        return self._acc[client_id] or 1

    def client_signature(self, client_id: str) -> str:
        """Canonical signature of the client's *combined* interest (the
        Or of its predicates) — equal signatures can share one encoded
        frame stream."""
        table = self._by_client.get(client_id)
        if not table:
            return ""
        preds = tuple(table[sid].predicate for sid in table)
        combined = preds[0] if len(preds) == 1 else Or(preds)
        return signature(combined)

    # -- state transfer (handoff / failover re-registration) -----------
    def export_state(self) -> List[Tuple[str, int, Tuple[Node, ...]]]:
        """Flat, wire-shaped dump: ``(client_id, sub_id, nodes)`` rows."""
        return [
            (sub.client_id, sub.sub_id, sub.nodes())
            for sub in self.subscriptions()
        ]

    def import_state(
        self, rows: Iterable[Tuple[str, int, Tuple[Node, ...]]]
    ) -> int:
        """Re-register exported rows (keeping their sub_ids); returns
        how many were applied."""
        applied = 0
        for client_id, sub_id, nodes in rows:
            self.subscribe_nodes(client_id, nodes, sub_id)
            applied += 1
        return applied

    # -- unified information-flow graph --------------------------------
    def flow_graph(self, rules: Iterable[Any] = ()) -> "InformationFlowGraph":
        """One graph over both filtering layers: the mirroring rules
        (semantic filtering on the mirror path) and the subscription
        groups (semantic filtering on the client path)."""
        nodes: List[FlowNode] = [FlowNode("source", "source", "update stream")]
        edges: List[FlowEdge] = []
        prev = "source"
        for i, rule in enumerate(rules):
            node_id = f"rule{i}"
            kinds = None
            getter = getattr(rule, "match_kinds", None)
            if getter is not None:
                kinds = getter()
            label = type(rule).__name__
            if kinds:
                label += " [" + ", ".join(sorted(kinds)) + "]"
            nodes.append(FlowNode(node_id, "rule", label))
            edges.append(FlowEdge(prev, node_id))
            prev = node_id
        nodes.append(FlowNode("broker", "broker", "subscription match engine"))
        edges.append(FlowEdge(prev, "broker"))
        groups: Dict[str, List[str]] = {}
        for cid in self._by_client:
            groups.setdefault(self.client_signature(cid), []).append(cid)
        for i, sig in enumerate(groups):
            gid = f"group{i}"
            members = groups[sig]
            nodes.append(
                FlowNode(gid, "subscription", f"{len(members)} client(s): {sig}")
            )
            edges.append(FlowEdge("broker", gid))
            for cid in members:
                node_id = f"client:{cid}"
                nodes.append(FlowNode(node_id, "client", cid))
                edges.append(FlowEdge(gid, node_id))
        return InformationFlowGraph(tuple(nodes), tuple(edges))


@dataclass(frozen=True, slots=True)
class FlowNode:
    node_id: str
    kind: str  # source | rule | broker | subscription | client
    label: str


@dataclass(frozen=True, slots=True)
class FlowEdge:
    src: str
    dst: str


@dataclass(frozen=True, slots=True)
class InformationFlowGraph:
    """The mirror-as-broker view: every semantic filter is a node."""

    nodes: Tuple[FlowNode, ...]
    edges: Tuple[FlowEdge, ...]

    def node(self, node_id: str) -> FlowNode:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise KeyError(node_id)

    def successors(self, node_id: str) -> List[str]:
        return [e.dst for e in self.edges if e.src == node_id]

    def render(self) -> str:
        lines = ["information flow (source -> rules -> broker -> clients):"]
        for e in self.edges:
            src, dst = self.node(e.src), self.node(e.dst)
            lines.append(f"  {src.label} -> {dst.label}")
        return "\n".join(lines)
