"""Keyspace partitioning for the sharded multi-central cluster.

The paper's architecture funnels every update through one central site;
the sharded deployment splits the flight keyspace across N central
*shards*, each owning its own mirror set, checkpoint rounds and failure
detector (the TerraServer shape: partition by keyspace, fail over per
partition).  This module holds the pure placement logic:

* :class:`HashRingPartitioner` — consistent hashing over a ring of
  virtual nodes, the default strategy.  Ownership moves minimally when
  the shard count changes, and the ring is built from a *stable* hash
  (:func:`stable_hash`, FNV-1a) — Python's builtin ``hash`` is salted
  per process, which would scatter keys differently in every shard
  process and break cross-process agreement outright.
* :class:`AirportRangePartitioner` — the pluggable per-airport-range
  strategy: route keys (airport codes once a flight is handed off, the
  flight id before) map to contiguous alphabetical ranges, so one shard
  owns, say, every airport in ``A..F``.  Operationally legible at the
  cost of balance.

Both partitioners are deterministic pure functions of ``(strategy,
n_shards, key)``: the ingress router, every shard process and every
client rebuild the *same* placement from the tiny :class:`ShardMap`
that travels over the wire (``T_SHARD_MAP``), with no further
coordination.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = [
    "STRATEGIES",
    "stable_hash",
    "Partitioner",
    "HashRingPartitioner",
    "AirportRangePartitioner",
    "make_partitioner",
    "ShardMap",
    "shard_name",
    "SHARD_SEP",
    "qualify_site",
]

#: Registered partitioning strategies (CLI / ShardMap vocabulary).
STRATEGIES = ("hash", "airport")

#: Virtual nodes per shard on the consistent-hash ring.  Enough to keep
#: the largest/smallest shard load ratio tight at small shard counts.
DEFAULT_RING_REPLICAS = 64

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_hash(key: str) -> int:
    """64-bit stable hash of ``key`` — identical in every process/run.

    Placement must agree across real OS processes; ``hash(str)`` is
    salted per interpreter (PYTHONHASHSEED), so a stable hash is a
    correctness requirement here, not a style choice.  FNV-1a mixes the
    bytes; the murmur3 fmix64 finalizer then avalanches the result —
    raw FNV leaves the high bits of near-identical keys (``DL0001`` vs
    ``DL0002``, ``shard0#1`` vs ``shard0#2``) nearly equal, which
    clusters ring points and keys into the same arcs and visibly skews
    placement.
    """
    h = _FNV_OFFSET
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def shard_name(index: int) -> str:
    """Canonical name of shard ``index`` (``shard0``, ``shard1``, ...)."""
    return f"shard{index}"


#: Separator between a shard name and a site's local name.
SHARD_SEP = "/"


def qualify_site(shard: str, site: str) -> str:
    """``("shard0", "central") → "shard0/central"``; bare when no shard."""
    if not shard:
        return site
    if SHARD_SEP in shard:
        raise ValueError(f"shard name {shard!r} must not contain {SHARD_SEP!r}")
    return f"{shard}{SHARD_SEP}{site}"


class Partitioner:
    """Deterministic route-key → shard-index placement."""

    strategy = "abstract"

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards

    def owner_of(self, key: str) -> int:
        """Shard index owning ``key``; pure and process-independent."""
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.strategy}({self.n_shards})"


class HashRingPartitioner(Partitioner):
    """Consistent hashing: shards hold arcs of a 64-bit ring.

    Each shard contributes ``replicas`` virtual nodes at
    ``stable_hash("shard{i}#{r}")``; a key belongs to the first virtual
    node clockwise from ``stable_hash(key)``.  Adding or removing one
    shard re-homes only the keys on the arcs it gains or loses —
    ~1/N of the keyspace — instead of reshuffling everything, which is
    what keeps a future resharding protocol's transfer volume bounded.
    """

    strategy = "hash"

    def __init__(self, n_shards: int, replicas: int = DEFAULT_RING_REPLICAS):
        super().__init__(n_shards)
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for index in range(n_shards):
            name = shard_name(index)
            for r in range(replicas):
                points.append((stable_hash(f"{name}#{r}"), index))
        points.sort()
        self._ring_hashes = [h for h, _ in points]
        self._ring_owners = [o for _, o in points]

    def owner_of(self, key: str) -> int:
        if self.n_shards == 1:
            return 0
        point = stable_hash(key)
        i = bisect.bisect_right(self._ring_hashes, point)
        if i == len(self._ring_hashes):
            i = 0  # wrap: past the last virtual node → the first one
        return self._ring_owners[i]


class AirportRangePartitioner(Partitioner):
    """Per-airport-range placement: contiguous alphabetical ranges.

    The 26-letter code space splits into ``n_shards`` contiguous ranges
    by a key's first letter (``ATL → shard of 'A'``); keys that do not
    start with an ASCII letter (and any overflow) fall back to the
    stable hash so every key still has exactly one owner.
    """

    strategy = "airport"

    _ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

    def __init__(self, n_shards: int):
        super().__init__(n_shards)
        n_letters = len(self._ALPHABET)
        self._letter_owner: Dict[str, int] = {}
        if n_shards >= n_letters:
            for i, letter in enumerate(self._ALPHABET):
                self._letter_owner[letter] = i % n_shards
        else:
            per = n_letters / n_shards
            for i, letter in enumerate(self._ALPHABET):
                self._letter_owner[letter] = min(int(i / per), n_shards - 1)

    def owner_of(self, key: str) -> int:
        if self.n_shards == 1:
            return 0
        first = key[:1].upper()
        owner = self._letter_owner.get(first)
        if owner is None:
            return stable_hash(key) % self.n_shards
        return owner

    def range_of(self, index: int) -> str:
        """The letter range shard ``index`` owns (diagnostics)."""
        letters = sorted(
            letter for letter, owner in self._letter_owner.items()
            if owner == index
        )
        if not letters:
            return ""
        return f"{letters[0]}..{letters[-1]}"


def make_partitioner(strategy: str, n_shards: int) -> Partitioner:
    """Build the partitioner for ``strategy`` (``hash`` | ``airport``)."""
    if strategy == "hash":
        return HashRingPartitioner(n_shards)
    if strategy == "airport":
        return AirportRangePartitioner(n_shards)
    raise ValueError(
        f"unknown partition strategy {strategy!r} (expected one of {STRATEGIES})"
    )


@dataclass(frozen=True)
class ShardMap:
    """The client-side view of the shard topology.

    Small enough to travel as one ``T_SHARD_MAP`` frame: the strategy
    name, the shard names, and one client-facing port per shard.  A
    client rebuilds the exact placement with
    ``make_partitioner(strategy, len(names))`` — placement is a pure
    function, so shipping the inputs is shipping the map.
    """

    strategy: str
    names: Tuple[str, ...]
    client_ports: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown partition strategy {self.strategy!r}")
        if not self.names:
            raise ValueError("shard map needs at least one shard")
        if len(self.client_ports) != len(self.names):
            raise ValueError("one client port per shard required")

    @property
    def n_shards(self) -> int:
        return len(self.names)

    def partitioner(self) -> Partitioner:
        return make_partitioner(self.strategy, self.n_shards)

    def port_for(self, key: str, partitioner: Partitioner) -> int:
        """Client-facing port of the shard owning ``key``."""
        return self.client_ports[partitioner.owner_of(key)]
