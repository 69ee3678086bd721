"""Sharded multi-central clustering: keyspace partitioning + handoff.

Pure, process-independent pieces of the sharded deployment live here:
placement (:mod:`repro.shard.partition`) and the cross-shard handoff
state machine (:mod:`repro.shard.handoff`).  The asyncio/process glue —
ingress router and process runner — lives in :mod:`repro.rt.shards`
(a shard itself is a :class:`repro.rt.net.NetCluster`), keeping this
package importable (and strictly lintable/typecheckable) without the
runtime.
"""

from .handoff import (
    RoutingCore,
    ShardControl,
    ShardHandoff,
    ShardTransfer,
    extract_transfer,
    install_transfer,
    merge_digests,
)
from .partition import (
    STRATEGIES,
    AirportRangePartitioner,
    HashRingPartitioner,
    Partitioner,
    ShardMap,
    make_partitioner,
    shard_name,
    stable_hash,
)

__all__ = [
    "STRATEGIES",
    "AirportRangePartitioner",
    "HashRingPartitioner",
    "Partitioner",
    "ShardMap",
    "make_partitioner",
    "shard_name",
    "stable_hash",
    "RoutingCore",
    "ShardControl",
    "ShardHandoff",
    "ShardTransfer",
    "extract_transfer",
    "install_transfer",
    "merge_digests",
]
