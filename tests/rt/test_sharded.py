"""Tests for the sharded multi-central runtime (`repro.rt.shards`).

Single-event-loop deployment shape: every byte still crosses loopback
TCP, but all shards share one loop so runs are cheap and deterministic.
The multiprocess shape has one test at the CI smoke's sizes.
"""

import asyncio

import pytest

from repro.ois import FlightDataConfig, generate_script
from repro.rt import shards as shards_mod
from repro.rt.net import NetCluster
from repro.rt.shards import run_sharded_scenario

SEED = 31


def run(coro):
    return asyncio.run(coro)


def script(**kw):
    defaults = dict(
        n_flights=6, positions_per_flight=20, seed=SEED, handoffs=8,
    )
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def strip_counts(digest):
    """Digest modulo the updates-applied counter, which legitimately
    differs between shard layouts (handoff events apply wherever the
    flight lives at that moment)."""
    return tuple(
        (fid, status, arrived, extras)
        for fid, status, _count, arrived, extras in digest
    )


# ------------------------------------------------------------- round trip
def test_sharded_roundtrip_conserves_events():
    sc = script()
    summary = run(run_sharded_scenario(script=sc, n_shards=3))
    assert summary.events_in == len(sc)
    assert summary.events_routed == len(sc)
    # every event lands on exactly one shard
    assert sum(summary.per_shard_events) == len(sc)
    assert min(summary.per_shard_events) >= 0
    assert summary.replicas_consistent
    assert summary.transfers_started == summary.transfers_completed
    assert summary.wire.frames_sent > 0
    assert summary.wire.frames_dropped == 0


def test_sharded_exercises_cross_shard_handoffs():
    summary = run(run_sharded_scenario(script=script(handoffs=16), n_shards=4))
    # with 16 handoffs over a 4-way hash ring, some must cross shards
    assert summary.transfers_completed > 0
    assert summary.events_buffered > 0


# --------------------------------------------------- layout independence
@pytest.mark.parametrize("seed", [7, 31])
def test_single_vs_multi_shard_digest_parity(seed):
    """The cluster-wide merged digest is a pure function of the script:
    identical whether the keyspace lives on 1 shard or 4, at any seed."""
    sc = script(seed=seed)
    one = run(run_sharded_scenario(script=sc, n_shards=1))
    four = run(run_sharded_scenario(script=sc, n_shards=4))
    assert one.transfers_completed == 0  # nothing to cross on 1 shard
    assert strip_counts(one.merged_digest) == strip_counts(four.merged_digest)
    assert one.replicas_consistent and four.replicas_consistent


def test_sharded_deterministic_across_reruns():
    sc = script()
    a = run(run_sharded_scenario(script=sc, n_shards=3))
    b = run(run_sharded_scenario(script=sc, n_shards=3))
    assert a.merged_digest == b.merged_digest
    assert a.per_shard_events == b.per_shard_events
    assert a.transfers_completed == b.transfers_completed
    assert a.same_shard_handoffs == b.same_shard_handoffs


def test_strategy_changes_placement_not_state():
    sc = script()
    hash_run = run(run_sharded_scenario(script=sc, n_shards=3, strategy="hash"))
    rng_run = run(
        run_sharded_scenario(script=sc, n_shards=3, strategy="airport")
    )
    assert strip_counts(hash_run.merged_digest) == strip_counts(
        rng_run.merged_digest
    )
    assert rng_run.strategy == "airport"


# ----------------------------------------------------- clients & domains
def test_sharded_clients_hit_owning_shards():
    sc = script()
    keys = sorted({se.event.key for se in sc.fresh_events()})[:4]
    summary = run(
        run_sharded_scenario(script=sc, n_shards=2, request_keys=keys)
    )
    assert summary.requests_served == len(keys)
    assert len(summary.client_latencies) == len(keys)
    assert all(lat >= 0.0 for lat in summary.client_latencies)


def test_failure_domains_are_per_shard(monkeypatch):
    """Each shard's checkpoint coordinator agrees over that shard's
    qualified sites and no other, and its rounds commit — a shard never
    waits on a site of another."""
    clusters = []
    init = NetCluster.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clusters.append(self)

    monkeypatch.setattr(NetCluster, "__init__", recording)
    summary = run(run_sharded_scenario(script=script(), n_shards=2))
    assert [cluster.shard for cluster in clusters] == ["shard0", "shard1"]
    for cluster in clusters:
        coordinator = cluster.central.site.coordinator
        assert coordinator.participants == {
            f"{cluster.shard}/central", f"{cluster.shard}/mirror1",
        }
        assert coordinator.rounds_committed > 0
    assert summary.checkpoint_commits == sum(
        cluster.central.site.coordinator.rounds_committed for cluster in clusters
    )


def test_process_runner_serves_consistent_shards():
    """Each shard (central and mirror) and the client in spawned
    processes, behind the router in this one (the sizes of the CLI
    smoke)."""
    sc = generate_script(FlightDataConfig(
        n_flights=6, positions_per_flight=30, handoffs=4, seed=7,
    ))
    result = shards_mod.ShardProcessRunner(
        n_shards=2, n_mirrors=1, script=sc, n_requests=4,
    ).run()
    assert result["replicas_consistent"]
    assert result["client"]["responses"] == result["client"]["requests"] == 4
    assert result["events_applied_total"] == result["events_routed"] == len(sc)
    assert result["transfers_completed"] == result["transfers_started"]
