"""Shutdown-path regressions for the socket backend (`repro.rt.net`).

The hardening contract: cancelling a scenario at ANY point must leave
no task, socket or listening port behind — the same loop (and the same
ports) must be immediately reusable.  And a run that is not cancelled
winds down by itself: the source's EOS is the only signal a caller
gives.
"""

import asyncio
import contextlib

from repro.ois import FlightDataConfig, generate_script
from repro.rt.net import NetCentral, NetCluster, NetMirror, run_net_scenario
from repro.rt.shards import IngressRouter, run_sharded_scenario
from repro.shard.partition import ShardMap
from repro.rt.sites import EOS

HOST = "127.0.0.1"


def script(**kw):
    defaults = dict(n_flights=3, positions_per_flight=20, seed=31)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def pending_tasks():
    current = asyncio.current_task()
    return [t for t in asyncio.all_tasks() if t is not current and not t.done()]


async def stream_through(cluster, sc):
    """Start ``cluster``, feed ``sc`` and its EOS to its central, and
    await ``cluster.run()``.  Nothing but the EOS tells the cluster to
    stop."""
    await cluster.start(host=HOST)
    for se in sc.fresh_events():
        await cluster.central.feed([se.event])
    await cluster.central.feed(EOS)
    await asyncio.wait_for(cluster.run(), timeout=10)


def test_central_winds_its_cluster_down_after_the_source_eos():
    """``cluster.run()`` returns by itself once the source's EOS is in:
    both mirrors have applied the whole stream and said EOS, and the
    closing round has committed."""
    sc = script()

    async def main():
        cluster = NetCluster(2)
        central, mirrors = cluster.central, cluster.mirrors
        try:
            await stream_through(cluster, sc)
            coordinator = central.site.coordinator
            assert not coordinator.collecting  # the closing round committed
            assert coordinator.rounds_committed > 0
            for mirror in mirrors:
                assert mirror.site.main.ede.processed == len(sc)
            assert all(conn.done.is_set() for conn in central.connections.values())
            assert pending_tasks() == []
        finally:
            await cluster.close()
        digests = {m.site.main.ede.state_digest() for m in mirrors}
        assert digests == {central.site.main.ede.state_digest()}

    asyncio.run(main())


def test_a_mirror_connecting_after_the_stream_ended_is_sent_eos():
    """An ended central answers a new mirror with EOS at once and keeps
    it out of the fan-out: the late mirror's run returns."""

    async def main():
        cluster = NetCluster(1)
        late = NetMirror("late")
        try:
            await stream_through(cluster, script())
            await asyncio.wait_for(late.run(HOST, cluster.port), timeout=5)
            assert late.site.main.ede.processed == 0
            assert list(cluster.central.connections) == ["mirror1"]
        finally:
            await cluster.close()
            await late.close()

    asyncio.run(main())


def test_cancelled_scenario_leaks_nothing():
    """Cancel mid-stream, then run a fresh scenario in the SAME loop:
    the first run's finally-block must have torn everything down."""

    async def main():
        run1 = asyncio.create_task(
            run_net_scenario(script(positions_per_flight=400), n_mirrors=2)
        )
        await asyncio.sleep(0.05)  # let it get past startup, mid-stream
        run1.cancel()
        try:
            await run1
        except asyncio.CancelledError:
            pass
        assert pending_tasks() == []
        # loop is clean: a full scenario runs to completion right after
        summary = await run_net_scenario(script(), n_mirrors=2)
        assert summary.replicas_consistent
        assert pending_tasks() == []

    asyncio.run(main())


def test_cancel_during_startup_leaks_nothing():
    """Cancellation before the mirrors even connect must still close the
    central listener."""

    async def main():
        run1 = asyncio.create_task(run_net_scenario(script(), n_mirrors=2))
        await asyncio.sleep(0)  # startup barely begun
        run1.cancel()
        try:
            await run1
        except asyncio.CancelledError:
            pass
        assert pending_tasks() == []

    asyncio.run(main())


def test_central_close_is_idempotent():
    async def main():
        central = NetCentral(n_mirrors=0)
        await central.start(host="127.0.0.1")
        await central.close()
        await central.close()  # second close must be a silent no-op

    asyncio.run(main())


def test_shard_abort_leaks_nothing():
    """`NetCluster.close` is the teardown of every path, the sharded
    scenario's finally block included: after it, the loop is clean."""

    async def main():
        cluster = NetCluster(2, shard="shard0")
        await cluster.start(host="127.0.0.1")
        await cluster.close()
        await cluster.close()  # idempotent
        assert pending_tasks() == []

    asyncio.run(main())


def test_router_close_ends_its_map_listener_handlers():
    """A client that connects to the map port and never says HELLO holds
    a link open (and no task); closing the router aborts it — the peer
    sees its connection end — as a normal shutdown, not an error for the
    loop."""
    unhandled = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        router = IngressRouter(
            ShardMap(strategy="hash", names=("shard0",), client_ports=(1,))
        )
        port = await router.serve_map(host=HOST)
        reader, writer = await asyncio.open_connection(HOST, port)
        deadline = asyncio.get_running_loop().time() + 5
        while not router._map_listener.links:  # until its link waits for HELLO
            assert asyncio.get_running_loop().time() < deadline
            await asyncio.sleep(0.001)
        assert pending_tasks() == []
        await asyncio.wait_for(router.close(), timeout=5)
        leftover = pending_tasks()
        with contextlib.suppress(ConnectionResetError):
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
        writer.close()
        return leftover

    assert asyncio.run(main()) == []
    assert unhandled == []


def test_cancelled_sharded_scenario_leaks_nothing():
    async def main():
        run1 = asyncio.create_task(
            run_sharded_scenario(
                script=script(positions_per_flight=400), n_shards=2
            )
        )
        await asyncio.sleep(0.1)
        run1.cancel()
        try:
            await run1
        except asyncio.CancelledError:
            pass
        assert pending_tasks() == []
        # and the loop still supports a full sharded run afterwards
        summary = await run_sharded_scenario(script=script(), n_shards=2)
        assert summary.replicas_consistent

    asyncio.run(main())
