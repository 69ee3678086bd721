"""Tests for the live runtime: asyncio sites over loopback TCP."""

import asyncio

import pytest

from repro.core import (
    AdaptDirective,
    MonitorSpec,
    PARAM_MIRROR_FUNCTION,
    adaptive_normal,
    selective_mirroring,
    simple_mirroring,
)
from repro.core.adaptation import MONITOR_PENDING_REQUESTS
from repro.ois import FlightDataConfig, generate_script
from repro.ois.clients import InitStateRequest, InitStateResponse
from repro.rt import AsyncSubscription, Channel
from repro.rt.net import (
    NetCentral,
    NetCluster,
    NetMirror,
    WireStats,
    _FrameReader,
    _run_client,
    run_net_scenario,
)
from repro.rt.sites import EOS
from repro.rt.tasks import TaskSupervisor
from repro.wire import Hello, WireEncoder

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def script(**kw):
    defaults = dict(n_flights=4, positions_per_flight=30, seed=31)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


async def serve(sc, cluster, before=None, after=None):
    """Stream ``sc`` through ``cluster`` over loopback TCP, as
    ``run_net_scenario`` does but with the cluster in the caller's
    hands.  ``before`` and ``after`` get the client ports (the
    mirrors', or central's when there are none): ``before`` runs ahead
    of the first event, ``after`` once central has applied the whole
    stream, before its EOS."""
    central = cluster.central
    tasks = TaskSupervisor()
    try:
        await cluster.start(host=HOST)
        running = tasks.spawn(cluster.run())

        async def drive():
            if before is not None:
                await before(cluster.client_ports)
            for se in sc.fresh_events():
                await central.feed([se.event])
            if after is not None:
                await until(lambda: central.site.main.events_applied == len(sc))
                await after(cluster.client_ports)
            await central.feed(EOS)
            await running

        await tasks.guard(drive())
    finally:
        await tasks.cancel()
        await cluster.close()


async def until(condition, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.001)


# ------------------------------------------------------------ Channel
class RecordingLink:
    """A link that keeps what it is sent; ``backed_up`` makes
    :meth:`drain` wait until ``released`` is set."""

    def __init__(self):
        self.sent = []
        self.drains = 0
        self.backed_up = False
        self.released = asyncio.Event()

    def send(self, kind, payload):
        self.sent.append((kind, payload))

    async def drain(self):
        self.drains += 1
        if self.backed_up:
            await self.released.wait()


def test_channel_kind_validated():
    with pytest.raises(ValueError):
        Channel("c", RecordingLink(), kind="gossip")


def test_channel_fanout_and_filters():
    """Every payload reaches the link at once, tagged with its channel's
    kind, so the link can tell (filter) the sources apart — in publish
    order, data and control interleaved as they were published."""
    link = RecordingLink()
    data, ctrl = Channel("d", link), Channel("c", link, kind="control")
    for i in range(3):
        data.publish(i)
    ctrl.publish("chkpt")
    data.publish(3)
    assert link.sent == [("data", 0), ("data", 1), ("data", 2),
                         ("control", "chkpt"), ("data", 3)]
    assert (data.published, ctrl.published) == (4, 1)
    assert data.subscriptions == ctrl.subscriptions == ()


def test_channel_backpressure_blocks_publisher():
    """Publishing never waits; the publisher's drain does, for as long
    as the link is backed up."""

    async def scenario():
        link = RecordingLink()
        ch = Channel("c", link)
        ch.publish(1)
        link.backed_up = True
        ch.publish(2)
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.shield(ch.drain()), timeout=0.05)
        link.released.set()
        await ch.drain()
        return [p for _, p in link.sent], link.drains

    assert run(scenario()) == ([1, 2], 2)


def test_subscription_puts_into_the_queue_it_wraps_and_counts_stalls():
    async def scenario():
        queue = asyncio.Queue(maxsize=1)
        sub = AsyncSubscription("own", queue)
        await sub.put("x")
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(sub.put("y"), timeout=0.05)
        return queue.get_nowait(), queue.qsize(), sub.blocked_puts, sub.high_watermark

    assert run(scenario()) == ("x", 0, 1, 1)


# --------------------------------------------------------------- full runs
def test_a_connected_mirror_adds_at_most_two_tasks():
    """A mirror is its uplink plus its main unit's event loop: connected,
    it adds its run and the event loop the run supervises.  The uplink
    and central's end of the connection are links, stepped in their
    read callbacks — no task per connection, queue hop or reply."""

    async def scenario():
        central = NetCentral(1)
        mirror = NetMirror("mirror1")
        site = central.site
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=HOST)
            before = len(asyncio.all_tasks())
            mirror_run = tasks.spawn(mirror.run(HOST, port))
            await central.mirrors_connected.wait()
            await asyncio.sleep(0.01)  # both ends past their handshake
            added = len(asyncio.all_tasks()) - before

            async def drive():
                central_run = tasks.spawn(central.run())
                for se in script().fresh_events():
                    await central.feed([se.event])
                await central.feed(EOS)
                await central_run
                await mirror_run

            await tasks.guard(drive())
        finally:
            await tasks.cancel()
            await central.close()
            await mirror.close()
        assert mirror.site.main.ede.state_digest() == site.main.ede.state_digest()
        return added

    assert run(scenario()) <= 2


def test_central_and_a_connected_source_add_at_most_two_tasks():
    """Central is its source link plus its main unit's event loop:
    ``run()`` and one connected source add the run and its guarded body,
    which runs the event loop — the source connection is a link, stepped
    in its read callback.  The stream fed on the socket is applied
    whole."""
    sc = script()

    async def scenario():
        central = NetCentral(0)
        tasks = TaskSupervisor()
        writer = None
        try:
            port = await central.start(host=HOST)
            before = len(asyncio.all_tasks())
            central_run = tasks.spawn(central.run())
            _reader, writer = await asyncio.open_connection(HOST, port)
            encoder = WireEncoder()
            writer.write(encoder.encode_hello(Hello("source", "count")))
            writer.write(b"".join(
                encoder.encode_message(se.event) for se in sc.fresh_events()
            ))
            await until(lambda: central.site.main.events_applied == len(sc))
            added = len(asyncio.all_tasks()) - before
            writer.write(encoder.encode_eos())
            await central_run
        finally:
            if writer is not None:
                writer.close()
            await tasks.cancel()
            await central.close()
        return added, central.site.main.ede.processed

    added, applied = run(scenario())
    assert added <= 2
    assert applied == len(sc)


def test_idle_clients_that_said_hello_add_no_task():
    """32 clients idle after their HELLO on central's port and 32 on a
    mirror's client port hold 64 links open, and not one task; each is
    still answered when it asks."""

    async def scenario():
        central, mirror = NetCentral(0), NetMirror("mirror1")
        conns = []
        try:
            ports = [await central.start(host=HOST),
                     await mirror.serve_clients(host=HOST)]
            before = len(asyncio.all_tasks())
            for port in ports:
                for i in range(32):
                    reader, writer = await asyncio.open_connection(HOST, port)
                    encoder = WireEncoder()
                    writer.write(encoder.encode_hello(Hello("client", f"idle{i}")))
                    conns.append((reader, writer, encoder))
            await asyncio.sleep(0.1)  # every connection accepted, every HELLO read
            added = len(asyncio.all_tasks()) - before
            answered = 0
            for reader, writer, encoder in conns[::16]:
                writer.write(encoder.encode_request(InitStateRequest("idle", 0.0)))
                frames = _FrameReader(reader, WireStats())
                answered += isinstance(await frames.next_message(), InitStateResponse)
        finally:
            for _reader, writer, _encoder in conns:
                writer.close()
            await central.close()
            await mirror.close()
        return added, answered

    assert run(scenario()) == (0, 4)


def test_live_run_processes_everything():
    summary = run(run_net_scenario(script(), n_mirrors=2))
    assert summary.events_processed_central == summary.events_in
    assert summary.events_mirrored == summary.events_in  # simple mirroring
    assert summary.updates_distributed >= summary.events_in
    assert summary.wall_seconds > 0


def test_live_replicas_converge():
    summary = run(run_net_scenario(script(positions_per_flight=50), n_mirrors=3))
    assert len(summary.replica_digests) == 4
    assert summary.replicas_consistent


def test_live_selective_mirroring_cuts_traffic():
    sc = script(positions_per_flight=50, include_delta=False)
    summary = run(run_net_scenario(sc, n_mirrors=1, config=selective_mirroring(10)))
    assert summary.events_mirrored == 20  # 200 positions / 10
    assert summary.events_processed_central == 200


def test_live_checkpoints_commit():
    summary = run(run_net_scenario(script(positions_per_flight=60), n_mirrors=2))
    assert summary.checkpoint_rounds > 0
    assert summary.checkpoint_commits > 0


def test_live_backup_queues_trimmed():
    cluster = NetCluster(1)
    run(serve(script(positions_per_flight=60), cluster))
    for backup in (cluster.central.site.backup, cluster.mirrors[0].site.backup):
        assert backup.total_trimmed > 0
        assert len(backup) < backup.total_appended


def test_live_requests_served_round_robin():
    cluster = NetCluster(2)
    latencies = []

    async def client(ports):
        latencies.extend(await _run_client(HOST, ports * 3, WireStats()))

    run(serve(script(), cluster, after=client))
    assert len(latencies) == 6
    by_site = {m.name: len(m.site.main.responses) for m in cluster.mirrors}
    assert by_site == {"mirror1": 3, "mirror2": 3}


def test_live_requests_to_central_without_mirrors():
    summary = run(run_net_scenario(script(), n_mirrors=0, n_requests=2))
    assert summary.requests_served == 2  # central's own: there is no mirror


def test_live_no_mirrors_still_checkpoints_locally():
    summary = run(run_net_scenario(script(positions_per_flight=60), n_mirrors=0))
    assert summary.checkpoint_commits == summary.checkpoint_rounds > 0


def test_live_adaptation_triggers():
    """200 requests pipelined on one connection to a mirror that takes
    2 ms per request: its votes carry the pending-request count past
    the primary threshold, central adapts at a commit, and the mirror
    applies the piggybacked command."""
    cfg = adaptive_normal()
    cfg.adapt_directives.append(
        AdaptDirective(param=PARAM_MIRROR_FUNCTION, function_name="adaptive_reduced")
    )
    cfg.monitors[MONITOR_PENDING_REQUESTS] = MonitorSpec(
        MONITOR_PENDING_REQUESTS, primary=3, secondary=2
    )
    cluster = NetCluster(1, config=cfg, adaptation=True)
    central, (mirror,) = cluster.central, cluster.mirrors
    mirror.site.main.request_service_delay = 0.002
    answered = []
    conn = {}

    async def flood(ports):
        reader, writer = await asyncio.open_connection(HOST, ports[0])
        encoder = WireEncoder()
        writer.write(encoder.encode_hello(Hello("client", "flood")) + b"".join(
            encoder.encode_request(InitStateRequest(f"thin{i}", 0.0))
            for i in range(200)
        ))
        conn["writer"] = writer

        async def read():
            frames = _FrameReader(reader, WireStats())
            while len(answered) < 200:
                chunk = await frames.next_chunk()
                assert chunk is not None
                answered.extend(m for m in chunk if isinstance(m, InitStateResponse))

        conn["reader"] = asyncio.create_task(read())
        await until(lambda: mirror.site.main._pending_requests >= 3)

    async def drain(ports):
        await conn["reader"]
        conn["writer"].close()

    run(serve(script(positions_per_flight=200), cluster,
              before=flood, after=drain))
    assert len(answered) == 200
    assert central.site.adaptation.adaptations >= 1
    assert central.site.adaptation_log[0][1] == "adapt"
    assert mirror.site.applied_config is not None
    assert mirror.site.applied_config.function_name == "adaptive_normal+adapted"


def test_live_delta_serving_for_resuming_clients():
    """A client resuming from its last view's generation, over its own
    socket, is answered with the delta."""
    cfg = simple_mirroring()
    cfg.delta_snapshots = True
    # the tiny 4-flight script makes even a 1-flight delta ~26% of the
    # full view; raise the fallback bound so the delta path is taken
    cfg.delta_fallback_fraction = 0.5
    cluster = NetCluster(0, config=cfg)
    main = cluster.central.site.main
    responses = []

    async def resume(ports):
        await until(lambda: main.inbox.empty() and main.ede.processed)
        reader, writer = await asyncio.open_connection(HOST, ports[0])
        frames = _FrameReader(reader, WireStats())
        encoder = WireEncoder()
        writer.write(encoder.encode_hello(Hello("client", "c1")))
        writer.write(encoder.encode_request(InitStateRequest("c1", 0.0)))
        responses.append(await frames.next_message())
        # one more mutation so the resume has something to pick up —
        # a single changed flight easily beats the fallback fraction
        main.ede.state.touch(main.ede.state.flights()[0].flight_id)
        writer.write(encoder.encode_request(InitStateRequest(
            "c1", 0.0, resume_generation=responses[0].generation,
        )))
        responses.append(await frames.next_message())
        writer.write(encoder.encode_eos())
        assert await frames.next_message() is None  # served, then hung up
        writer.close()

    run(serve(script(positions_per_flight=60), cluster, after=resume))
    first, second = responses
    assert not first.delta and first.generation > 0
    assert second.delta
    assert second.snapshot_size < second.full_size
    assert main.delta_snapshots_served == 1
    assert main.bytes_saved_by_delta == second.bytes_saved


def test_live_run_deterministic_event_accounting():
    def go():
        summary = run(run_net_scenario(
            script(seed=99), n_mirrors=1, config=selective_mirroring(5),
        ))
        return (
            summary.events_in,
            summary.events_mirrored,
            summary.events_processed_central,
            summary.replica_digests[0],
        )

    assert go() == go()


def test_live_games_domain_runs_on_injected_engine(monkeypatch):
    """The games business logic replaces the airline EDE in the live
    runtime; replicas still converge on the scoreboard digest."""
    from repro.apps.games import (
        GamesWorkload,
        ScoreboardEngine,
        games_mirroring,
        generate_games_script,
    )

    monkeypatch.setattr("repro.rt.sites.EventDerivationEngine", ScoreboardEngine)
    wl = GamesWorkload(n_contests=6, score_updates_per_contest=30,
                       score_rate=5000.0, seed=13)
    games_script = generate_games_script(wl)
    summary = run(run_net_scenario(
        games_script, n_mirrors=2,
        config=games_mirroring(overwrite_scores=5),
        n_requests=4,
    ))
    assert summary.events_processed_central == len(games_script)
    assert summary.events_mirrored < len(games_script)
    assert summary.requests_served == 4
    # every mirror converged on the same finals and medal table as
    # central (digest: scores, finals, medals)
    central, *mirrors = summary.replica_digests
    assert central[1] and central[2]
    for mirror in mirrors:
        assert mirror[1:] == central[1:]
