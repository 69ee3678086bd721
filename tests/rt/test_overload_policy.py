"""The live path's overload and failure policy (`repro.rt`).

Bounded queues change what goes wrong: a dead consumer wedges its
producers, a slow subscriber must be cut loose instead of buffered for,
a silent peer must not hold a task.  Each policy is stated in
DESIGN.md ("Live path: memory budget and overload policy") and pinned
here.
"""

import asyncio
import socket
import time

import pytest

from repro.core import simple_mirroring
from repro.core.adaptation import MONITOR_PENDING_REQUESTS
from repro.core.events import FAA_POSITION, EventBatch, UpdateEvent
from repro.ois import FlightDataConfig, generate_script
from repro.ois.clients import InitStateRequest, InitStateResponse
from repro.ois.ede import EventDerivationEngine
from repro.rt import AsyncMirroredServer, net
from repro.rt.net import (
    NetCentral,
    NetMirror,
    SubscriptionFanout,
    WireStats,
    _FrameReader,
    run_net_scenario,
)
from repro.rt.shards import run_sharded_scenario
from repro.rt.sites import RecentWindow
from repro.rt.tasks import TaskSupervisor
from repro.sub.messages import Subscribe
from repro.sub.predicate import And, ByFlight, ByKind, FieldCmp, MatchAll, Or
from repro.wire import Hello, WireEncoder

HOST = "127.0.0.1"


def run(coro):
    return asyncio.run(coro)


def script(**kw):
    defaults = dict(n_flights=4, positions_per_flight=30, seed=31)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def position(i, key="DL100", **extra):
    return UpdateEvent(
        kind=FAA_POSITION, stream="faa", seqno=i, key=key,
        payload={"lat": float(i), "lon": -84.0, "alt": 30000.0, **extra},
    )


class Boom(RuntimeError):
    pass


class FailingEngine(EventDerivationEngine):
    """Business logic that breaks on its tenth event."""

    def _derive(self, event, flight):
        if self.state.events_applied >= 10:
            raise Boom("tenth event")
        return super()._derive(event, flight)


# ------------------------------------------------- a dead site task fails the run
def ends_with_boom(coro):
    t0 = time.monotonic()
    with pytest.raises(Boom):
        run(asyncio.wait_for(coro, timeout=20))
    assert time.monotonic() - t0 < 5.0


def test_failing_engine_fails_the_in_memory_run():
    server = AsyncMirroredServer(n_mirrors=2, engine_factory=FailingEngine)
    ends_with_boom(server.run(script()))


def test_failing_engine_fails_the_net_scenario(monkeypatch):
    monkeypatch.setattr("repro.rt.sites.EventDerivationEngine", FailingEngine)
    ends_with_boom(run_net_scenario(script(), n_mirrors=2))


def test_failing_engine_fails_the_sharded_scenario(monkeypatch):
    monkeypatch.setattr("repro.rt.sites.EventDerivationEngine", FailingEngine)
    ends_with_boom(run_sharded_scenario(script=script(), n_shards=2))


def test_supervisor_raises_the_first_failure_and_cancels_the_rest():
    async def main():
        tasks = TaskSupervisor()
        forever = tasks.spawn(asyncio.Event().wait())

        async def fail():
            await asyncio.sleep(0.01)
            raise Boom("first")

        tasks.spawn(fail())
        try:
            with pytest.raises(Boom):
                await tasks.guard(asyncio.Event().wait())
        finally:
            await tasks.cancel()
        assert forever.cancelled()
        # a clean body's result passes through
        assert await TaskSupervisor().guard(asyncio.sleep(0, result=7)) == 7

    run(main())


# ---------------------------------------------------------- what is not retained
def test_recent_window_counts_everything_and_keeps_the_tail():
    window = RecentWindow()
    assert len(window) == 0 and window.mean() == 0.0
    for i in range(1000):
        window.add(float(i))
    assert len(window) == 1000
    assert window.total == sum(range(1000))
    assert window.mean() == 499.5
    assert window[999] == window[-1] == 999.0
    assert window[744] == 744.0
    with pytest.raises(IndexError):
        window[0]
    with pytest.raises(IndexError):
        window[1000]


def test_run_summaries_keep_their_counts():
    sc = script()
    mem = run(AsyncMirroredServer(n_mirrors=1).run(sc, request_times=[0.0] * 3))
    assert mem.updates_distributed >= len(sc)  # one per event + derived
    assert mem.requests_served == 3
    assert mem.mean_update_delay > 0.0
    tcp = run(run_net_scenario(sc, n_mirrors=1, request_times=[0.0] * 3))
    assert tcp.updates_distributed == mem.updates_distributed
    assert tcp.requests_served == 3


# --------------------------------------------------- pending requests over TCP
def test_pipelined_requests_show_in_the_pending_gauge():
    """200 requests pipelined on one client connection are, while they
    wait their turn, what the mirror's votes report as pending."""
    seen = []

    async def main():
        config = simple_mirroring()
        config.checkpoint_freq = 5
        central = NetCentral(1, config=config)
        mirror = NetMirror("mirror1", config=config)
        site = central.site
        on_reply = site.coordinator.on_reply

        def recording(reply):
            seen.append(reply.monitored.get(MONITOR_PENDING_REQUESTS, 0.0))
            return on_reply(reply)

        site.coordinator.on_reply = recording
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=HOST)
            client_port = await mirror.serve_clients(host=HOST)
            tasks.spawn(mirror.run(HOST, port))
            await central.mirrors_connected.wait()
            for coro in (site.receiving_task(), site.sending_task(),
                         site.control_task(), site.main.event_loop()):
                tasks.spawn(coro)

            async def feed():
                i = 0
                while True:
                    i += 1
                    await site.data_in.put([position(i)])
                    await asyncio.sleep(0)

            tasks.spawn(feed())
            reader, writer = await asyncio.open_connection(HOST, client_port)
            encoder = WireEncoder()
            writer.write(encoder.encode_hello(Hello("client", "pipelined")) + b"".join(
                encoder.encode_request(InitStateRequest(f"thin{i}", float(i)))
                for i in range(200)
            ))
            frames = _FrameReader(reader, WireStats())
            answered = 0
            while answered < 200:
                chunk = await tasks.guard(frames.next_chunk())
                answered += sum(isinstance(m, InitStateResponse) for m in chunk)
            writer.close()
            assert len(mirror.site.main.responses) == 200
            assert mirror.site.main.pending_requests() == 0
        finally:
            await tasks.cancel()
            await central.close()
            await mirror.close()

    run(asyncio.wait_for(main(), timeout=30))
    assert max(seen) > 0


# ------------------------------------------------------- slow-subscriber policy
def test_stalled_subscriber_is_dropped_while_its_neighbour_gets_everything(
    monkeypatch,
):
    monkeypatch.setattr(net, "SUB_WRITE_BUDGET", 64 * 1024)
    n_events = 20_000
    ballast = "x" * 1000  # fills the kernel's socket buffers soon enough

    async def main():
        mirror = NetMirror("mirror1")
        port = await mirror.serve_clients(host=HOST)
        subfan = mirror.subfan

        def hello(name):
            encoder = WireEncoder()  # a connection's frames share state
            return encoder.encode_hello(Hello("subscriber", name)) + (
                encoder.encode_message(Subscribe.from_predicate(name, 1, MatchAll()))
            )

        # the stalled one: a small receive buffer, and it never reads
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.setblocking(False)
        await asyncio.get_running_loop().sock_connect(stalled, (HOST, port))
        await asyncio.get_running_loop().sock_sendall(stalled, hello("stalled"))
        reader, writer = await asyncio.open_connection(HOST, port)
        writer.write(hello("reading"))
        got = []

        async def read():
            frames = _FrameReader(reader, WireStats())
            while (chunk := await frames.next_chunk()) is not None:
                for msg in chunk:
                    if isinstance(msg, EventBatch):
                        got.extend(e.seqno for e in msg.events)
                    elif isinstance(msg, UpdateEvent):
                        got.append(msg.seqno)

        reading = asyncio.create_task(read())
        try:
            while len(subfan._conn_of) < 2:
                await asyncio.sleep(0.005)
            peak = 0
            for first in range(1, n_events + 1, 100):
                subfan.fanout(EventBatch(
                    [position(i, note=ballast) for i in range(first, first + 100)]
                ))
                subfan.flush()
                for conn in set(subfan._conn_of.values()):
                    peak = max(peak, conn.writer.transport.get_write_buffer_size())
                await asyncio.sleep(0)
            while len(got) < n_events:
                await asyncio.sleep(0.005)
            assert got == list(range(1, n_events + 1))
            assert mirror.stats.sub_slow_disconnects == 1
            assert list(subfan._conn_of) == ["reading"]
            # dropped within its budget: one flush past it at the most
            assert peak < 2 * net.SUB_WRITE_BUDGET
        finally:
            reading.cancel()
            stalled.close()
            writer.close()
            await mirror.close()

    run(asyncio.wait_for(main(), timeout=30))


def test_silent_peer_is_hung_up_on(monkeypatch):
    monkeypatch.setattr(net, "HELLO_TIMEOUT_S", 0.05)

    async def main():
        central = NetCentral(0)
        mirror = NetMirror("mirror1")
        try:
            ports = [await central.start(host=HOST),
                     await mirror.serve_clients(host=HOST)]
            for port in ports:
                reader, writer = await asyncio.open_connection(HOST, port)
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                writer.close()
        finally:
            await central.close()
            await mirror.close()

    run(main())


# --------------------------------------------------------- registration scaling
class _NullWriter:
    def is_closing(self):
        return False


def _register(n):
    """Seconds to register ``n`` distinct predicates on one connection."""
    preds = [
        Or((ByFlight(f"DL{i}"), And((ByKind(FAA_POSITION), FieldCmp("sector", "==", i)))))
        for i in range(n)
    ]
    messages = [Subscribe.from_predicate("one", i + 1, p) for i, p in enumerate(preds)]
    fanout = SubscriptionFanout(WireStats())
    conn = fanout.attach("one", _NullWriter())
    t0 = time.perf_counter()
    for msg in messages:
        fanout.apply(conn, msg)
    took = time.perf_counter() - t0
    assert fanout.registry.active_count("one") == n
    assert fanout.group_count() == 1
    return took


def test_registering_predicates_on_one_connection_is_linear():
    _register(50)  # warm up
    small = min(_register(250) for _ in range(3))
    large = min(_register(1000) for _ in range(3))
    # linear is 4x; the regroup that re-signed the whole connection per
    # SUBSCRIBE was 16x
    assert large < 4 * small * 1.5, (small, large)


def test_equal_interests_group_together_whatever_the_order():
    fanout = SubscriptionFanout(WireStats())
    a = fanout.attach("a", _NullWriter())
    b = fanout.attach("b", _NullWriter())
    x, y = ByFlight("DL1"), ByFlight("DL2")
    fanout.apply(a, Subscribe.from_predicate("a", 1, Or((x, y))))
    fanout.apply(b, Subscribe.from_predicate("b", 1, y))
    assert a.group is not b.group
    fanout.apply(b, Subscribe.from_predicate("b", 2, x))
    assert a.group is b.group and fanout.group_count() == 1
    fanout.apply(b, Subscribe.from_predicate("b", 3, y))  # a duplicate
    assert a.group is b.group
    fanout.drop(a)
    fanout.drop(b)
    assert fanout.group_count() == 0 and not fanout.registry.client_ids()


# ------------------------------------------------ late attach under back-pressure
def test_mirror_attaching_mid_burst_keeps_every_decoder_in_sync():
    """A late mirror resets the shared encoder.  With bounded queues the
    broadcast loop may be parked mid-fan-out when it connects, so the
    attach runs inside that loop: every member gets the RESET between
    the same two frames, and nobody decodes against the wrong table."""
    n_events = 6000

    async def main():
        central = NetCentral(1)
        first, late = NetMirror("mirror1"), NetMirror("late")
        site = central.site
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=HOST)
            first_run = tasks.spawn(first.run(HOST, port))
            await central.mirrors_connected.wait()
            for coro in (site.receiving_task(), site.sending_task(),
                         site.control_task(), site.main.event_loop()):
                tasks.spawn(coro)

            async def drive():
                late_run = None
                for start in range(1, n_events + 1, 50):
                    await site.data_in.put(
                        [position(i, key=f"DL{i % 7}") for i in range(start, start + 50)]
                    )
                    if start > n_events // 3 and late_run is None:
                        late_run = tasks.spawn(late.run(HOST, port))
                await site.data_in.put("__end_of_stream__")
                await site.stream_done.wait()
                await central.shutdown_stream()
                await asyncio.gather(first_run, late_run)

            await tasks.guard(drive())
            assert central.stats.shared_resets == 1
            assert first.site.main.ede.processed == n_events
            assert 0 < late.site.main.ede.processed < n_events
            # what the late mirror did see, it applied like everyone else
            flights = dict((f[0], f) for f in first.site.main.ede.state_digest())
            for flight in late.site.main.ede.state_digest():
                assert flights[flight[0]][-1] == flight[-1]  # last position
        finally:
            await tasks.cancel()
            await central.close()

    run(asyncio.wait_for(main(), timeout=30))
