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
from repro.core.adaptation import MONITOR_PENDING_REQUESTS, MONITOR_READY_QUEUE
from repro.core.checkpoint import CheckpointCoordinator, ChkptMsg, ChkptRepMsg
from repro.core.events import FAA_POSITION, EventBatch, UpdateEvent, VectorTimestamp
from repro.core.invariants import InvariantViolation
from repro.core.queues import BackupQueue
from repro.ois import FlightDataConfig, generate_script
from repro.ois.clients import InitStateRequest, InitStateResponse
from repro.ois.ede import EventDerivationEngine
from repro.rt import net, sites
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
from repro.wire import (
    EOS as WIRE_EOS,
    HEADER,
    MAGIC,
    WIRE_VERSION,
    FrameWalker,
    Hello,
    WireEncoder,
    WireError,
)

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


def test_failing_engine_on_a_mirror_fails_the_net_scenario(monkeypatch):
    mirror_init = sites.AsyncMirrorSite.__init__

    def failing_mirror(self, *args, **kwargs):
        mirror_init(self, *args, **kwargs)
        self.main.ede = FailingEngine()

    monkeypatch.setattr(sites.AsyncMirrorSite, "__init__", failing_mirror)
    ends_with_boom(run_net_scenario(script(), n_mirrors=2))


def test_failing_engine_fails_the_net_scenario(monkeypatch):
    monkeypatch.setattr("repro.rt.sites.EventDerivationEngine", FailingEngine)
    ends_with_boom(run_net_scenario(script(), n_mirrors=2))


def test_failing_engine_fails_the_sharded_scenario(monkeypatch):
    monkeypatch.setattr("repro.rt.sites.EventDerivationEngine", FailingEngine)
    ends_with_boom(run_sharded_scenario(script=script(), n_shards=2))


def failing_mirror_rule():
    """A mirroring config whose ``set_mirror`` callable raises on its
    eleventh event: a failure on central's source path."""
    seen = []

    def mirror(event, table):
        seen.append(event)
        if len(seen) == 11:
            raise Boom("eleventh event")
        return None

    config = simple_mirroring()
    config.custom_mirror = mirror
    return config


def test_failing_mirror_rule_on_central_fails_the_net_scenario():
    ends_with_boom(run_net_scenario(script(), n_mirrors=2, config=failing_mirror_rule()))


def test_failing_mirror_rule_on_central_fails_the_sharded_scenario():
    """The shard's stream enters central on its source connection's
    handler, a task no supervisor spawned: the failure still ends the
    run."""
    ends_with_boom(run_sharded_scenario(
        script=script(), n_shards=2, config=failing_mirror_rule()
    ))


def failing_third_mirror_vote(monkeypatch):
    """Plant: central's coordinator raises while it counts the third
    vote a mirror sends — a failure in a mirror connection's handler."""
    on_reply = CheckpointCoordinator.on_reply
    mirror_votes = []

    def planted(self, reply):
        if "mirror" in reply.site:
            mirror_votes.append(reply)
            if len(mirror_votes) == 3:
                raise Boom("third mirror vote")
        return on_reply(self, reply)

    monkeypatch.setattr(CheckpointCoordinator, "on_reply", planted)


def ends_with_boom_quietly(coro):
    """:func:`ends_with_boom`, and the loop's exception handler hears
    nothing (an unsupervised handler task that dies is reported there)."""
    heard = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: heard.append(context)
        )
        await coro

    ends_with_boom(main())
    assert heard == []


def test_failing_vote_count_on_central_fails_the_net_scenario(monkeypatch):
    failing_third_mirror_vote(monkeypatch)
    ends_with_boom_quietly(run_net_scenario(script(), n_mirrors=2))


def test_failing_vote_count_on_central_fails_the_sharded_scenario(monkeypatch):
    failing_third_mirror_vote(monkeypatch)
    ends_with_boom_quietly(run_sharded_scenario(script=script(), n_shards=2))


def test_live_cluster_honours_check_invariants(monkeypatch):
    """A trim that removes other than the covered prefix trips the
    monitor on the live cluster as it does in the simulator."""
    trim = BackupQueue.trim
    monkeypatch.setattr(BackupQueue, "trim", lambda self, vt: trim(self, vt) + 1)
    config = simple_mirroring()
    config.check_invariants = True
    with pytest.raises(InvariantViolation, match="trim mismatch"):
        run(asyncio.wait_for(
            run_net_scenario(script(), n_mirrors=2, config=config), timeout=20
        ))


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
    tcp = run(run_net_scenario(sc, n_mirrors=1, n_requests=3))
    assert tcp.updates_distributed >= len(sc)  # one per event + derived
    assert tcp.requests_served == 3
    assert tcp.mean_update_delay > 0.0


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
            tasks.spawn(central.run())

            async def feed():
                i = 0
                while True:
                    i += 1
                    await central.feed([position(i)])
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
            assert mirror.site.main._pending_requests == 0
        finally:
            await tasks.cancel()
            await central.close()
            await mirror.close()

    run(asyncio.wait_for(main(), timeout=30))
    assert max(seen) > 0


# ------------------------------------------------------ a mirror's ready queue
def test_a_mirror_votes_the_events_waiting_in_its_inbox_as_its_ready_queue():
    """Runs a mirror has received and not yet applied are its ready
    queue, counted in events as central's is (the unit its thresholds
    are set in): with the event loop held, a CHKPT's vote reports every
    event of the runs in the inbox."""
    n_events = 200  # two or three runs: the inbox holds them all
    votes = []

    async def main():
        mirror = NetMirror("mirror1")
        main_unit = mirror.site.main
        release = asyncio.Event()
        served = asyncio.Event()
        event_loop = main_unit.event_loop

        async def held_event_loop():
            await release.wait()
            await event_loop()

        main_unit.event_loop = held_event_loop

        async def central(reader, writer):
            frames = _FrameReader(reader, WireStats())
            assert isinstance(await frames.next_message(), Hello)
            encoder = WireEncoder()
            vt, frames_out = VectorTimestamp(), []
            for i in range(1, n_events + 1):
                vt = vt.advanced("faa", i)  # mirrored events are stamped
                frames_out.append(encoder.encode_event(position(i).stamped(vt, 0.0)))
            frames_out.append(encoder.encode_message(ChkptMsg.from_wire(1, vt)))
            writer.write(b"".join(frames_out))
            votes.append(await frames.next_message())
            release.set()
            writer.write(encoder.encode_eos())
            assert await frames.next_message() == WIRE_EOS
            writer.close()
            served.set()

        server = await asyncio.start_server(central, HOST, 0)
        try:
            await mirror.run(HOST, server.sockets[0].getsockname()[1])
            await served.wait()
        finally:
            server.close()
            await server.wait_closed()
        assert main_unit.ede.processed == n_events

    run(asyncio.wait_for(main(), timeout=30))
    (vote,) = votes
    assert isinstance(vote, ChkptRepMsg)
    assert vote.monitored[MONITOR_READY_QUEUE] == n_events


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
                    if type(msg) is list:  # a run of events
                        got.extend(e.seqno for e in msg)

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


@pytest.mark.parametrize("after_hello", [False, True], ids=["before-hello", "after-hello"])
@pytest.mark.parametrize("listener", ["central", "mirror"])
def test_hostile_bytes_close_that_client_only(listener, after_hello):
    """24 bytes that are no frame, sent to a listener before or after a
    client's HELLO: that connection is closed, nothing reaches the
    loop's exception handler, and the next well-behaved client is
    answered."""
    heard = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: heard.append(context)
        )
        central = NetCentral(0)
        mirror = NetMirror("mirror1")
        try:
            port = (await central.start(host=HOST) if listener == "central"
                    else await mirror.serve_clients(host=HOST))
            reader, writer = await asyncio.open_connection(HOST, port)
            hello = WireEncoder().encode_hello(Hello("client", "hostile"))
            writer.write((hello if after_hello else b"") + b"\xa5" * 24)
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            reader, writer = await asyncio.open_connection(HOST, port)
            encoder = WireEncoder()
            writer.write(encoder.encode_hello(Hello("client", "polite")))
            writer.write(encoder.encode_request(InitStateRequest("polite", 0.0)))
            frames = _FrameReader(reader, WireStats())
            response = await asyncio.wait_for(frames.next_message(), timeout=5)
            writer.close()
            return response
        finally:
            await central.close()
            await mirror.close()

    assert isinstance(run(main()), InitStateResponse)
    assert heard == []


#: a frame header that claims a 4 GiB body, then 1 MiB of that body
_PAST_THE_BOUND = HEADER.pack(MAGIC, WIRE_VERSION, 0x01, 0, 0xFFFFFFFF) + bytes(1 << 20)


def _spy_on_pending(monkeypatch):
    """Record what each walk leaves buffered, whether it raised or not."""
    pending = []
    walk = FrameWalker.walk

    def spy(self, data):
        try:
            return walk(self, data)
        finally:
            pending.append(self.pending())

    monkeypatch.setattr(FrameWalker, "walk", spy)
    return pending


@pytest.mark.parametrize("listener", ["central", "mirror"])
def test_a_header_past_the_bound_closes_that_client_at_once(listener, monkeypatch):
    """A client that says HELLO and then sends a header past
    ``MAX_FRAME_BYTES`` and 1 MiB after it is hung up on at that header:
    no byte of the body is buffered, and the next client is answered."""
    pending = _spy_on_pending(monkeypatch)
    heard = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: heard.append(context)
        )
        central = NetCentral(0)
        mirror = NetMirror("mirror1")
        try:
            port = (await central.start(host=HOST) if listener == "central"
                    else await mirror.serve_clients(host=HOST))
            reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(WireEncoder().encode_hello(Hello("client", "hostile"))
                         + _PAST_THE_BOUND)
            try:
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            except ConnectionResetError:
                pass  # hung up on with the rest of the MiB unread
            writer.close()
            reader, writer = await asyncio.open_connection(HOST, port)
            encoder = WireEncoder()
            writer.write(encoder.encode_hello(Hello("client", "polite")))
            writer.write(encoder.encode_request(InitStateRequest("polite", 0.0)))
            frames = _FrameReader(reader, WireStats())
            response = await asyncio.wait_for(frames.next_message(), timeout=5)
            writer.close()
            return response
        finally:
            await central.close()
            await mirror.close()

    assert isinstance(run(main()), InitStateResponse)
    assert heard == []
    assert max(pending) <= HEADER.size


def test_a_header_past_the_bound_on_the_source_fails_the_run(monkeypatch):
    """The same header on central's source link ends central's run with
    the codec's error, before any of the body is buffered."""
    pending = _spy_on_pending(monkeypatch)

    async def main():
        central = NetCentral(0)
        tasks = TaskSupervisor()
        writer = None
        try:
            port = await central.start(host=HOST)
            running = tasks.spawn(central.run())
            _reader, writer = await asyncio.open_connection(HOST, port)
            encoder = WireEncoder()
            writer.write(encoder.encode_hello(Hello("source", "hostile"))
                         + encoder.encode_event(position(1)))
            # the link is the source's once a read after HELLO is stepped
            while central.site.main.events_applied < 1:
                await asyncio.sleep(0.001)
            writer.write(_PAST_THE_BOUND)
            await asyncio.wait_for(running, timeout=5)
        finally:
            if writer is not None:
                writer.close()
            await tasks.cancel()
            await central.close()

    with pytest.raises(WireError, match="bound"):
        run(main())
    assert max(pending) <= HEADER.size


def test_hello_and_a_header_past_the_bound_in_one_read_fail_the_run():
    """HELLO and the same header in one write: the link steps HELLO
    before it fails, so the failure is the source's and central's run
    ends with the codec's error (a client that does the same is only
    hung up on: test_a_header_past_the_bound_closes_that_client_at_once)."""

    async def main():
        central = NetCentral(0)
        tasks = TaskSupervisor()
        writer = None
        try:
            port = await central.start(host=HOST)
            running = tasks.spawn(central.run())
            _reader, writer = await asyncio.open_connection(HOST, port)
            writer.write(WireEncoder().encode_hello(Hello("source", "hostile"))
                         + _PAST_THE_BOUND)
            await asyncio.wait_for(running, timeout=5)
        finally:
            if writer is not None:
                writer.close()
            await tasks.cancel()
            await central.close()

    with pytest.raises(WireError, match="bound"):
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
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=HOST)
            first_run = tasks.spawn(first.run(HOST, port))
            central_run = tasks.spawn(central.run())

            async def drive():
                late_run = None
                for start in range(1, n_events + 1, 50):
                    await central.feed(
                        [position(i, key=f"DL{i % 7}") for i in range(start, start + 50)]
                    )
                    if start > n_events // 3 and late_run is None:
                        late_run = tasks.spawn(late.run(HOST, port))
                await central.feed("__end_of_stream__")
                await central_run
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
