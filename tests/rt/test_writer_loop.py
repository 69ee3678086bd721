"""The central's mirror link writes from the sending path itself: each
connection's cork (``AdaptiveFlusher``) holds what a run publishes and
hands it to the transport in one ``writelines`` when the run is done,
never on a clock.  Driven here with a recording stub in place of the
socket, so every assertion is about writes and turns of the event
loop, not about time."""

import asyncio
from dataclasses import replace

from repro.core.checkpoint import ChkptMsg
from repro.core.events import FAA_POSITION, UpdateEvent, VectorTimestamp
from repro.core.functions import simple_mirroring
from repro.ois.flightdata import FlightDataConfig, generate_script
from repro.rt.net import (
    FLUSH_BYTES,
    NetCentral,
    _MirrorConnection,
    run_net_scenario,
)
from repro.rt.sites import EOS
from repro.wire import SharedFrameCache

#: The transport's high-water mark the stub reports (asyncio's default).
HIGH_WATER = 64 * 1024


class RecordingTransport:
    def __init__(self):
        self.buffered = 0

    def get_write_buffer_limits(self):
        return HIGH_WATER // 4, HIGH_WATER

    def get_write_buffer_size(self):
        return self.buffered


class RecordingWriter:
    """What the cork needs of a ``StreamWriter``; keeps each
    ``writelines`` call as one list of frames."""

    def __init__(self, closing: bool = False):
        self.writes = []
        self.closing = closing
        self.transport = RecordingTransport()

    def is_closing(self) -> bool:
        return self.closing

    def writelines(self, chunks) -> None:
        self.writes.append(list(chunks))

    async def drain(self) -> None:
        if self.transport.buffered:
            await asyncio.sleep(0)  # the peer reads
            self.transport.buffered = 0


def position(i):
    return UpdateEvent(
        kind=FAA_POSITION, stream="faa", seqno=i, key=f"DL{i % 5}",
        payload={"lat": float(i), "lon": -84.0, "alt": 30000.0},
    )


def attach(central, n=1, closing=False):
    """Attach ``n`` recording mirror connections; returns their writers."""
    writers = []
    for i in range(n):
        writer = RecordingWriter(closing)
        central._attach(_MirrorConnection(f"mirror{i + 1}", writer, central.stats))
        writers.append(writer)
    return writers


async def drained(central):
    """End a run: write the corks out, and wait on a backed-up mirror
    when ``drain`` hands back such a wait."""
    waiting = central.drain()
    if waiting is not None:
        await waiting


def spy_timers(loop):
    timers = []
    for name in ("call_later", "call_at"):
        real = getattr(loop, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            timers.append(_name)
            return _real(*args, **kwargs)

        setattr(loop, name, spy)
    return timers


def test_lone_frame_on_an_idle_link_leaves_at_once_with_no_timer():
    async def scenario():
        timers = spy_timers(asyncio.get_running_loop())
        central = NetCentral(n_mirrors=1)
        (writer,) = attach(central)
        event = position(1)
        central.send("data", event)
        assert writer.writes == []  # corked until the run is done
        assert central.drain() is None  # nothing to wait for
        frame = SharedFrameCache().encode(event)
        assert writer.writes == [[frame]]
        assert central.stats.dry_flushes == 1
        assert central.stats.frames_sent == 1
        assert central.stats.bytes_sent == len(frame)
        return timers

    assert asyncio.run(scenario()) == []


def test_frames_queued_together_leave_in_one_write():
    async def scenario():
        central = NetCentral(n_mirrors=2)
        writers = attach(central, 2)
        for i in range(3):
            central.send("data", position(i + 1))
        await drained(central)
        assert central.stats.flushes == central.stats.dry_flushes == 2
        return writers

    first, second = asyncio.run(scenario())
    assert [len(w) for w in first.writes] == [3]
    assert first.writes == second.writes  # the same bytes, encoded once


def test_backlog_leaves_by_byte_budget_then_the_rest_when_dry():
    async def scenario():
        central = NetCentral(n_mirrors=1)
        (writer,) = attach(central)
        cork = central.connections["mirror1"].cork
        big = b"x" * (FLUSH_BYTES // 2)
        for _ in range(3):
            cork.add(big)
        assert [len(w) for w in writer.writes] == [2]
        assert cork.qsize() == 1
        await drained(central)
        assert [len(w) for w in writer.writes] == [2, 1]
        assert central.stats.size_flushes == 1
        assert central.stats.dry_flushes == 1

    asyncio.run(scenario())


def test_control_frame_flushes_at_once_with_what_was_held():
    async def scenario():
        central = NetCentral(n_mirrors=1)
        (writer,) = attach(central)
        central.send("data", position(1))
        central.send("control", ChkptMsg.from_wire(1, VectorTimestamp()))
        assert [len(w) for w in writer.writes] == [2]  # no drain needed
        central.send("data", position(2))
        await drained(central)
        assert [len(w) for w in writer.writes] == [2, 1]
        assert central.stats.control_flushes == 1
        assert central.stats.dry_flushes == 1

    asyncio.run(scenario())


def test_dead_transport_still_empties_the_queue():
    async def scenario():
        central = NetCentral(n_mirrors=1)
        (writer,) = attach(central, closing=True)
        for i in range(3):
            central.send("data", position(i + 1))
        await drained(central)
        # the peer is gone: nothing written, nothing held for the
        # sending path to block behind, and the cork stays dead
        cork = central.connections["mirror1"].outbound
        assert writer.writes == []
        assert cork.qsize() == 0 and cork.dead and not cork.backed_up
        assert central.stats.dead_connection_flushes == 1
        central.send("data", position(4))
        await drained(central)
        assert cork.qsize() == 0
        assert central.stats.dead_connection_flushes == 1

    asyncio.run(scenario())


def test_a_backed_up_transport_paces_the_sending_path():
    async def scenario():
        central = NetCentral(n_mirrors=2)
        slow, fast = attach(central, 2)
        slow.transport.buffered = HIGH_WATER + 1
        central.send("data", position(1))
        waiting = central.drain()
        assert waiting is not None  # the slow mirror holds the path up
        assert len(slow.writes) == len(fast.writes) == 1  # written first
        await waiting
        assert slow.transport.buffered == 0

    asyncio.run(scenario())


def test_one_chunk_costs_one_hop_per_queue_and_one_write_per_mirror():
    """A 256-event source chunk, fed to central whole, crosses
    ``main.inbox`` as one item and reaches every mirror in one
    ``writelines``, whose bytes are a fresh shared encoding of the same
    events."""

    async def scenario():
        config = replace(simple_mirroring(), checkpoint_freq=10_000)
        central = NetCentral(n_mirrors=2, config=config)
        writers = attach(central, 2)
        site = central.site
        puts = []
        inbox = site.main.inbox

        # every put, awaited or not, ends in put_nowait
        def spy(item, _real=inbox.put_nowait):
            puts.append(item)
            return _real(item)

        inbox.put_nowait = spy
        applying = asyncio.ensure_future(site.main.event_loop())
        await central.feed([position(i + 1) for i in range(256)])
        while site.main.ede.processed < 256:
            await asyncio.sleep(0)
        count = len(puts)
        run = puts[0].events
        await central.feed(EOS)
        await applying
        return count, run, writers

    count, run, writers = asyncio.run(scenario())
    assert count == 1
    assert len(run) == 256
    cache = SharedFrameCache()
    expected = b"".join(cache.encode(event) for event in run)
    for writer in writers:
        assert b"".join(writer.writes[0]) == expected
        # the stream's close: the final checkpoint round, written at once
        assert len(writer.writes) == 2


def test_live_run_counts_dry_flushes_and_no_deadline_flushes():
    script = generate_script(
        FlightDataConfig(n_flights=4, positions_per_flight=40, seed=5)
    )
    summary = asyncio.run(
        run_net_scenario(script, n_mirrors=2, config=simple_mirroring())
    )
    assert summary.replicas_consistent
    wire = summary.wire
    assert wire.deadline_flushes == 0
    assert wire.dry_flushes > 0
    assert wire.flushes >= wire.size_flushes + wire.dry_flushes + wire.control_flushes
