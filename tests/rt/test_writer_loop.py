"""``NetCentral._writer_loop`` flushes when its queue runs dry, never on
a clock: driven here with a recording stub in place of the socket, so
every assertion is about turns of the event loop, not about time."""

import asyncio

from repro.core.functions import simple_mirroring
from repro.ois.flightdata import FlightDataConfig, generate_script
from repro.rt.net import (
    FLUSH_FRAMES,
    NetCentral,
    _MirrorConnection,
    run_net_scenario,
)

#: Turns of the loop an idle writer may take to ship what it was given:
#: one to wake from ``outbound.get()``, and slack for the flush.  The
#: deadline this replaces took 2 ms — hundreds of turns of an idle loop.
TURNS = 5


class RecordingWriter:
    """What the writer loop needs of a ``StreamWriter``; keeps each
    ``writelines`` call as one list of frames."""

    def __init__(self, closing: bool = False):
        self.writes = []
        self.closing = closing

    def is_closing(self) -> bool:
        return self.closing

    def writelines(self, chunks) -> None:
        self.writes.append(list(chunks))

    async def drain(self) -> None:
        pass


def drive(scenario, closing: bool = False):
    """Run ``scenario(conn, writer, central, turns)`` beside a writer
    loop on a fresh connection; returns the timers armed on the loop
    meanwhile, and checks the loop ends once told to close."""

    async def main():
        loop = asyncio.get_running_loop()
        timers = []
        for name in ("call_later", "call_at"):
            real = getattr(loop, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                timers.append(_name)
                return _real(*args, **kwargs)

            setattr(loop, name, spy)

        central = NetCentral(n_mirrors=1)
        conn = _MirrorConnection("mirror1")
        writer = RecordingWriter(closing)
        task = asyncio.ensure_future(central._writer_loop(conn, writer))

        async def turns(n=TURNS):
            for _ in range(n):
                await asyncio.sleep(0)

        await turns()  # the loop is parked on its empty queue
        await scenario(conn, writer, central, turns)
        if not task.done():
            conn.outbound.put_nowait(("close", b""))
            await turns()
        assert task.done() and task.exception() is None
        assert conn.closed
        return timers

    return asyncio.run(main())


def test_lone_frame_on_an_idle_link_leaves_at_once_with_no_timer():
    async def scenario(conn, writer, central, turns):
        conn.outbound.put_nowait(("data", b"frame-1"))
        await turns()
        assert writer.writes == [[b"frame-1"]]
        assert central.stats.dry_flushes == 1
        assert central.stats.frames_sent == 1
        assert central.stats.bytes_sent == len(b"frame-1")

    assert drive(scenario) == []


def test_frames_queued_together_leave_in_one_write():
    async def scenario(conn, writer, central, turns):
        for i in range(3):
            conn.outbound.put_nowait(("data", b"frame-%d" % i))
        await turns()
        assert writer.writes == [[b"frame-0", b"frame-1", b"frame-2"]]
        assert central.stats.flushes == central.stats.dry_flushes == 1

    assert drive(scenario) == []


def test_backlog_leaves_by_frame_budget_then_the_rest_when_dry():
    async def scenario(conn, writer, central, turns):
        for i in range(FLUSH_FRAMES + 2):
            conn.outbound.put_nowait(("data", b"%d" % i))
        await turns()
        assert [len(w) for w in writer.writes] == [FLUSH_FRAMES, 2]
        assert central.stats.size_flushes == 1
        assert central.stats.dry_flushes == 1

    assert drive(scenario) == []


def test_control_frame_flushes_at_once_with_what_was_held():
    async def scenario(conn, writer, central, turns):
        conn.outbound.put_nowait(("data", b"event"))
        conn.outbound.put_nowait(("control", b"chkpt"))
        conn.outbound.put_nowait(("data", b"later"))
        await turns()
        assert writer.writes == [[b"event", b"chkpt"], [b"later"]]
        assert central.stats.control_flushes == 1
        assert central.stats.dry_flushes == 1

    assert drive(scenario) == []


def test_dead_transport_still_empties_the_queue():
    async def scenario(conn, writer, central, turns):
        for i in range(3):
            conn.outbound.put_nowait(("data", b"frame-%d" % i))
        await turns()
        # the peer is gone: nothing written, nothing left queued for a
        # broadcast loop to block behind, and the loop has wound down
        assert writer.writes == []
        assert conn.outbound.empty()
        assert conn.closed
        assert central.stats.dead_connection_flushes == 1

    assert drive(scenario, closing=True) == []


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
