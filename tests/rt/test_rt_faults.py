"""A mirror that dies mid-stream, over real sockets.

Cancelling a mirror's ``NetMirror.run`` closes its socket with data
still unread, so the kernel answers with a reset — what ``kill -9`` of
a mirror process does to its peers.  Central must take that as the end
of the mirror's stream and as its death: nothing may reach the loop's
exception handler, the stream goes on, the dead mirror leaves
agreement so checkpoint rounds keep committing and the backups stay
bounded, and the surviving mirror stays consistent.
"""

import asyncio

from repro.ois import FlightDataConfig, generate_script
from repro.rt.net import NetCentral, NetMirror
from repro.rt.sites import EOS
from repro.rt.tasks import TaskSupervisor

HOST = "127.0.0.1"


def script(**kw):
    defaults = dict(n_flights=4, positions_per_flight=30, seed=31)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def run_drill(sc, crash_after=None):
    """Stream ``sc`` through central and two mirrors; once mirror1 has
    applied ``crash_after`` events (never, when None) cancel its run.
    Checks what must hold either way: rounds commit after the crash, at
    the end central's and every survivor's backup holds at most two
    checkpoint periods of events, and the survivors agree with central.
    Returns the central, the mirrors and whatever reached the loop's
    exception handler."""
    unhandled = []
    committed_at_crash = [0]

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        central = NetCentral(2)
        mirrors = [NetMirror(name) for name in central.mirror_names]
        tasks = TaskSupervisor()
        try:
            port = await central.start(host=HOST)
            runs = [tasks.spawn(m.run(HOST, port)) for m in mirrors]
            central_run = tasks.spawn(central.run())

            async def drive():
                for se in sc.fresh_events():
                    await central.feed([se.event])
                    if (crash_after is not None and not runs[0].done()
                            and mirrors[0].site.main.ede.processed >= crash_after):
                        runs[0].cancel()
                        committed_at_crash[0] = central.site.coordinator.rounds_committed
                await central.feed(EOS)
                await central_run
                await asyncio.gather(*runs, return_exceptions=True)

            await tasks.guard(drive())
        finally:
            await tasks.cancel()
            await central.close()
            for mirror in mirrors:
                await mirror.close()
        return central, mirrors

    central, mirrors = asyncio.run(asyncio.wait_for(main(), timeout=30))
    survivors = mirrors[1:] if crash_after is not None else mirrors
    bound = 2 * central.config.checkpoint_freq
    assert [len(site.backup) for site in [central.site] + [m.site for m in survivors]
            if len(site.backup) > bound] == []
    assert central.site.coordinator.rounds_committed > committed_at_crash[0]
    for mirror in survivors:
        assert mirror.site.main.ede.state_digest() == central.site.main.ede.state_digest()
    return central, mirrors, unhandled


def test_mirror_crash_mid_run_leaves_survivors_consistent():
    sc = script(positions_per_flight=200)
    central, (crashed, survivor), unhandled = run_drill(sc, crash_after=100)
    # the reset reached central's connection handler as end of stream
    assert unhandled == []
    # central processed the whole stream despite the dead mirror
    assert central.site.main.ede.processed == len(sc)
    assert 100 <= crashed.site.main.ede.processed < len(sc)
    # the survivor applied everything and agrees with central
    assert survivor.site.main.ede.processed == len(sc)
    assert survivor.site.main.ede.state_digest() == central.site.main.ede.state_digest()
    # the dead mirror left agreement: rounds committed without it
    assert central.site.mirrors_lost == 1


def test_run_without_injector_unchanged():
    """The same drill with no crash: every replica converges."""
    sc = script()
    central, mirrors, unhandled = run_drill(sc)
    assert unhandled == []
    digests = {m.site.main.ede.state_digest() for m in mirrors}
    assert digests == {central.site.main.ede.state_digest()}
    assert central.site.coordinator.rounds_committed > 0
