"""A run published in one call, decoded in one call, applied in one call.

Central publishes the events a run passes as one list: the shared cache
encodes them in one call (``SharedFrameCache.encode_events``) and each
mirror's cork takes that one ``bytes``.  What a mirror receives must be
exactly what it received when each event was published on its own — one
EVENT frame per event, on the wire and in every counter — on both codec
lanes.  Central's main unit applies a run with one ``process_many`` call
and one clock read; its accounting must match the per-event loop's.
"""

import asyncio
from contextlib import contextmanager
from itertools import islice

import pytest

from repro.core import simple_mirroring
from repro.core.events import EventBatch
from repro.ois import FlightDataConfig, generate_script
from repro.ois.ede import EventDerivationEngine
from repro.rt import net
from repro.rt.net import NetCluster, run_net_scenario
from repro.rt.sites import EOS, AsyncMainUnit
from repro.sub.predicate import MatchAll
from repro.wire import WireEncoder, accel

HOST = "127.0.0.1"
LANES = [False] + ([True] if accel.AVAILABLE else [])
LANE_IDS = ["pure", "C"][: len(LANES)]


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


@contextmanager
def lane(accelerated):
    saved = accel.impl
    accel.impl = saved if accelerated else None
    try:
        yield
    finally:
        accel.impl = saved


def script():
    """Enough flights and positions for derived events (boarding
    complete, arrival) and several checkpoint rounds."""
    return generate_script(FlightDataConfig(n_flights=6, positions_per_flight=40, seed=5))


def offline_outputs(sc):
    """Updates plus derived events the per-event EDE makes of ``sc``."""
    ede = EventDerivationEngine()
    return sum(len(ede.process(se.event)) for se in sc.fresh_events())


@pytest.mark.parametrize("accelerated", LANES, ids=LANE_IDS)
@pytest.mark.parametrize(
    "batch_size, n_mirrors", [(1, 2), (8, 4)], ids=["push_steady", "mirror_fanout"]
)
def test_mirrors_receive_the_per_event_stream(batch_size, n_mirrors, accelerated, monkeypatch):
    """Every mirror connection receives, byte for byte, the stream a
    per-event publish produces: each published message encoded on its
    own, in publish order, on one encoder — runs expanded event by
    event — then EOS.  The send-side counters move per frame of it."""
    published = []
    received = {}
    send, buffer_updated = net.NetCentral.send, net._Link.buffer_updated

    def recording_send(self, kind, payload):
        published.append(list(payload) if type(payload) is list else payload)
        send(self, kind, payload)

    def recording_read(self, nbytes):
        if isinstance(self.role, net._Uplink):
            received.setdefault(self.role.mirror.name, bytearray()).extend(
                self._buffer[:nbytes]
            )
        buffer_updated(self, nbytes)

    monkeypatch.setattr(net.NetCentral, "send", recording_send)
    monkeypatch.setattr(net._Link, "buffer_updated", recording_read)
    config = simple_mirroring()
    config.batch_size = batch_size
    sc = script()

    async def scenario():
        cluster = NetCluster(n_mirrors, config=config)
        try:
            await cluster.start(host=HOST)
            running = asyncio.ensure_future(cluster.run())
            events = (se.event for se in sc.fresh_events())
            while chunk := list(islice(events, 37)):
                await cluster.central.feed(chunk)
            await cluster.central.feed(EOS)
            await running
        finally:
            await cluster.close()
        return cluster.central

    with lane(accelerated):
        central = run(scenario())
        encoder = WireEncoder()
        frames = []
        for payload in published:
            for msg in payload if type(payload) is list else (payload,):
                frames.append(encoder.encode_message(msg))
        frames.append(encoder.encode_eos())
    expected = b"".join(frames)
    if batch_size == 1:  # runs of several events were published whole
        assert any(type(p) is list and len(p) > 1 for p in published)
    assert sorted(received) == [f"mirror{i + 1}" for i in range(n_mirrors)]
    for stream in received.values():
        assert bytes(stream) == expected
    stats, shared = central.stats, central.shared
    assert shared.frames_shared == len(frames)
    assert shared.encodes_saved == (n_mirrors - 1) * len(frames)
    assert stats.frames_sent == n_mirrors * len(frames)
    assert stats.bytes_sent == n_mirrors * len(expected)


def test_link_faults_stay_per_event_and_per_connection():
    """Under a fault controller a run is still judged one event and one
    mirror connection at a time."""
    seen = []

    class Recorder:
        def on_send(self, message, src, dst, now):
            seen.append((message.kind, dst))
            return None

    sc = script()
    summary = run(run_net_scenario(sc, n_mirrors=2, fault_controller=Recorder()))
    data = [dst for kind, dst in seen if kind == "data"]
    assert summary.events_mirrored == len(sc)
    assert sorted(set(data)) == ["mirror1", "mirror2"]
    assert len(data) == 2 * summary.events_mirrored
    assert len(set(summary.replica_digests)) == 1


def test_central_subscribers_get_each_run_in_one_fanout(monkeypatch):
    """With no mirrors, central's own subscribers are fed a run at a
    time, as a mirror's are — and still get every event."""
    payloads = []
    fanout = net.SubscriptionFanout.fanout

    def recording_fanout(self, payload):
        payloads.append(payload)
        fanout(self, payload)

    monkeypatch.setattr(net.SubscriptionFanout, "fanout", recording_fanout)
    sc = script()
    summary = run(run_net_scenario(sc, n_mirrors=0, subscribers=[("all", MatchAll())]))
    assert len(summary.subscriber_results[0]["events"]) == len(sc)
    runs = [p for p in payloads if type(p) is list]
    assert runs and len(payloads) < len(sc)


class _PerEventEngine(EventDerivationEngine):
    """Builds its update copies: the main unit's per-event loop."""

    supports_discard = False


@pytest.mark.parametrize("run_length", [1, 7, 64])
def test_bulk_apply_accounts_as_the_per_event_loop(run_length):
    """Central's main unit applies a run in one call and reads its clock
    once per run; its update count (derived events included), delays,
    state and checkpoint floor match the per-event loop's on the same
    clock."""
    sc = script()
    events = [
        se.event.stamped(se.event.vt, float(i)) for i, se in enumerate(sc.fresh_events())
    ]
    runs = [events[i:i + run_length] for i in range(0, len(events), run_length)]

    def apply(engine):
        reads = []

        def clock():
            reads.append(1)
            return 1000.0

        unit = AsyncMainUnit("central", clock=clock, inbox_bound=len(runs) + 1)
        unit.ede = engine
        unit.distribute_updates = True
        for members in runs:
            unit.inbox.put_nowait(EventBatch(members))
        unit.inbox.put_nowait(EOS)
        asyncio.run(unit.event_loop())
        return unit, len(reads)

    bulk, bulk_reads = apply(EventDerivationEngine())
    each, _ = apply(_PerEventEngine())
    expected = offline_outputs(sc)
    assert expected > len(sc)  # the script derives events
    assert len(bulk.updates) == len(each.updates) == expected
    assert bulk.update_delays.mean() == pytest.approx(each.update_delays.mean())
    assert bulk_reads == len(runs)
    assert bulk.ede.state_digest() == each.ede.state_digest()
    assert bulk.ede.derived == each.ede.derived
    assert bulk.checkpointer.processed_vt.as_dict() == each.checkpointer.processed_vt.as_dict()


def test_run_summary_counts_every_output():
    """``updates_distributed`` counts each event and each derived event
    once; ``mean_update_delay`` is a stamp-to-apply time."""
    sc = script()
    summary = run(run_net_scenario(sc, n_mirrors=1))
    assert summary.updates_distributed == offline_outputs(sc)
    assert 0.0 < summary.mean_update_delay < summary.wall_seconds
