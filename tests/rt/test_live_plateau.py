"""Plateau drill: the live TCP path holds a fixed amount of memory
however many events it has handled.

One ``NetCentral`` and two ``NetMirror`` on loopback, composed the way
``benchmarks/e2e/server.py`` composes them, take three bursts of 10 000
events from a source socket while a ``MatchAll`` subscriber reads the
push stream and a client pipelines requests.  After each burst has
drained, every queue is empty and never ran past its declared bound,
the backup queue stayed within what the bounds and the checkpoint rule
allow, the change journal is within its horizon, and task, descriptor
and heap counts are where they were after the first burst.
"""

import asyncio
import gc
import os
import tracemalloc

from repro.core import simple_mirroring
from repro.core.checkpoint import MAX_SKIPPED_INITIATIONS
from repro.core.events import FAA_POSITION, EventBatch, UpdateEvent
from repro.ois import state as ois_state
from repro.ois.clients import InitStateRequest, InitStateResponse
from repro.rt import net, sites
from repro.rt.net import NetCentral, NetMirror, WireStats, _FrameReader
from repro.rt.tasks import TaskSupervisor
from repro.sub.messages import Subscribe
from repro.sub.predicate import MatchAll
from repro.wire import Hello, WireEncoder

BURSTS = 3
BURST_EVENTS = 10_000
REQUESTS_PER_BURST = 40
FLIGHTS = 50
HOST = "127.0.0.1"


def burst_blob(encoder, burst):
    """One burst's EVENT frames, REQUESTS_PER_BURST request slots apart."""
    first = burst * BURST_EVENTS
    frames = []
    for i in range(first, first + BURST_EVENTS):
        frames.append(encoder.encode_event(UpdateEvent(
            kind=FAA_POSITION, stream="faa", seqno=i + 1, key=f"DL{i % FLIGHTS}",
            payload={"lat": float(i), "lon": -84.0, "alt": 30000.0},
        )))
    return frames


async def until(condition, what, timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, f"timed out: {what}"
        await asyncio.sleep(0.002)


async def drill():
    config = simple_mirroring()
    central = NetCentral(2, config=config)
    mirrors = [NetMirror(name, config=config) for name in central.mirror_names]
    site = central.site
    tasks = TaskSupervisor()
    stats = WireStats()
    delivered = bytearray(BURSTS * BURST_EVENTS)  # per event, by seqno - 1
    responses = []
    readings = []

    async def subscriber(reader):
        frames = _FrameReader(reader, stats)
        while (chunk := await frames.next_chunk()) is not None:
            for msg in chunk:
                events = msg.events if isinstance(msg, EventBatch) else (msg,)
                for event in events:
                    if isinstance(event, UpdateEvent):
                        delivered[event.seqno - 1] += 1

    async def client(reader):
        frames = _FrameReader(reader, stats)
        while (chunk := await frames.next_chunk()) is not None:
            responses.extend(m for m in chunk if isinstance(m, InitStateResponse))

    async def body():
        port = await central.start(host=HOST)
        client_ports = [await m.serve_clients(host=HOST) for m in mirrors]
        for mirror in mirrors:
            tasks.spawn(mirror.run(HOST, port))
        await central.mirrors_connected.wait()
        for coro in (site.receiving_task(), site.sending_task(),
                     site.control_task(), site.main.event_loop()):
            tasks.spawn(coro)

        encoder = WireEncoder()
        sub_reader, sub_writer = await asyncio.open_connection(HOST, client_ports[0])
        sub_writer.write(
            encoder.encode_hello(Hello("subscriber", "drill"))
            + encoder.encode_message(Subscribe.from_predicate("drill", 1, MatchAll()))
        )
        tasks.spawn(subscriber(sub_reader))
        req_encoder = WireEncoder()
        req_reader, req_writer = await asyncio.open_connection(HOST, client_ports[1])
        req_writer.write(req_encoder.encode_hello(Hello("client", "drill")))
        tasks.spawn(client(req_reader))
        src_encoder = WireEncoder()
        _src_reader, src_writer = await asyncio.open_connection(HOST, port)
        src_writer.write(src_encoder.encode_hello(Hello("source", "drill")))
        await until(lambda: mirrors[0].subfan.active, "subscription registered")

        mains = [site.main] + [m.site.main for m in mirrors]
        for burst in range(BURSTS):
            frames = burst_blob(src_encoder, burst)
            step = BURST_EVENTS // REQUESTS_PER_BURST
            for k in range(REQUESTS_PER_BURST):
                src_writer.write(b"".join(frames[k * step:(k + 1) * step]))
                req_writer.write(req_encoder.encode_request(InitStateRequest(
                    client_id=f"thin{k}", issued_at=float(burst),
                )))
                await src_writer.drain()
            sent = (burst + 1) * BURST_EVENTS
            await until(
                lambda: delivered.count(1) == sent
                and all(m.ede.processed == sent for m in mains)
                and len(responses) == (burst + 1) * REQUESTS_PER_BURST
                and not site.coordinator.collecting
                and all(len(s.backup) == len(site.backup) for s in
                        [m.site for m in mirrors]),
                f"burst {burst} drained",
            )
            gc.collect()
            readings.append({
                "tasks": len(asyncio.all_tasks()),
                "fds": len(os.listdir("/proc/self/fd")),
                "heap": tracemalloc.get_traced_memory()[0],
            })

            # -- every queue: empty now, and never past its declared bound
            bounded = [
                (site.data_in, sites.DATA_IN_BOUND),
                (site.ready, sites.READY_BOUND),
                (site.ctrl_in, sites.CONTROL_BOUND),
                (site.main.inbox, sites.CENTRAL_INBOX_BOUND),
                (site.main.requests, sites.REQUESTS_BOUND),
                (central._uplink, net.UPLINK_BOUND),
            ]
            for conn in central.connections.values():
                bounded.append((conn.outbound, net.OUTBOUND_BOUND))
            for mirror in mirrors:
                bounded += [
                    (mirror.data_sub.queue, net.MIRROR_DATA_BOUND),
                    (mirror.ctrl_sub.queue, sites.CONTROL_BOUND),
                    (mirror.reply_to, sites.CONTROL_BOUND),
                    (mirror.site.main.inbox, sites.MIRROR_INBOX_BOUND),
                    (mirror.site.main.requests, sites.REQUESTS_BOUND),
                ]
            for queue, bound in bounded:
                assert queue.maxsize == bound > 0
                assert queue.qsize() == 0
            subs = list(site.mirror_channel.subscriptions)
            subs += list(site.ctrl_channel.subscriptions)
            for mirror in mirrors:
                subs += [mirror.data_sub, mirror.ctrl_sub]
            for sub in subs:
                assert sub.high_watermark <= sub.queue.maxsize

            # -- the backup queue is bounded by what can be in flight
            # between central's mirror() and the slowest mirror's apply,
            # twice over (a round commits what its predecessor's flight
            # time let through), plus the events between two rounds
            in_flight = (
                net.UPLINK_BOUND + net.OUTBOUND_BOUND
                + (net.MIRROR_DATA_BOUND + sites.MIRROR_INBOX_BOUND)
                * sites.MAX_RUN_EVENTS
            )
            allowed = (
                2 * in_flight
                + (MAX_SKIPPED_INITIATIONS + 1) * config.checkpoint_freq
            )
            for s in [site] + [m.site for m in mirrors]:
                assert s.backup.peak <= allowed, (s.backup.peak, allowed)
            # rounds commit instead of superseding one another
            coordinator = site.coordinator
            assert coordinator.rounds_started <= 2 * coordinator.rounds_committed

            # -- nothing retained per event
            for main in mains:
                store = main.ede.state
                assert len(store._log_gens) <= ois_state.JOURNAL_HORIZON
                assert len(main.updates._recent) <= 256
                assert len(main.responses._recent) <= 256
            assert len(site.main.updates) == sent  # counted all the same

        # -- plateau: burst 3 left things where burst 1 left them
        first, last = readings[0], readings[-1]
        assert last["tasks"] == first["tasks"]
        assert last["fds"] == first["fds"]
        assert last["heap"] <= 1.10 * first["heap"], readings

        # -- and nothing was lost on the way
        assert delivered == bytes([1]) * (BURSTS * BURST_EVENTS)
        assert len({m.ede.state_digest() for m in mains}) == 1
        for writer in (sub_writer, req_writer, src_writer):
            writer.close()

    try:
        await tasks.guard(body())
    finally:
        await tasks.cancel()
        await central.close()
        for mirror in mirrors:
            await mirror.close()


def test_live_path_plateaus(monkeypatch):
    # The journal saws between half its horizon and all of it; at the
    # shipped horizon one tooth is longer than a burst of this drill, so
    # where in the tooth a burst ends would decide the heap reading.
    monkeypatch.setattr(ois_state, "JOURNAL_HORIZON", 2048)
    tracemalloc.start()
    try:
        asyncio.run(asyncio.wait_for(drill(), timeout=60))
    finally:
        tracemalloc.stop()
