"""Tests for the TCP socket backend (`repro.rt.net`).

Every byte crosses a real loopback socket here: the scenario driver
builds the same topology as the in-memory asyncio runtime, but mirror
traffic travels as binary wire frames through the adaptive flusher.
"""

import asyncio
from dataclasses import replace

from repro.core import simple_mirroring
from repro.faults.link import LinkFaultController
from repro.faults.plan import FaultPlan
from repro.ois import FlightDataConfig, generate_script
from repro.rt import AsyncMirroredServer
from repro.rt.net import AdaptiveFlusher, run_net_scenario


def run(coro):
    return asyncio.run(coro)


def script(**kw):
    defaults = dict(n_flights=4, positions_per_flight=30, seed=31)
    defaults.update(kw)
    return generate_script(FlightDataConfig(**defaults))


def batched(**kw):
    return replace(simple_mirroring(), batch_size=16, checkpoint_freq=50, **kw)


# ----------------------------------------------------------- round trips
def test_net_scenario_roundtrip():
    summary = run(run_net_scenario(script(), n_mirrors=2, config=batched()))
    assert summary.events_processed_central == summary.events_in
    assert summary.events_mirrored == summary.events_in
    assert summary.replicas_consistent
    wire = summary.wire
    assert wire.frames_sent > 0
    assert wire.frames_received > 0
    assert wire.bytes_sent > 0
    assert wire.bytes_received > 0
    assert wire.flushes > 0
    assert wire.frames_dropped == 0


def test_net_matches_in_memory_runtime():
    """Final replica state is backend-independent: the same script
    produces the same digests whether mirror traffic crosses an
    in-memory channel or a real socket."""
    sc = script(positions_per_flight=40)
    mem = run(AsyncMirroredServer(n_mirrors=2).run(sc))
    net = run(run_net_scenario(sc, n_mirrors=2))
    assert mem.replica_digests[0] == net.replica_digests[0]
    assert set(map(str, mem.replica_digests)) == set(map(str, net.replica_digests))
    assert net.events_processed_central == mem.events_processed_central


def test_net_serves_client_requests():
    summary = run(
        run_net_scenario(
            script(),
            n_mirrors=1,
            config=batched(),
            request_times=[0.0, 0.0, 0.0],
        )
    )
    assert summary.requests_served == 3
    assert summary.replicas_consistent


def test_net_central_serves_requests_without_mirrors():
    """Regression: with no mirrors the thin client talks to central
    directly and its HELLO and first REQUEST coalesce into one TCP
    chunk; the request used to be dropped at the preamble handoff,
    hanging the scenario."""
    summary = run(
        asyncio.wait_for(
            run_net_scenario(script(), n_mirrors=0, request_times=[0.0, 0.0]),
            timeout=30,
        )
    )
    assert summary.requests_served == 2


def test_frame_reader_keeps_coalesced_frames():
    """Every frame completed by one TCP chunk is handed out in order —
    none are lost when the reader outlives the preamble read."""
    from repro.ois.clients import InitStateRequest
    from repro.rt.net import WireStats, _FrameReader
    from repro.wire import Hello, WireEncoder

    class OneShotReader:
        def __init__(self, data):
            self._data = data

        async def read(self, n):
            data, self._data = self._data, b""
            return data

    enc = WireEncoder()
    chunk = enc.encode_hello(Hello("client", "thin")) + enc.encode_request(
        InitStateRequest(client_id="thin0", issued_at=0.0)
    )

    async def drain():
        frames = _FrameReader(OneShotReader(chunk), WireStats())
        out = []
        while True:
            msg = await frames.next_message()
            if msg is None:
                return out
            out.append(msg)

    hello, request = run(drain())
    assert isinstance(hello, Hello)
    assert isinstance(request, InitStateRequest)


def test_net_run_summary_surfaces_channel_pressure():
    summary = run(run_net_scenario(script(), n_mirrors=2, config=batched()))
    assert summary.channel_high_watermark >= 1
    assert summary.channel_blocked_puts >= 0


# ------------------------------------------------------- chaos-layer hook
def test_link_faults_apply_to_socket_backend():
    """A full-run data partition of one mirror drops its frames on the
    floor (counted) and leaves that replica behind, while the unaffected
    mirror still converges."""
    plan = FaultPlan(seed=5).partition(
        0.0, "central", "mirror1", duration=10_000.0, traffic="data"
    )
    summary = run(
        run_net_scenario(
            script(),
            n_mirrors=2,
            config=batched(),
            fault_controller=LinkFaultController(plan),
        )
    )
    assert summary.wire.frames_dropped > 0
    digests = [str(d) for d in summary.replica_digests]
    central, m1, m2 = digests
    assert m1 != central  # starved replica diverged
    assert m2 == central  # untouched replica converged
    assert not summary.replicas_consistent


def test_link_duplicates_encoded_per_connection():
    """Duplicate delivery (control traffic only — the plan layer forbids
    data duplicates) re-encodes the message on the connection's own table
    rather than repeating identical bytes, which would corrupt the
    decoder's interning state; the checkpoint protocol tolerates the
    duplicates and replicas still converge."""
    plan = FaultPlan(seed=5).degrade_link(
        0.0, "central", "mirror1", duration=10_000.0,
        duplicate_prob=1.0, traffic="control",
    )
    summary = run(
        run_net_scenario(
            script(n_flights=2, positions_per_flight=10),
            n_mirrors=1,
            config=batched(),
            fault_controller=LinkFaultController(plan),
        )
    )
    assert summary.wire.frames_duplicated > 0
    assert summary.replicas_consistent


def test_link_latency_injection_still_converges():
    plan = FaultPlan(seed=5).degrade_link(
        0.0, "central", "mirror1", duration=10_000.0, extra_latency=0.001
    )
    summary = run(
        run_net_scenario(
            script(n_flights=2, positions_per_flight=10),
            n_mirrors=1,
            config=batched(),
            fault_controller=LinkFaultController(plan),
        )
    )
    assert summary.replicas_consistent
    assert summary.wire.frames_dropped == 0


# -------------------------------------------------------- adaptive flusher
def test_flusher_size_trigger():
    from repro.rt.net import FLUSH_BYTES, FLUSH_FRAMES, WireStats

    f = AdaptiveFlusher(writer=None, stats=WireStats())
    assert not f.should_flush
    f.add(b"x" * FLUSH_BYTES)  # one frame that fills the byte budget
    assert f.should_flush

    f = AdaptiveFlusher(writer=None, stats=WireStats())
    for _ in range(FLUSH_FRAMES - 1):
        f.add(b"x")
    assert not f.should_flush
    f.add(b"x")  # the frame budget, well under the byte budget
    assert f.should_flush


def test_flusher_backlog_hysteresis():
    from repro.rt.net import (
        FAT_BACKLOG,
        FAT_FLUSH_FRAMES,
        FLUSH_FRAMES,
        RESTORE_BACKLOG,
        WireStats,
    )

    stats = WireStats()
    f = AdaptiveFlusher(writer=None, stats=stats)
    assert f.frame_budget == FLUSH_FRAMES
    f.note_backlog(FAT_BACKLOG + 1)
    assert f.frame_budget == FAT_FLUSH_FRAMES > FLUSH_FRAMES
    # backlog between the thresholds: budget must stick (hysteresis)
    assert RESTORE_BACKLOG + 1 < FAT_BACKLOG
    f.note_backlog(RESTORE_BACKLOG + 1)
    assert f.frame_budget == FAT_FLUSH_FRAMES
    f.note_backlog(RESTORE_BACKLOG)
    assert f.frame_budget == FLUSH_FRAMES
    assert stats.flusher_adaptations == 2
