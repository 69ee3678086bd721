"""Tests for the TCP socket backend (`repro.rt.net`).

Every byte of the round trips crosses a real loopback socket: mirror
traffic travels as binary wire frames through each connection's cork.
"""

import asyncio
import signal
import socket
from dataclasses import replace

import pytest

from repro.core import simple_mirroring
from repro.core.checkpoint import ChkptMsg
from repro.core.events import VectorTimestamp
from repro.faults.link import LinkFaultController, LinkVerdict
from repro.faults.plan import FaultPlan
from repro.ois import FlightDataConfig, generate_script
from repro.ois.ede import EventDerivationEngine
from repro.rt.net import (
    FLUSH_BYTES,
    AdaptiveFlusher,
    NetCentral,
    NetProcessRunner,
    WireStats,
    _MirrorConnection,
    _preassign_ports,
    run_net_scenario,
)
from repro.rt.shards import ShardProcessRunner
from repro.wire import FrameSplitter, WireDecoder


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
    """Final replica state is transport-independent: every replica a
    TCP run leaves equals the script applied offline, in memory, to a
    fresh engine."""
    sc = script(positions_per_flight=40)
    offline = EventDerivationEngine()
    for se in sc.fresh_events():
        offline.process(se.event)
    net = run(run_net_scenario(sc, n_mirrors=2))
    assert net.replica_digests == [offline.state_digest()] * 3
    assert net.events_processed_central == offline.processed == len(sc)


def test_net_serves_client_requests():
    summary = run(
        run_net_scenario(
            script(),
            n_mirrors=1,
            config=batched(),
            n_requests=3,
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
            run_net_scenario(script(), n_mirrors=0, n_requests=2),
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


# ------------------------------------------------------ fault-path cork
class RecordingWriter:
    """A ``StreamWriter`` stand-in that keeps every byte written."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0
        self.transport = self

    def get_write_buffer_limits(self):
        return 16 * 1024, 64 * 1024

    def get_write_buffer_size(self):
        return 0

    def is_closing(self):
        return False

    def writelines(self, chunks):
        self.writes += 1
        for chunk in chunks:
            self.data += chunk

    def decoded(self):
        decoder = WireDecoder()
        return [decoder.decode_body(mtype, body)
                for mtype, body in FrameSplitter().feed(bytes(self.data))]


class DelayThenDuplicate:
    """Delays the ``k``-th message to ``slow`` and duplicates every
    control message to ``dup``."""

    def __init__(self, k, delay, slow="mirror1", dup="mirror2"):
        self.k, self.delay, self.slow, self.dup = k, delay, slow, dup
        self.seen = 0

    def on_send(self, message, src, dst, now):
        if dst == self.slow:
            self.seen += 1
            if self.seen == self.k:
                return LinkVerdict(delay=self.delay)
        elif dst == self.dup and message.kind == "control":
            return LinkVerdict(duplicates=1)
        return None


def test_delay_holds_later_frames_in_order_on_that_connection_only():
    events = [se.event for se in script(n_flights=2, positions_per_flight=3)
              .fresh_events()]
    chkpt = ChkptMsg.from_wire(1, VectorTimestamp())

    async def scenario():
        central = NetCentral(2, fault_controller=DelayThenDuplicate(3, 0.02))
        slow, fast = RecordingWriter(), RecordingWriter()
        for name, writer in (("mirror1", slow), ("mirror2", fast)):
            central._attach(_MirrorConnection(name, writer, central.stats))
        for event in events:
            central.send("data", event)
        assert central.drain() is None  # no transport is backed up
        central.send("control", chkpt)
        held = slow.decoded()
        await asyncio.sleep(0.05)
        return held, slow, fast, central.stats

    held, slow, fast, stats = run(scenario())
    assert held == events[:2]  # frame 3 and everything behind it wait
    assert slow.decoded() == events + [chkpt]
    assert slow.writes == 2  # what preceded the delay, then the release
    # the other mirror's frames left at once, its control frame twice,
    # each copy decodable because each was encoded on its own table
    assert fast.decoded() == events + [chkpt, chkpt]
    assert stats.frames_duplicated == 1
    assert stats.frames_sent == 2 * len(events) + 3


def test_delayed_and_duplicated_frames_still_converge():
    summary = run(
        run_net_scenario(
            script(n_flights=2, positions_per_flight=20),
            n_mirrors=2,
            config=batched(),
            fault_controller=DelayThenDuplicate(3, 0.005),
        )
    )
    assert summary.wire.frames_duplicated > 0
    assert summary.wire.frames_dropped == 0
    assert summary.replicas_consistent


# ------------------------------------------------------------------ cork
def test_flusher_size_trigger():
    """A cork that reaches the byte budget is written out mid-run."""
    writer = RecordingWriter()
    f = AdaptiveFlusher(writer, WireStats())
    f.add(b"x" * (FLUSH_BYTES - 1))
    assert writer.writes == 0 and f.qsize() == 1
    f.add(b"x")  # the budget: out at once, without waiting for the run
    assert writer.writes == 1 and f.qsize() == 0
    assert len(writer.data) == FLUSH_BYTES


# ------------------------------------------------------------ OS processes
def test_process_runner_serves_a_consistent_cluster():
    """Central in this process, two mirrors and the client in spawned
    ones: the only shape in which the site cores talk across processes
    (the sizes of the CLI smoke)."""
    sc = generate_script(
        FlightDataConfig(n_flights=6, positions_per_flight=30, seed=7)
    )
    result = NetProcessRunner(n_mirrors=2, n_requests=4, script=sc).run()
    assert result["replicas_consistent"]
    assert result["client"]["responses"] == result["client"]["requests"] == 4
    assert [m["events_applied"] for m in result["mirrors"]] == [len(sc)] * 2
    assert result["checkpoint_commits"] > 0


def within(seconds, call):
    """``call()``, cut short by a TimeoutError after ``seconds``: a run
    that hangs fails instead."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("make, child", [
    (lambda sc: NetProcessRunner(n_mirrors=2, script=sc), "mirror1"),
    (lambda sc: ShardProcessRunner(n_shards=2, script=sc), "shard0"),
], ids=["processes", "shards"])
def test_a_dead_child_fails_the_run(monkeypatch, make, child):
    """The first pre-assigned port is taken, so the child that binds it
    exits with code 1: the run fails at once and names that child,
    instead of waiting for a peer that will never connect."""
    held = socket.socket()  # bound, not listening: the child's bind fails
    held.bind(("127.0.0.1", 0))

    def planted(host, count):
        return [held.getsockname()[1]] + _preassign_ports(host, count - 1)

    monkeypatch.setattr("repro.rt.net._preassign_ports", planted)
    monkeypatch.setattr("repro.rt.shards._preassign_ports", planted)
    sc = generate_script(FlightDataConfig(n_flights=4, positions_per_flight=10, seed=7))
    try:
        with pytest.raises(ChildProcessError, match=f"'{child}' exited with code 1"):
            within(20, make(sc).run)
    finally:
        held.close()
