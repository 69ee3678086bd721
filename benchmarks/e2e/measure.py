"""One run of one workload: set-up, paced phase, bursts, reference check.

:func:`measure` is the untraced run every end-to-end metric comes from;
:func:`measure_traced` is the traced run behind the per-layer metrics.
Both return plain dictionaries; :mod:`run` prints them.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from estimators import median, percentile, windowed_percentile
from loadgen import Cluster, PacedResult, Session
from refcheck import Verdict, check_deliveries, check_requests, check_server
from tracer import ENTRY_POINTS
from workloads import Inputs, Plan, Workload, build_inputs

__all__ = ["measure", "measure_traced", "TRACE_DIR"]

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Where the traced run leaves its span files (ignored by git).
TRACE_DIR = os.path.join(_ROOT, "results", "e2e")

#: Complete set-ups per run; the median is ``setup_s``.
SETUPS = 3
#: Bursts per run (the traced run does two).
BURSTS = 5
#: Above this the generator, not the server, shaped the latencies.
DISTURBED_LATE_P99_MS = 5.0
#: Samples per window of the windowed tail diagnostics.
TAIL_WINDOW = 1000
#: Host speed index (spinner.py units per CPU-second on the server's
#: CPU) of the re-anchor host on a calm day.  Compute-bound numbers are
#: stated at this speed; on another host they all scale together.
REFERENCE_SPEED = 6000.0
#: How long the cluster is left idle for one quiet reading of the meter.
_QUIET_S = 0.2
#: A reading over less meter CPU time than this is not a reading.
_MIN_METER_NS = 20_000_000


class _HostSpeed:
    """Speed of the server's CPU as a share of :data:`REFERENCE_SPEED`
    (1.0 throughout when there is no meter).

    Two kinds of reading.  :meth:`start` … :meth:`stop` brackets a phase
    in which the server has idle time (the paced phase): the meter runs
    in the gaps, so the reading averages the host's second-to-second
    swings over the whole phase.  :meth:`quiet` is for work that leaves
    the meter no time (set-up, bursts): the cluster is left idle for a
    moment just after it and the meter has the CPU to itself.
    """

    def __init__(self, meter: Any):
        self._meter = meter
        self._last = (0, 0)

    def start(self) -> None:
        if self._meter is not None:
            self._last = self._meter.read()

    def stop(self) -> float:
        if self._meter is None:
            return 1.0
        units, cpu_ns = self._meter.read()
        if cpu_ns - self._last[1] < _MIN_METER_NS:
            # a saturated server left the meter nothing: widen the
            # interval by one quiet moment rather than divide by noise
            time.sleep(_QUIET_S)
            units, cpu_ns = self._meter.read()
        return (units - self._last[0]) / ((cpu_ns - self._last[1]) / 1e9) / REFERENCE_SPEED

    def quiet(self) -> float:
        if self._meter is None:
            return 1.0
        self.start()
        time.sleep(_QUIET_S)
        return self.stop()


def _launch(
    inputs: Inputs, host: Dict[str, Any], host_speed: _HostSpeed,
    trace_path: Optional[str] = None,
) -> Tuple[Cluster, Session, Dict[str, float]]:
    """One complete set-up: spawn, connect, register, preload, warm up,
    quiesce.  Returns (cluster, session, timings); the timings are
    stated at the reference host speed, read in the quiet moment after."""
    cluster = Cluster(inputs.workload.name, host["server_cpu"], trace_path)
    try:
        session = Session(inputs, cluster)
        try:
            timings = session.setup()
            timings["launch_s"] = cluster.ready_at - cluster.spawned_at
            timings["setup_s"] = time.perf_counter() - cluster.spawned_at
            speed = host_speed.quiet()
        except BaseException:
            session.close()
            raise
    except BaseException:
        cluster.stop()
        raise
    return cluster, session, {name: took * speed for name, took in timings.items()}


def _finish(cluster: Cluster, session: Session, graceful: bool = False) -> None:
    session.close()
    cluster.stop(graceful=graceful)


def _verdict(inputs: Inputs, session: Session, paced: PacedResult,
             state: Dict[str, Any], digests: Sequence[str]) -> Verdict:
    """Reference check over everything this session sent."""
    sent = session.events_sent
    verdict = Verdict()
    check_deliveries(
        verdict, inputs.expected[:sent], session.received[:sent],
        session.unknown_deliveries, paced.late_updates,
    )
    check_requests(
        verdict, session.answers, session.unknown_responses, paced.late_responses
    )
    check_server(
        verdict, state["received"], state["mirrored"], sent,
        inputs.mirrored_before[sent], digests,
        replicas_must_agree=not inputs.workload.selective,
    )
    return verdict


def _paced_metrics(paced: PacedResult, speed: float) -> Dict[str, float]:
    """The paced phase's end-to-end numbers.  Update latency is mostly
    the flusher's deadline and is reported as measured; request latency
    and CPU are compute and are stated at the reference host speed."""
    updates = [s * 1e3 for s in paced.update_latencies]
    requests = [s * 1e3 for s in paced.request_latencies]
    return {
        "update_p50_ms": percentile(updates, 50),
        "update_p90_ms": percentile(updates, 90),
        "request_p50_ms": percentile(requests, 50) * speed,
        "request_p90_ms": percentile(requests, 90) * speed,
        "server_cpu_pct": 100.0 * median(paced.server_cpu_windows) * speed,
    }


def _diagnostics(paced: PacedResult) -> Dict[str, float]:
    late = [s * 1e3 for s in paced.lateness]
    return {
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.late_max_ms": max(late),
        "loadgen.cpu_pct": 100.0 * paced.loadgen_cpu,
        "e2e.update_p99w_ms": windowed_percentile(
            [s * 1e3 for s in paced.update_latencies], 99, TAIL_WINDOW),
        "e2e.request_p99w_ms": windowed_percentile(
            [s * 1e3 for s in paced.request_latencies], 99, TAIL_WINDOW),
    }


def _plan(seconds: float, bursts: int, smoke: bool) -> Plan:
    if smoke:
        return Plan(paced_seconds=seconds, n_bursts=min(bursts, 2),
                    burst_events=2_000, warmup_events=500)
    return Plan(paced_seconds=seconds, n_bursts=bursts)


def measure(workload: Workload, seed: int, seconds: float, host: Dict[str, Any],
            smoke: bool = False) -> Dict[str, Any]:
    """The untraced run: every end-to-end metric of one workload."""
    inputs = build_inputs(workload, seed, _plan(seconds, BURSTS, smoke))
    host_speed = _HostSpeed(host["meter"])
    setups: List[float] = []
    for attempt in range(SETUPS):
        cluster, session, timings = _launch(inputs, host, host_speed)
        setups.append(timings["setup_s"])
        if attempt < SETUPS - 1:
            _finish(cluster, session)  # torn down at once; the last one is measured on
    notes: List[str] = []
    try:
        host_speed.start()
        paced = session.paced()
        speeds = {"paced": host_speed.stop()}
        state = session.settle(inputs.paced_end)
        # each burst is stated at the mean of the quiet readings on
        # either side of it
        quiet = [host_speed.quiet()]
        burst_seconds = []
        for index in range(len(inputs.burst_blobs)):
            took, _drain, state = session.burst(index)
            quiet.append(host_speed.quiet())
            burst_seconds.append(took * (quiet[-2] + quiet[-1]) / 2.0)
        speeds["burst"] = median(quiet)
        _rss, high_water = cluster.memory_mib()
        digests = cluster.ask("digests")["digests"]
        verdict = _verdict(inputs, session, paced, state, digests)
        lanes = cluster.ready["lanes"]
    finally:
        _finish(cluster, session)

    diagnostics = _diagnostics(paced)
    if diagnostics["loadgen.late_p99_ms"] > DISTURBED_LATE_P99_MS:
        # the schedule slipped: those latencies measure this process.
        # Run the paced phase once more on a fresh cluster and keep it.
        notes.append(
            f"disturbed: generator ran {diagnostics['loadgen.late_p99_ms']:.1f} ms "
            "late at p99; paced phase re-run once on a fresh cluster"
        )
        retry = build_inputs(workload, seed, _plan(seconds, 0, smoke))
        cluster, session, _timings = _launch(retry, host, host_speed)
        try:
            host_speed.start()
            paced = session.paced()
            speeds["paced"] = host_speed.stop()
            state = session.settle(retry.paced_end)
            verdict.merge(_verdict(
                retry, session, paced, state, cluster.ask("digests")["digests"]
            ))
        finally:
            _finish(cluster, session)
        diagnostics = _diagnostics(paced)

    metrics = _paced_metrics(paced, speeds["paced"])
    # events over time across all bursts, not a median of bursts: a
    # burst runs at half speed while the server collects garbage, how
    # many collections fall inside one burst is chance, how many fall
    # inside all of them is not
    metrics["burst_events_per_s"] = (
        inputs.plan.burst_events * len(burst_seconds) / sum(burst_seconds)
    )
    diagnostics["host.speed_paced"] = speeds["paced"]
    diagnostics["host.speed_burst"] = speeds["burst"]
    metrics["server_rss_mb"] = high_water
    metrics["setup_s"] = median(setups)
    return {
        "workload": workload.name, "seed": seed, "metrics": metrics,
        "diagnostics": diagnostics, "verdict": verdict, "notes": notes,
        "samples": {
            "updates": len(paced.update_latencies),
            "requests": len(paced.request_latencies),
            "bursts": len(burst_seconds), "cpu_windows": len(paced.server_cpu_windows),
            "setups": len(setups),
        },
        "host": dict(host, server_lanes=lanes),
    }


def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    for key in path:
        after, before = after[key], before[key]
    return float(after - before)


def measure_traced(workload: Workload, seed: int, seconds: float, host: Dict[str, Any],
                   smoke: bool = False) -> Dict[str, Any]:
    """The traced run: every per-layer metric of one workload.

    A short untraced paced phase first gives the server CPU the traced
    one is compared with (``trace.overhead_pct``) and the tail
    diagnostics; then a traced cluster runs a paced phase and two
    bursts.  Layer times are the paced phase's: the tracer's totals
    when it ended minus its totals when set-up ended, stated like every
    other compute time at the reference host speed.
    """
    host_speed = _HostSpeed(host["meter"])
    reference = build_inputs(workload, seed, _plan(seconds / 3.0, 0, smoke))
    cluster, session, _timings = _launch(reference, host, host_speed)
    try:
        host_speed.start()
        untraced = session.paced()
        untraced_speed = host_speed.stop()
        state = session.settle(reference.paced_end)
        verdict = _verdict(
            reference, session, untraced, state, cluster.ask("digests")["digests"]
        )
    finally:
        _finish(cluster, session)

    inputs = build_inputs(workload, seed, _plan(seconds / 2.0, 2, smoke))
    trace_path = os.path.join(TRACE_DIR, f"trace-{workload.name}.jsonl")
    cluster, session, timings = _launch(inputs, host, host_speed, trace_path)
    try:
        before = cluster.ask("mark")
        host_speed.start()
        paced = session.paced()
        speed = host_speed.stop()
        after = session.settle(inputs.paced_end)
        rss_paced, _ = cluster.memory_mib()
        drains = []
        for index in range(len(inputs.burst_blobs)):
            _took, drain, _state = session.burst(index)
            drains.append(drain)
        _rss, high_water = cluster.memory_mib()
        final = cluster.ask("final")
        verdict.merge(_verdict(
            inputs, session, paced, final, cluster.ask("digests")["digests"]
        ))
    finally:
        _finish(cluster, session, graceful=True)

    events = float(paced.events_sent)
    requests = float(paced.requests_sent)

    def traced(name: str, column: str) -> float:
        """Paced-phase calls or self nanoseconds of a layer or span."""
        zero = {"calls": 0, "self_ns": 0}
        return float(
            after["trace"].get(name, zero)[column] - before["trace"].get(name, zero)[column]
        )

    def self_us(layer: str, per: float) -> float:
        return traced(layer, "self_ns") / 1e3 / per * speed if per else 0.0

    traced_self_us = sum(self_us(layer, events) for layer in ENTRY_POINTS)
    cpu_untraced = median(untraced.server_cpu_windows) * untraced_speed
    cpu_traced = median(paced.server_cpu_windows) * speed
    rounds = _delta(after, before, "rounds_started")
    flushes = _delta(after, before, "wire", "flushes")
    shared = float(final["frames_shared"])
    saved = float(final["shared_encodes_saved"])
    sub_frames = float(final["wire"]["sub_frames_sent"])
    registered = float(len(inputs.predicates))
    applied = sum(after["processed"]) - sum(before["processed"])
    wire_encode_calls = (
        traced("WireEncoder.encode_event", "calls") + traced("WireEncoder.encode_batch", "calls")
    )

    metrics: Dict[str, float] = {
        "rt.loop.other_us_per_event":
            cpu_untraced * 1e6 / workload.event_rate - traced_self_us,
        "rt.flush.self_us_per_event": self_us("rt.flush", events),
        "rt.flush.calls_per_kevent": traced("rt.flush", "calls") / events * 1e3,
        "rt.flush.deadline_ratio":
            _delta(after, before, "wire", "deadline_flushes") / flushes if flushes else 0.0,
        "rt.fanout.self_us_per_event": self_us("rt.fanout", events),
        "rt.channel.high_watermark": float(final["channel_high_watermark"]),
        "rt.channel.blocked_puts": float(final["channel_blocked_puts"]),
        "rt.rss_paced_mb": rss_paced,
        "rt.rss_burst_growth_mb": high_water - rss_paced,
        "rt.burst_drain_s": median(drains),
        "rt.launch_s": timings["launch_s"],
        "wire.encode.self_us_per_event": self_us("wire.encode", events),
        "wire.encode.calls_per_event": wire_encode_calls / events,
        "wire.decode.self_us_per_event": self_us("wire.decode", events),
        "wire.split.self_us_per_event": self_us("wire.split", events),
        "wire.bytes_per_event": _delta(after, before, "wire", "bytes_sent") / events,
        "wire.shared_hit_ratio": saved / (shared + saved) if shared else 0.0,
        "core.stamp.self_us_per_event": self_us("core.stamp", events),
        "core.rules.self_us_per_event": self_us("core.rules", events),
        "core.rules.pass_ratio":
            _delta(after, before, "mirrored") / _delta(after, before, "received"),
        "core.checkpoint.rounds_per_kevent": rounds / events * 1e3,
        "core.checkpoint.self_us_per_round": self_us("core.checkpoint", rounds),
        "core.backup.max_len": float(final["backup_peak"]),
        "ois.apply.self_us_per_event": self_us("ois.apply", events),
        "ois.apply.calls_per_event": applied / events,
        "ois.snapshot.self_us_per_request": self_us("ois.snapshot", requests),
        "ois.snapshot.build_ratio": _delta(after, before, "snapshot_builds") / requests,
        "ois.delta.served_ratio": _delta(after, before, "delta_served") / requests,
        "ois.preload_s": timings["preload_s"],
        "sub.match.self_us_per_event": self_us("sub.match", events),
        "sub.deliveries_per_event":
            _delta(after, before, "wire", "sub_events_delivered") / events,
        "sub.encode_saved_ratio":
            final["wire"]["sub_encodes_saved"] / sub_frames if sub_frames else 0.0,
        "sub.register.us_per_subscription": timings["register_s"] * 1e6 / registered,
        "sub.register_s": timings["register_s"],
        "host.speed_index": speed,
        "trace.overhead_pct": 100.0 * (cpu_traced - cpu_untraced) / cpu_untraced,
    }
    diagnostics = _diagnostics(untraced)
    traced_diagnostics = _diagnostics(paced)
    for name in ("loadgen.late_p99_ms", "loadgen.late_max_ms", "loadgen.cpu_pct"):
        diagnostics[name] = max(diagnostics[name], traced_diagnostics[name])
    metrics.update(diagnostics)
    return {
        "workload": workload.name, "seed": seed, "metrics": metrics,
        "verdict": verdict, "notes": [f"spans written to {os.path.relpath(trace_path, _ROOT)}"],
        "samples": {"events": int(events), "requests": int(requests)},
        "host": dict(host, server_lanes=cluster.ready["lanes"]),
    }
