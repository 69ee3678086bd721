"""Microbenchmark suite + runner for the substrate hot paths.

This is the op/s counterpart of ``benchmarks/test_microbenchmarks.py``:
the same five hot paths — kernel event scheduling, store handoff, rule
engine evaluation, checkpoint rounds, end-to-end scenario — timed with
a plain best-of-N ``perf_counter`` harness (no pytest-benchmark
dependency) and written to a ``BENCH_*.json`` record so the performance
trajectory of the reproduction is tracked across PRs.

Run it as::

    python -m repro bench                      # full suite -> BENCH.json
    python -m repro bench --out benchmarks/BENCH_PR1.json --label PR1
    python -m repro bench --quick              # tiny op counts (smoke)
    python -m repro bench --compare OLD.json NEW.json [--max-regress 25]
    python -m repro bench --history            # benchmarks/BENCH_PR*.json trajectory
    python benchmarks/run_bench.py             # same entry point

Numbers are host-dependent: compare records produced on the same
machine (the ``machine`` block is stored for exactly this reason).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BENCHMARKS",
    "run_suite",
    "main",
    "load_record",
    "compare_records",
    "compare_main",
    "history_main",
]


# --------------------------------------------------------------- benchmarks
#
# Each benchmark is a factory taking a ``scale`` float and returning
# (ops, run) where ``run()`` performs ``ops`` operations.  Scaling keeps
# the CLI smoke test fast while the default matches the pytest suite.


def _bench_kernel_timeouts(scale: float) -> Tuple[int, Callable[[], None]]:
    from .sim import Environment

    n = max(1, int(20_000 * scale))

    def run():
        env = Environment()

        def proc():
            for _ in range(n):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        assert env.now == n

    return n, run


def _bench_store_put_get(scale: float) -> Tuple[int, Callable[[], None]]:
    from .sim import Environment, Store

    n = max(1, int(10_000 * scale))

    def run():
        env = Environment()
        store = Store(env, capacity=64)
        got = []

        def producer():
            for i in range(n):
                yield store.put(i)

        def consumer():
            for _ in range(n):
                got.append((yield store.get()))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert len(got) == n

    return n, run


def _bench_rule_engine(scale: float) -> Tuple[int, Callable[[], None]]:
    from .core.events import FAA_POSITION, UpdateEvent
    from .core.rules import CoalesceRule, OverwriteRule, RuleEngine

    n = max(1, int(10_000 * scale))

    def run():
        engine = RuleEngine([OverwriteRule(FAA_POSITION, 10), CoalesceRule(5)])
        passed = 0
        for i in range(n):
            ev = UpdateEvent(
                kind=FAA_POSITION, stream="faa", seqno=i + 1,
                key=f"DL{i % 20}", payload={"lat": float(i)},
            )
            for out in engine.on_receive(ev):
                passed += len(engine.on_send(out))
        assert passed >= 0

    return n, run


def _bench_checkpoint_rounds(scale: float) -> Tuple[int, Callable[[], None]]:
    from .core.checkpoint import CheckpointCoordinator, ChkptRepMsg
    from .core.events import VectorTimestamp

    n = max(1, int(2_000 * scale))

    def run():
        sites = ["central", "m1", "m2", "m3"]
        coord = CheckpointCoordinator(set(sites))
        commits = 0
        for i in range(1, n + 1):
            msg = coord.initiate(VectorTimestamp({"faa": i * 10}))
            for site in sites:
                out = coord.on_reply(
                    # microbenchmark drives the coordinator with synthetic
                    # votes; not a protocol participant
                    ChkptRepMsg(msg.round_id, site, VectorTimestamp({"faa": i * 10 - 1}))  # lint: allow-checkpoint-ctor
                )
            commits += out is not None
        assert commits == n

    return n, run


def _bench_scenario_end_to_end(scale: float) -> Tuple[int, Callable[[], None]]:
    from .core import ScenarioConfig, run_scenario, selective_mirroring
    from .ois import FlightDataConfig

    positions = max(10, int(120 * scale))
    wl = FlightDataConfig(n_flights=5, positions_per_flight=positions, seed=3)

    def run():
        metrics = run_scenario(
            ScenarioConfig(
                n_mirrors=1,
                mirror_config=selective_mirroring(10),
                workload=wl,
            )
        ).metrics
        assert metrics.events_processed_central > 0

    # ops = events through the central site, so op/s is comparable across
    # scales (approximate: positions*flights + per-flight status events)
    return positions * 5, run


def _snapshot_store(n_flights: int):
    """A populated store for the snapshot benches (1k-flight default)."""
    from .ois.state import OperationalStateStore

    store = OperationalStateStore()
    for i in range(n_flights):
        f = store.flight(f"DL{i:04d}")
        f.position = {"lat": float(i), "lon": -float(i)}
        store.touch(f.flight_id)
    return store


def _bench_snapshot_full(scale: float) -> Tuple[int, Callable[[], None]]:
    """Uncached baseline: force a full snapshot rebuild every request."""
    n = max(1, int(200 * scale))
    store = _snapshot_store(1000)

    def run():
        for i in range(n):
            snap = store.rebuild_snapshot(float(i))
            assert snap.flight_count == 1000

    return n, run


def _bench_snapshot_cached(scale: float) -> Tuple[int, Callable[[], None]]:
    """Fast path: repeated serving hits the generation-cached view."""
    n = max(1, int(20_000 * scale))
    store = _snapshot_store(1000)
    store.snapshot(0.0)  # prime the cache

    def run():
        for i in range(n):
            snap = store.snapshot(float(i))
            assert snap.flight_count == 1000

    return n, run


def _bench_snapshot_after_write(scale: float) -> Tuple[int, Callable[[], None]]:
    """The miss a live mirror pays: one event applied, then the full
    view (5k flights, as the end-to-end ``request_storm`` workload)."""
    from .core.events import FAA_POSITION, UpdateEvent

    n = max(1, int(10_000 * scale))
    store = _snapshot_store(5000)
    store.snapshot(0.0)
    events = [
        UpdateEvent(
            kind=FAA_POSITION, stream="faa", seqno=i + 1,
            key=f"DL{i * 37 % 5000:04d}",
            payload={"lat": float(i), "lon": 1.0, "alt": 3.0},
        )
        for i in range(n)
    ]

    def run():
        builds = store.snapshot_builds
        for i, event in enumerate(events):
            store.apply(event)
            snap = store.snapshot(float(i))
            assert snap.flight_count == 5000
        assert store.snapshot_builds == builds + n

    return n, run


def _bench_snapshot_delta(scale: float):
    """Delta serving for a client 1% behind a 1k-flight store."""
    from .core.events import FAA_POSITION, UpdateEvent

    n = max(1, int(5_000 * scale))
    store = _snapshot_store(1000)
    base = store.snapshot(0.0)
    for i in range(10):  # 1% of flights change past the client's view
        store.apply(
            UpdateEvent(
                kind=FAA_POSITION, stream="faa", seqno=i + 1,
                key=f"DL{i:04d}", payload={"lat": 9.9, "lon": 1.0},
            )
        )
    full = store.snapshot(0.0)
    delta = store.delta_snapshot(0.0, since_generation=base.generation)
    assert delta.is_delta

    def run():
        for i in range(n):
            view = store.delta_snapshot(float(i), since_generation=base.generation)
            assert view.is_delta and view.flight_count == 10

    info = {
        "full_bytes": full.size,
        "delta_bytes": delta.size,
        "bytes_ratio": full.size / delta.size,
    }
    return n, run, info


def _wire_events(n: int):
    """A realistic FAA/Delta event stream for the codec benches."""
    from .ois.flightdata import FlightDataConfig, generate_script

    script = generate_script(
        FlightDataConfig(
            n_flights=20, positions_per_flight=max(1, n // 20), seed=7
        )
    )
    return [se.event for se in script.fresh_events()]


def _bench_wire_roundtrip(scale: float) -> Tuple[int, Callable[[], None], dict]:
    """Codec hot loop: encode 32-event batches, decode them back.

    When the accelerated lane is loaded, the recorded info also carries
    ``accel_speedup_vs_pure``: the same loop timed with ``accel.impl``
    nulled (pure-Python lane) over the accelerated time — the fact
    backing the PR's >= 5x codec-lane claim.
    """
    from .wire import WireDecoder, WireEncoder
    from .wire import accel as _accel_mod

    events = _wire_events(max(64, int(10_000 * scale)))
    n = len(events)

    def run():
        enc, dec = WireEncoder(), WireDecoder()
        decoded = 0
        for i in range(0, n, 32):
            frame = enc.encode_batch(events[i:i + 32])
            batch, _ = dec.decode_frame(frame)
            decoded += len(batch.events)
        assert decoded == n

    info: dict = {"accel_lane": _accel_mod.AVAILABLE}
    if _accel_mod.AVAILABLE:
        saved = _accel_mod.impl
        _accel_mod.impl = None
        try:
            run()  # pure-lane warmup
            pure_best = min(_time_once(run) for _ in range(3))
        finally:
            _accel_mod.impl = saved
        run()  # accel-lane warmup
        accel_best = min(_time_once(run) for _ in range(3))
        info["pure_python_ops_per_sec"] = n / pure_best
        info["accel_speedup_vs_pure"] = pure_best / accel_best

    return n, run, info


def _bench_wire_vs_json(scale: float):
    """Wire-format compactness: encoded bytes per event vs JSON/pickle.

    The recorded ``json_ratio``/``pickle_ratio`` facts back the PR's
    compactness claim (>= 5x fewer bytes per mirrored position update at
    batch >= 32); the timed loop is the wire encoder alone.
    """
    import json as _json
    import pickle  # noqa: S403 - baseline comparison only, never on the wire

    from .wire import WireEncoder

    events = _wire_events(max(64, int(5_000 * scale)))
    n = len(events)

    def run():
        enc = WireEncoder()
        total = 0
        for i in range(0, n, 32):
            total += len(enc.encode_batch(events[i:i + 32]))
        assert total > 0

    def _json_blob(ev) -> bytes:
        return _json.dumps(
            {
                "kind": ev.kind, "stream": ev.stream, "seqno": ev.seqno,
                "key": ev.key, "payload": ev.payload, "size": ev.size,
                "vt": ev.vt.as_dict() if ev.vt is not None else None,
                "entered_at": ev.entered_at,
                "coalesced_from": ev.coalesced_from, "uid": ev.uid,
            },
            separators=(",", ":"),
        ).encode("utf-8")

    enc = WireEncoder()
    wire_bytes = sum(
        len(enc.encode_batch(events[i:i + 32])) for i in range(0, n, 32)
    )
    json_bytes = sum(len(_json_blob(ev)) for ev in events)
    pickle_bytes = sum(len(pickle.dumps(ev)) for ev in events)
    info = {
        "wire_bytes_per_event": wire_bytes / n,
        "json_bytes_per_event": json_bytes / n,
        "pickle_bytes_per_event": pickle_bytes / n,
        "json_ratio": json_bytes / wire_bytes,
        "pickle_ratio": pickle_bytes / wire_bytes,
    }
    return n, run, info


def _bench_socket_fanout(scale: float):
    """Live TCP backend: mirror fan-out events/s over localhost sockets.

    ``ops`` is events x mirrors, so ``ops_per_sec`` is the fan-out rate
    the acceptance bar (>= 50k events/s) is stated in.  Single event
    loop, every byte through real sockets.
    """
    import asyncio
    from dataclasses import replace

    from .core.functions import simple_mirroring
    from .ois.flightdata import FlightDataConfig, generate_script
    from .rt.net import run_net_scenario

    mirrors = 4
    script = generate_script(
        FlightDataConfig(
            n_flights=20,
            positions_per_flight=max(5, int(300 * scale)),
            seed=5,
        )
    )
    config = replace(simple_mirroring(), batch_size=64, checkpoint_freq=500)

    def run():
        summary = asyncio.run(
            run_net_scenario(
                script=script, n_mirrors=mirrors, config=config,
            )
        )
        assert summary.replicas_consistent

    info = {"mirrors": mirrors, "events": len(script)}
    return len(script) * mirrors, run, info


def _bench_shard_fanout(scale: float):
    """Sharded cluster: ingress-router events/s across 4 shard centrals.

    ``ops`` is events routed cluster-wide, so ``ops_per_sec`` is the
    aggregate ingest rate the sharding tentpole is measured by.  Single
    event loop (the deterministic bench shape); every byte over loopback
    TCP, cross-shard handoffs included in the stream.
    """
    import asyncio
    from dataclasses import replace

    from .core.functions import simple_mirroring
    from .ois.flightdata import FlightDataConfig, generate_script
    from .rt.shards import run_sharded_scenario

    shards = 4
    script = generate_script(
        FlightDataConfig(
            n_flights=20,
            positions_per_flight=max(5, int(300 * scale)),
            seed=5,
            handoffs=8,
        )
    )
    config = replace(simple_mirroring(), batch_size=64, checkpoint_freq=500)

    def run():
        summary = asyncio.run(
            run_sharded_scenario(
                script=script, n_shards=shards, n_mirrors=1,
                config=config, router_batch=64,
            )
        )
        assert summary.replicas_consistent
        assert summary.transfers_started == summary.transfers_completed

    info = {"shards": shards, "events": len(script)}
    return len(script), run, info


def _bench_sub_match(scale: float):
    """Content-based matching: events/s against a 1M-client index.

    Population shape is the paper's "millions of clients" story under
    low selectivity: each client subscribes to exactly one flight out of
    a large pool (20 subscribers per flight), so the indexed engine's
    per-event work is one hash probe plus the matched handful — never a
    population scan.  ``ops`` is events matched, so ``ops_per_sec`` is
    the rate the acceptance bar (>= 100k ev/s at full scale) is stated
    in; ``matches_per_event`` is recorded so the delivered stream is
    visible next to the rate.
    """
    from .core.events import FAA_POSITION, UpdateEvent
    from .sub.engine import MatchEngine
    from .sub.predicate import ByFlight

    per_flight = 20
    n_flights = max(5, int(50_000 * scale))
    n_subs = n_flights * per_flight
    flights = [f"DL{i:05d}" for i in range(n_flights)]
    engine = MatchEngine()
    for i in range(n_subs):
        engine.add(i, ByFlight(flights[i % n_flights]))
    n_events = max(64, int(20_000 * scale))
    events = [
        UpdateEvent(
            kind=FAA_POSITION, stream="faa", seqno=i + 1,
            key=flights[(i * 7) % n_flights], payload={"lat": float(i)},
        )
        for i in range(n_events)
    ]

    def run():
        matched = 0
        for event in events:
            matched += len(engine.match(event))
        assert matched == n_events * per_flight

    info = {
        "subscriptions": n_subs,
        "flights": n_flights,
        "matches_per_event": per_flight,
    }
    return n_events, run, info


BENCHMARKS: Dict[str, Callable[[float], Tuple[int, Callable[[], None]]]] = {
    "kernel_timeout_throughput": _bench_kernel_timeouts,
    "store_put_get_throughput": _bench_store_put_get,
    "rule_engine_throughput": _bench_rule_engine,
    "checkpoint_round_throughput": _bench_checkpoint_rounds,
    "scenario_end_to_end": _bench_scenario_end_to_end,
    "snapshot_full": _bench_snapshot_full,
    "snapshot_cached": _bench_snapshot_cached,
    "snapshot_after_write": _bench_snapshot_after_write,
    "snapshot_delta": _bench_snapshot_delta,
    "wire_codec_roundtrip": _bench_wire_roundtrip,
    "wire_codec_vs_json": _bench_wire_vs_json,
    "socket_fanout": _bench_socket_fanout,
    "shard_fanout": _bench_shard_fanout,
    "sub_match": _bench_sub_match,
}


# ------------------------------------------------------------------ harness
def _time_once(run: Callable[[], None]) -> float:
    t0 = time.perf_counter()  # lint: allow-wallclock
    run()
    return time.perf_counter() - t0  # lint: allow-wallclock


def run_suite(
    scale: float = 1.0,
    repeats: int = 5,
    only: List[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> Dict[str, Dict[str, float]]:
    """Time every benchmark; returns {name: {ops, best_seconds, ops_per_sec}}.

    Best-of-``repeats`` wall time (plus one untimed warmup) is used, the
    standard way to suppress scheduler noise in throughput microbenches.
    """
    results: Dict[str, Dict[str, float]] = {}
    for name, factory in BENCHMARKS.items():
        if only and name not in only:
            continue
        made = factory(scale)
        # factories return (ops, run) or (ops, run, info) where ``info``
        # carries extra facts worth recording (e.g. delta byte ratios)
        ops, run = made[0], made[1]
        info = made[2] if len(made) > 2 else {}
        run()  # warmup (also validates)
        best = min(_time_once(run) for _ in range(max(1, repeats)))
        results[name] = {
            "ops": ops,
            "best_seconds": best,
            "ops_per_sec": ops / best if best > 0 else float("inf"),
            "repeats": repeats,
            **info,
        }
        if progress is not None:
            progress(
                f"{name:32s} {results[name]['ops_per_sec']:>12,.0f} op/s "
                f"({ops} ops, best of {repeats})"
            )
    return results


# ------------------------------------------------------ record comparison
def load_record(path: str) -> Dict[str, object]:
    """Read one BENCH_*.json record."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare_records(
    old: Dict[str, object], new: Dict[str, object]
) -> List[Dict[str, object]]:
    """Per-benchmark op/s deltas for benchmarks present in both records.

    ``delta_pct`` > 0 is a speedup, < 0 a regression.  Benchmarks that
    exist in only one record are reported with ``delta_pct = None`` so
    new/removed benches never count as regressions.
    """
    rows: List[Dict[str, object]] = []
    old_benches = old.get("benchmarks", {})
    new_benches = new.get("benchmarks", {})
    for name in sorted(set(old_benches) | set(new_benches)):
        o = old_benches.get(name)
        n = new_benches.get(name)
        row: Dict[str, object] = {
            "benchmark": name,
            "old_ops_per_sec": o["ops_per_sec"] if o else None,
            "new_ops_per_sec": n["ops_per_sec"] if n else None,
            "delta_pct": None,
        }
        if o and n and o["ops_per_sec"] > 0:
            row["delta_pct"] = (
                (n["ops_per_sec"] / o["ops_per_sec"] - 1.0) * 100.0
            )
        rows.append(row)
    return rows


def _fmt_ops(value) -> str:
    return f"{value:>14,.0f}" if value is not None else f"{'-':>14}"


def render_compare(
    old: Dict[str, object], new: Dict[str, object],
    rows: List[Dict[str, object]],
) -> str:
    """Human-readable comparison table."""
    lines = [
        f"benchmark comparison: {old.get('label')} -> {new.get('label')}",
        f"{'benchmark':32s} {'old op/s':>14} {'new op/s':>14} {'delta':>9}",
    ]
    for row in rows:
        delta = row["delta_pct"]
        delta_s = f"{delta:+8.1f}%" if delta is not None else f"{'new':>9}" \
            if row["old_ops_per_sec"] is None else f"{'gone':>9}"
        lines.append(
            f"{row['benchmark']:32s} {_fmt_ops(row['old_ops_per_sec'])} "
            f"{_fmt_ops(row['new_ops_per_sec'])} {delta_s}"
        )
    return "\n".join(lines)


def machine_caveat(
    old: Dict[str, object], new: Dict[str, object]
) -> Optional[str]:
    """One-line warning when two records came from different hosts.

    op/s numbers are host-bound (the BENCH_PR7 shard sweep ran on one
    core, where the >=2x multi-shard bar structurally cannot be met), so
    a cross-machine delta is a hardware comparison, not a regression
    signal.  Returns None when the fingerprints match; records predating
    the ``machine`` block compare as unknown hosts.
    """
    old_m = old.get("machine")
    new_m = new.get("machine")
    if old_m is None or new_m is None:
        return (
            "note: at least one record carries no machine fingerprint; "
            "treat deltas as cross-machine (not regression evidence)"
        )
    if old_m != new_m:
        diffs = sorted(
            key
            for key in set(old_m) | set(new_m)  # type: ignore[arg-type]
            if old_m.get(key) != new_m.get(key)  # type: ignore[union-attr]
        )
        return (
            "note: records come from different machines "
            f"({', '.join(diffs)} differ); deltas compare hardware, "
            "not code"
        )
    return None


def compare_main(old_path: str, new_path: str,
                 max_regress: float | None = None) -> int:
    """``--compare`` mode: print the delta table; with ``max_regress``
    set, exit nonzero when any shared benchmark slowed by more than that
    percentage."""
    old, new = load_record(old_path), load_record(new_path)
    rows = compare_records(old, new)
    print(render_compare(old, new, rows))
    caveat = machine_caveat(old, new)
    if caveat:
        print(caveat)
    if max_regress is None:
        return 0
    offenders = [
        row for row in rows
        if row["delta_pct"] is not None and row["delta_pct"] < -max_regress
    ]
    if offenders:
        print(
            f"\nFAIL: {len(offenders)} benchmark(s) regressed more than "
            f"{max_regress:.0f}%: "
            + ", ".join(
                f"{r['benchmark']} ({r['delta_pct']:+.1f}%)" for r in offenders
            )
        )
        return 1
    print(f"\nOK: no benchmark regressed more than {max_regress:.0f}%")
    return 0


def history_main(pattern: str = "benchmarks/BENCH_PR*.json") -> int:
    """``--history`` mode: aggregate the checked-in per-PR records
    (``benchmarks/BENCH_PR*.json``, seen from the repo root) into one
    op/s trajectory table (columns ordered by record creation time)."""
    import glob

    paths = sorted(glob.glob(pattern))
    if not paths:
        print(f"no records matching {pattern!r}")
        return 1
    records = sorted(
        (load_record(p) for p in paths),
        key=lambda r: r.get("created_unix", 0.0),
    )
    labels = [str(r.get("label", "?")) for r in records]
    names = sorted({n for r in records for n in r.get("benchmarks", {})})
    width = max(12, max(len(lab) for lab in labels) + 2)
    header = f"{'benchmark':32s}" + "".join(f"{lab:>{width}}" for lab in labels)
    lines = [f"benchmark trajectory ({len(records)} records, op/s)", header]
    for name in names:
        cells = []
        for record in records:
            bench = record.get("benchmarks", {}).get(name)
            cells.append(
                f"{bench['ops_per_sec']:>{width},.0f}" if bench
                else f"{'-':>{width}}"
            )
        lines.append(f"{name:32s}" + "".join(cells))
    print("\n".join(lines))
    return 0


def profile_main(name: str, scale: float = 1.0, top: int = 20) -> int:
    """``--profile`` mode: run one benchmark under :mod:`cProfile` and
    print the top ``top`` entries by cumulative time, so perf work can
    locate hot spots without ad-hoc scripts."""
    import cProfile
    import pstats

    made = BENCHMARKS[name](scale)
    ops, run = made[0], made[1]
    run()  # warm-up pass: imports and caches settle outside the profile
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    print(f"profile: {name} ({ops} ops, scale {scale:g})")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)
    return 0


def machine_info() -> Dict[str, object]:
    """Host fingerprint stored with every record (numbers are host-bound)."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def main(argv: List[str] | None = None) -> int:
    """CLI entry point for ``python -m repro bench``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the substrate microbenchmarks and write an op/s record.",
    )
    parser.add_argument(
        "--out", metavar="PATH", default="BENCH.json",
        help="where to write the JSON record (default: BENCH.json)",
    )
    parser.add_argument(
        "--label", default=None,
        help="record label, e.g. PR1 (default: derived from --out)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions per benchmark; best is kept (default 5)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="op-count multiplier (default 1.0 = pytest suite sizes)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke mode: --scale 0.02 --repeats 1",
    )
    parser.add_argument(
        "--only", action="append", choices=sorted(BENCHMARKS), default=None,
        help="run a subset (repeatable)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two BENCH_*.json records instead of running",
    )
    parser.add_argument(
        "--max-regress", type=float, default=None, metavar="PCT",
        help="with --compare: exit nonzero when any shared benchmark "
        "slowed by more than PCT percent",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="aggregate benchmarks/BENCH_PR*.json (run from the repo "
        "root) into one op/s trajectory table instead of running",
    )
    parser.add_argument(
        "--profile", metavar="NAME", choices=sorted(BENCHMARKS), default=None,
        help="run one benchmark under cProfile and print the top-20 "
        "cumulative entries instead of timing",
    )
    args = parser.parse_args(argv)
    if args.compare is not None:
        return compare_main(args.compare[0], args.compare[1], args.max_regress)
    if args.history:
        return history_main()
    if args.max_regress is not None:
        parser.error("--max-regress requires --compare")
    scale = 0.02 if args.quick else args.scale
    repeats = 1 if args.quick else args.repeats
    if scale <= 0:
        parser.error("--scale must be positive")
    if repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.profile is not None:
        return profile_main(args.profile, scale)

    results = run_suite(
        scale=scale, repeats=repeats, only=args.only, progress=print
    )
    record = {
        "label": args.label
        or os.path.splitext(os.path.basename(args.out))[0].replace("BENCH_", "")
        or "bench",
        "created_unix": time.time(),  # lint: allow-wallclock
        "scale": scale,
        "machine": machine_info(),
        "benchmarks": results,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"record written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
