"""Self-test of the end-to-end benchmark harness.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py

Outside tier-1's ``testpaths`` on purpose: it starts real server
processes.  Everything but the smoke run is arithmetic on synthetic
samples, so a wrong percentile or a reference check that cannot see a
dropped delivery fails here and not in a published number.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from estimators import (  # noqa: E402
    median,
    percentile,
    relative_gap,
    relative_iqr,
    windowed_percentile,
)
from refcheck import Verdict, check_deliveries, check_requests, check_server  # noqa: E402
from repro.core.events import FAA_POSITION, UpdateEvent  # noqa: E402
from tracer import Tracer, _wrap  # noqa: E402
from workloads import WORKLOADS, Plan, build_inputs, build_population  # noqa: E402

TINY = Plan(paced_seconds=0.5, n_bursts=1, burst_events=300, warmup_events=100)


# ------------------------------------------------------------ arithmetic
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0) == 1
    assert percentile([7.0], 90) == 7.0
    random.Random(3).shuffle(samples)
    assert percentile(samples, 99) == 99
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_of_bursts_ignores_the_outliers():
    assert median([16000.0, 12000.0, 15500.0, 41000.0, 15800.0]) == 15800.0
    assert median([1.0, 3.0]) == 2.0


def test_windowed_percentile_discards_the_window_a_stall_hit():
    calm = [1.0] * 990 + [2.0] * 10  # p99 of a calm window: 1.0
    stalled = [1.0] * 900 + [80.0] * 100  # a stall: p99 80
    samples = calm * 4 + stalled + calm * 4
    assert percentile(samples, 99) > 2.0  # the whole-run tail sees the stall
    assert windowed_percentile(samples, 99, 1000) == 1.0
    # a trailing partial window is dropped; too few samples fall back
    assert windowed_percentile(calm + [500.0] * 10, 99, 1000) == 1.0
    assert windowed_percentile([1.0, 2.0, 3.0], 50, 1000) == 2.0


def test_spread_and_gap_follow_the_acceptance_rule():
    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.2]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)
    assert relative_gap(10.0, 10.5) == pytest.approx(0.05)
    assert relative_gap(10.0, 9.5) == pytest.approx(0.05)


# ---------------------------------------------------------------- inputs
def test_inputs_for_one_seed_are_byte_identical():
    workload = WORKLOADS[1]  # push_selective: rules, statuses and a population
    first = build_inputs(workload, 7, TINY)
    second = build_inputs(workload, 7, TINY)
    assert first.digest_bytes() == second.digest_bytes()
    assert bytes(first.expected) == bytes(second.expected)
    assert build_inputs(workload, 8, TINY).digest_bytes() != first.digest_bytes()


def test_inputs_number_every_event_and_owe_what_the_rules_mirror():
    selective = build_inputs(WORKLOADS[1], 7, TINY)
    assert selective.n_events == len(selective.expected)
    assert selective.burst_ends[-1] == selective.n_events
    owed = sum(selective.expected)
    # the population covers every flight, so exactly the mirrored events are owed
    assert owed == selective.mirrored_before[selective.n_events]
    assert 0 < owed < selective.n_events  # selective mirroring discards most fixes
    assert selective.expected[selective.n_events - 1] == 1  # the sentinel is delivered
    simple = build_inputs(WORKLOADS[0], 7, TINY)
    assert sum(simple.expected) == simple.n_events  # simple mirroring: all of them


def test_population_partitions_the_flights():
    flights = [f"DL{i + 100}" for i in range(60)]
    predicates = build_population(flights, (12, 5, 3), random.Random(1))
    assert len(predicates) == 20
    for flight in flights:
        event = UpdateEvent(FAA_POSITION, "faa", 1, flight, {"alt": 1.0, "sector": 999})
        assert sum(p.matches(event) for p in predicates[:12]) == 1


# ------------------------------------------------------- reference check
def _perfect(inputs):
    return bytearray(inputs.expected)


def test_reference_check_passes_a_faithful_run():
    inputs = build_inputs(WORKLOADS[1], 7, TINY)
    verdict = Verdict()
    check_deliveries(verdict, inputs.expected, _perfect(inputs), unknown=0, late=0)
    check_requests(verdict, bytearray([1, 1, 1]), unknown=0, late=0)
    mirrored = inputs.mirrored_before[inputs.n_events]
    check_server(verdict, inputs.n_events, mirrored, inputs.n_events, mirrored,
                 ["a", "b", "c"], replicas_must_agree=False)
    assert verdict.correct and verdict.failed == 0
    assert verdict.attempted == inputs.n_events + 3


def test_reference_check_catches_a_dropped_delivery():
    inputs = build_inputs(WORKLOADS[1], 7, TINY)
    received = _perfect(inputs)
    received[inputs.n_events - 1] = 0  # the last sentinel never arrived
    verdict = Verdict()
    check_deliveries(verdict, inputs.expected, received, unknown=0, late=0)
    assert not verdict.correct and verdict.failed == 1
    assert "missing" in verdict.problems[0]


def test_reference_check_catches_a_duplicate_and_a_stray_delivery():
    inputs = build_inputs(WORKLOADS[1], 7, TINY)
    received = _perfect(inputs)
    received[inputs.n_events - 1] = 2
    stray = next(i for i, owed in enumerate(inputs.expected) if not owed)
    received[stray] = 1  # an event the rules discarded was pushed anyway
    verdict = Verdict()
    check_deliveries(verdict, inputs.expected, received, unknown=0, late=0)
    assert not verdict.correct and verdict.failed == 2
    assert any("duplicated" in p for p in verdict.problems)
    assert any("not to be delivered" in p for p in verdict.problems)


def test_reference_check_counts_requests_digests_and_pass_ratio():
    verdict = Verdict()
    check_requests(verdict, bytearray([1, 0, 2]), unknown=1, late=0)
    assert verdict.failed == 3 and len(verdict.problems) == 3
    verdict = Verdict()
    check_server(verdict, 100, 11, 100, 10, ["a", "a", "b"], replicas_must_agree=True)
    assert verdict.failed == 2 and not verdict.correct
    late_only = Verdict()
    check_deliveries(late_only, bytearray([1]), bytearray([1]), unknown=0, late=1)
    assert late_only.failed == 1 and late_only.correct  # late is failed, not incorrect


# ---------------------------------------------------------------- tracer
def test_tracer_self_time_excludes_wrapped_children():
    tracer = Tracer()
    tracer.layer_of.update({"outer": "t.outer", "inner": "t.inner"})

    def busy(n):
        return sum(range(n))

    inner = _wrap(tracer, "inner", lambda: busy(20_000))
    outer = _wrap(tracer, "outer", lambda: (inner(), inner(), busy(1_000)))
    for _ in range(3):
        outer()
    calls, inclusive, own = tracer.totals["outer"]
    inner_calls, inner_inclusive, inner_own = tracer.totals["inner"]
    assert (calls, inner_calls) == (3, 6)
    assert inner_inclusive == inner_own
    assert own == inclusive - inner_inclusive
    assert tracer.spans[0][0] == "inner" and tracer.spans[0][3] == "outer"
    layers = tracer.by_layer()
    assert layers["t.inner"] == {"calls": 6, "self_ns": inner_own}


# -------------------------------------------------------------- manifest
def test_manifest_lists_exactly_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in manifest["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in manifest["workloads"]] == [w.why for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] == [
        tuple(row) for row in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(row) for row in bench.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0.05 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


# ----------------------------------------------------------------- smoke
def test_smoke_run_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "push_steady", "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    for name, unit, *_ in list(bench.END_TO_END) + list(bench.PER_LAYER):
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit for line in lines
        ), f"{name} [{unit}] not printed"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {row[0] for row in bench.PER_LAYER}
