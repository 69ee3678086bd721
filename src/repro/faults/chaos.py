"""``python -m repro chaos`` — scripted failure drills with verdicts.

Each scenario builds a seeded :class:`FaultPlan` against a small
mirrored-server run, executes it end to end (crash → detect → promote →
rejoin), and checks the availability claims the subsystem makes:

* **committed loss is zero** — every event covered by the last
  checkpoint commit survives the failure (the paper's §3.2.1 guarantee,
  now exercised rather than assumed);
* **replicas re-converge** — surviving (and rejoined) sites end with
  identical EDE state digests;
* **requests survive** — every issued client request is eventually
  served, re-routed around dead sites when necessary;
* **detection is bounded** — the hysteresis detector declares death
  within its configured window, and never on a healthy cluster.

Reports are rendered with fixed formatting from seeded runs only, so
the same seed produces a byte-identical report — determinism is itself
one of the acceptance checks (``--check-determinism`` runs everything
twice and compares).  ``--sweep`` repeats the failover scenarios over a
seed range and reports the detection-latency and failover-time
distributions (``--bench-out`` records them as a ``BENCH_*.json``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.system import ScenarioConfig, ScenarioResult, run_scenario
from ..ois.flightdata import FlightDataConfig
from .detector import SITE_DEAD
from .plan import FaultPlan
from .siteid import qualify_site

__all__ = ["SCENARIOS", "ChaosOutcome", "run_chaos_scenario", "chaos_main"]

#: Heartbeat/detector timing shared by every scenario: death is declared
#: after ``dead_after`` silent intervals, so the expected detection
#: latency sits in [(dead_after - 1) * interval, dead_after * interval +
#: sweep] — the emitter may have beaten just before the crash, and the
#: verdict lands on a sweep tick.
HEARTBEAT_INTERVAL = 0.2
DETECTION_SWEEP = 0.1
SUSPECT_AFTER = 3.0
DEAD_AFTER = 6.0

_DETECT_MIN = (DEAD_AFTER - 1.0) * HEARTBEAT_INTERVAL
_DETECT_MAX = DEAD_AFTER * HEARTBEAT_INTERVAL + 2 * DETECTION_SWEEP


def _base_config(seed: int, plan: FaultPlan, shard: str = "",
                 **overrides) -> ScenarioConfig:
    kwargs = dict(
        n_mirrors=2,
        shard=shard,
        workload=FlightDataConfig(
            n_flights=30, positions_per_flight=8, seed=seed,
            position_rate=50.0,
        ),
        request_rate=20.0,
        fault_plan=plan,
        failover=True,
        heartbeat_interval=HEARTBEAT_INTERVAL,
        heartbeat_jitter=0.1,
        detection_sweep=DETECTION_SWEEP,
        suspect_after=SUSPECT_AFTER,
        dead_after=DEAD_AFTER,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@dataclass
class ChaosOutcome:
    """One executed scenario: measurements plus pass/fail checks."""

    name: str
    seed: int
    measurements: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def render(self) -> str:
        lines = [f"scenario {self.name} (seed {self.seed}): "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        for key in sorted(self.measurements):
            lines.append(f"  {key:28s} {self.measurements[key]:.6f}")
        for key in sorted(self.checks):
            mark = "ok" if self.checks[key] else "FAIL"
            lines.append(f"  [{mark:4s}] {key}")
        return "\n".join(lines)


def _digests_equal(result: ScenarioResult, sites: List[str]) -> bool:
    digests = [result.server.main_of(s).ede.state_digest() for s in sites]
    return all(d == digests[0] for d in digests)


def _deaths(result: ScenarioResult) -> List[str]:
    return [
        site for (_, site, status) in result.metrics.membership_log
        if status == SITE_DEAD
    ]


def _common_measurements(outcome: ChaosOutcome, result: ScenarioResult) -> None:
    m = result.metrics
    outcome.measurements.update({
        "execution_time": m.total_execution_time,
        "events_generated": float(m.events_generated),
        "events_lost_uncommitted": float(
            m.events_generated
            - result.server.main_of(result.server.primary_site).events_applied
        ),
        "requests_issued": float(m.requests_issued),
        "requests_served": float(m.requests_served),
        "requests_served_degraded": float(m.requests_served_degraded),
        "requests_redirected": float(m.requests_redirected),
        "heartbeats_sent": float(m.heartbeats_sent),
        "faults_injected": float(m.faults_injected),
    })
    if m.detection_latencies:
        outcome.measurements["detection_latency_mean"] = sum(
            m.detection_latencies
        ) / len(m.detection_latencies)
    if m.failover_times:
        outcome.measurements["failover_time_mean"] = sum(
            m.failover_times
        ) / len(m.failover_times)


# ------------------------------------------------------------- scenarios

def _scenario_central_crash(seed: int, shard: str = "") -> ChaosOutcome:
    """The headline drill: kill the primary mid-stream, live-promote."""
    plan = FaultPlan(seed=seed).crash_site(3.0, qualify_site(shard, "central"))
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    outcome = ChaosOutcome("central-crash", seed)
    _common_measurements(outcome, result)
    latency = m.detection_latencies[0] if m.detection_latencies else -1.0
    failover_time = m.failover_times[0] if m.failover_times else -1.0
    outcome.checks = {
        "failover happened exactly once": m.failovers == 1,
        "committed loss is zero": m.committed_loss_free,
        "detection latency within detector window":
            _DETECT_MIN <= latency <= _DETECT_MAX,
        "failover window covers detection, bounded catch-up":
            latency <= failover_time <= latency + 1.0,
        "every issued request served": m.requests_served == m.requests_issued,
        "no events lost at the source": m.events_lost_at_source == 0,
        "survivor replicas identical":
            _digests_equal(result, ["mirror1", "mirror2"]),
        "a mirror took over": result.server.primary_site != "central",
    }
    return outcome


def _scenario_mirror_crash(seed: int, shard: str = "") -> ChaosOutcome:
    """A serving mirror dies: its requests re-route, nobody promotes."""
    plan = FaultPlan(seed=seed).crash_site(2.0, qualify_site(shard, "mirror1"))
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    outcome = ChaosOutcome("mirror-crash", seed)
    _common_measurements(outcome, result)
    outcome.checks = {
        "no failover (primary healthy)": m.failovers == 0,
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "parked requests were re-routed": m.requests_redirected > 0,
        "central and surviving mirror identical":
            _digests_equal(result, ["central", "mirror2"]),
        "primary unchanged": result.server.primary_site == "central",
    }
    return outcome


def _scenario_mirror_rejoin(seed: int, shard: str = "") -> ChaosOutcome:
    """Crash a mirror, restart it: snapshot + replay re-converges it."""
    plan = (FaultPlan(seed=seed)
            .crash_site(2.0, qualify_site(shard, "mirror1"))
            .restart_site(4.0, qualify_site(shard, "mirror1")))
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    outcome = ChaosOutcome("mirror-rejoin", seed)
    _common_measurements(outcome, result)
    log_statuses = [s for (_, site, s) in m.membership_log if site == "mirror1"]
    outcome.checks = {
        "no failover (primary healthy)": m.failovers == 0,
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "mirror died and came back":
            SITE_DEAD in log_statuses and log_statuses[-1] == "alive",
        "all three replicas identical":
            _digests_equal(result, ["central", "mirror1", "mirror2"]),
    }
    return outcome


def _scenario_pause(seed: int, shard: str = "") -> ChaosOutcome:
    """Stall the primary long enough to be suspected, not buried."""
    plan = FaultPlan(seed=seed).pause_site(
        2.0, qualify_site(shard, "central"), duration=0.9,
    )
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    outcome = ChaosOutcome("pause-recovers", seed)
    _common_measurements(outcome, result)
    central_log = [s for (_, site, s) in m.membership_log if site == "central"]
    outcome.checks = {
        "no failover (a stall is not a death)": m.failovers == 0,
        "stall was suspected": "suspect" in central_log,
        "suspicion cleared by hysteresis":
            bool(central_log) and central_log[-1] == "alive",
        "nobody declared dead": not _deaths(result),
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "all three replicas identical":
            _digests_equal(result, ["central", "mirror1", "mirror2"]),
    }
    return outcome


def _scenario_control_loss(seed: int, shard: str = "") -> ChaosOutcome:
    """Probabilistic control-plane loss: checkpoint rounds are simply
    superseded, and heartbeat hysteresis keeps membership stable."""
    plan = FaultPlan(seed=seed).drop_control(1.0, duration=2.0, drop_prob=0.3)
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    controller = result.server.transport.fault_controller
    outcome = ChaosOutcome("control-loss", seed)
    _common_measurements(outcome, result)
    outcome.measurements["control_messages_dropped"] = float(
        controller.dropped if controller is not None else 0
    )
    outcome.checks = {
        "losses actually happened":
            controller is not None and controller.dropped > 0,
        "no false death from lost heartbeats": not _deaths(result),
        "no failover": m.failovers == 0,
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "all three replicas identical":
            _digests_equal(result, ["central", "mirror1", "mirror2"]),
    }
    return outcome


def _scenario_degraded_link(seed: int, shard: str = "") -> ChaosOutcome:
    """Added latency on the central→mirror1 link: slower, never wrong."""
    plan = FaultPlan(seed=seed).degrade_link(
        1.0, "central", "mirror1", duration=2.0, extra_latency=0.02,
    )
    result = run_scenario(_base_config(seed, plan, shard))
    m = result.metrics
    controller = result.server.transport.fault_controller
    outcome = ChaosOutcome("degraded-link", seed)
    _common_measurements(outcome, result)
    outcome.measurements["messages_delayed"] = float(
        controller.delayed if controller is not None else 0
    )
    outcome.checks = {
        "delays actually happened":
            controller is not None and controller.delayed > 0,
        "no failover": m.failovers == 0,
        "nobody declared dead": not _deaths(result),
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "all three replicas identical":
            _digests_equal(result, ["central", "mirror1", "mirror2"]),
    }
    return outcome


def _scenario_crash_storm(seed: int, shard: str = "") -> ChaosOutcome:
    """The combined drill: a mirror bounces, then the primary dies."""
    plan = (FaultPlan(seed=seed)
            .crash_site(1.5, qualify_site(shard, "mirror1"))
            .restart_site(3.0, qualify_site(shard, "mirror1"))
            .crash_site(4.5, qualify_site(shard, "central")))
    result = run_scenario(_base_config(
        seed, plan, shard,
        workload=FlightDataConfig(
            n_flights=40, positions_per_flight=10, seed=seed,
            position_rate=40.0,
        ),
    ))
    m = result.metrics
    outcome = ChaosOutcome("crash-storm", seed)
    _common_measurements(outcome, result)
    outcome.checks = {
        "failover happened exactly once": m.failovers == 1,
        "committed loss is zero": m.committed_loss_free,
        "every issued request served": m.requests_served == m.requests_issued,
        "survivor replicas identical":
            _digests_equal(result, ["mirror1", "mirror2"]),
        "a mirror took over": result.server.primary_site != "central",
    }
    return outcome


def _scenario_subscription_failover(seed: int, shard: str = "") -> ChaosOutcome:
    """Content-based routing under failover: the primary dies while a
    subscribed client population is being served.  The promoted mirror
    takes over distribution, which re-registers every client's
    subscriptions with the broker at the new site — and the matched
    stream must survive the move: every distributed update is consulted
    exactly once (no matched-event loss), with the indexed engine
    audited against the naive oracle on every consult."""
    population = 60
    plan = FaultPlan(seed=seed).crash_site(3.0, qualify_site(shard, "central"))
    result = run_scenario(_base_config(
        seed, plan, shard,
        sub_population=population,
        sub_selectivity=0.1,
        sub_verify=True,
    ))
    m = result.metrics
    outcome = ChaosOutcome("subscription-failover", seed)
    _common_measurements(outcome, result)
    outcome.measurements.update({
        "sub_population": float(population),
        "sub_events_consulted": float(m.sub_events_consulted),
        "sub_deliveries": float(m.sub_deliveries),
        "sub_reregistrations": float(m.sub_reregistrations),
    })
    outcome.checks = {
        "failover happened exactly once": m.failovers == 1,
        "committed loss is zero": m.committed_loss_free,
        "no matched-event loss (every update consulted)":
            m.sub_events_consulted == m.updates_distributed > 0,
        "matched deliveries flowed": m.sub_deliveries > 0,
        "whole population re-registered on promoted mirror":
            m.sub_reregistrations == population,
        "indexed engine agreed with naive oracle throughout":
            m.sub_oracle_mismatches == 0,
        "every issued request served": m.requests_served == m.requests_issued,
        "survivor replicas identical":
            _digests_equal(result, ["mirror1", "mirror2"]),
        "a mirror took over": result.server.primary_site != "central",
    }
    return outcome


SCENARIOS: Dict[str, Callable[..., ChaosOutcome]] = {
    "central-crash": _scenario_central_crash,
    "mirror-crash": _scenario_mirror_crash,
    "mirror-rejoin": _scenario_mirror_rejoin,
    "pause-recovers": _scenario_pause,
    "control-loss": _scenario_control_loss,
    "degraded-link": _scenario_degraded_link,
    "crash-storm": _scenario_crash_storm,
    "subscription-failover": _scenario_subscription_failover,
}

#: Scenarios whose runs contribute to the sweep distributions.
_SWEEP_SCENARIOS = ("central-crash", "crash-storm")


def run_chaos_scenario(name: str, seed: int, shard: str = "") -> ChaosOutcome:
    """Execute one named scenario at ``seed``; with ``shard``, the
    drill addresses its target sites by shard-qualified id
    (``shard0/central``) against a cluster representing that shard."""
    return SCENARIOS[name](seed, shard)


# --------------------------------------------------------------- reporting

def _distribution(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {
        "count": float(len(ordered)),
        "min": ordered[0],
        "mean": sum(ordered) / len(ordered),
        "max": ordered[-1],
    }


def _render_distribution(label: str, dist: Dict[str, float]) -> str:
    return (f"  {label:22s} n={int(dist['count'])} "
            f"min={dist['min']:.6f} mean={dist['mean']:.6f} "
            f"max={dist['max']:.6f}")


def _run_report(names: List[str], seed: int, shard: str = "") -> tuple:
    outcomes = [run_chaos_scenario(name, seed, shard) for name in names]
    blocks = [outcome.render() for outcome in outcomes]
    n_pass = sum(1 for o in outcomes if o.passed)
    blocks.append(
        f"chaos: {n_pass}/{len(outcomes)} scenario(s) passed (seed {seed})"
    )
    return outcomes, "\n\n".join(blocks)


def chaos_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; exit code 0 = every scenario check passed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seeded failure drills: crash/pause/partition a "
        "mirrored server, verify detection, live failover, and the "
        "zero-committed-loss guarantee.",
    )
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="run one scenario (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0, help="plan seed")
    parser.add_argument(
        "--shard", default="",
        help="address the drilled sites by shard-qualified id inside "
        "this named shard (e.g. shard0); default: unsharded ids",
    )
    parser.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="additionally run the failover scenarios over N seeds and "
        "report detection-latency / failover-time distributions",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run everything twice and require byte-identical reports",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the rendered report to PATH",
    )
    parser.add_argument(
        "--bench-out", metavar="PATH", default=None,
        help="with --sweep: write the distributions as a BENCH_*.json",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.sweep < 0:
        parser.error("--sweep must be >= 0")
    if args.bench_out and not args.sweep:
        parser.error("--bench-out requires --sweep")
    if "/" in args.shard:
        parser.error("--shard is a shard name (no '/')")

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    outcomes, report = _run_report(names, args.seed, args.shard)
    ok = all(o.passed for o in outcomes)

    if args.check_determinism:
        _, report2 = _run_report(names, args.seed, args.shard)
        identical = report == report2
        report += ("\n\ndeterminism: reports byte-identical across reruns: "
                   f"{'yes' if identical else 'NO'}")
        ok = ok and identical

    sweep_record = None
    if args.sweep:
        detection: List[float] = []
        failover: List[float] = []
        for name in _SWEEP_SCENARIOS:
            for s in range(args.sweep):
                outcome = run_chaos_scenario(name, args.seed + s, args.shard)
                ok = ok and outcome.passed
                if "detection_latency_mean" in outcome.measurements:
                    detection.append(
                        outcome.measurements["detection_latency_mean"]
                    )
                if "failover_time_mean" in outcome.measurements:
                    failover.append(outcome.measurements["failover_time_mean"])
        sweep_record = {
            "detection_latency_seconds": _distribution(detection),
            "failover_time_seconds": _distribution(failover),
            "scenarios": list(_SWEEP_SCENARIOS),
            "seeds": args.sweep,
            "first_seed": args.seed,
        }
        report += "\n\nsweep distributions ({} seed(s) x {}):\n".format(
            args.sweep, "+".join(_SWEEP_SCENARIOS)
        )
        report += _render_distribution(
            "detection latency (s)", sweep_record["detection_latency_seconds"]
        ) + "\n"
        report += _render_distribution(
            "failover time (s)", sweep_record["failover_time_seconds"]
        )

    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
        print(f"\nreport written to {args.out}")
    if args.bench_out and sweep_record is not None:
        from ..bench import machine_info

        record = {
            "label": "chaos",
            "chaos": sweep_record,
            "checks_passed": ok,
            "machine": machine_info(),
        }
        with open(args.bench_out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"chaos distributions written to {args.bench_out}")
    return 0 if ok else 1
