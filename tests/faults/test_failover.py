"""Integration tests: injected faults against the full simulated server.

These exercise the whole chain — plan → injector → heartbeats →
detector → supervisor → promotion/rejoin — and assert the availability
properties the subsystem claims (zero committed loss, replica
re-convergence, request survival).
"""

import pytest

from repro.core import ScenarioConfig, run_scenario
from repro.faults import FaultPlan, SITE_ALIVE, SITE_DEAD
from repro.ois import FlightDataConfig


def config(plan, seed=11, **overrides):
    kwargs = dict(
        n_mirrors=2,
        workload=FlightDataConfig(
            n_flights=12, positions_per_flight=8, seed=seed,
            position_rate=50.0,
        ),
        request_rate=20.0,
        fault_plan=plan,
        failover=True,
        heartbeat_interval=0.2,
        heartbeat_jitter=0.1,
        detection_sweep=0.1,
        suspect_after=3.0,
        dead_after=6.0,
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


def digest(result, site):
    return result.server.main_of(site).ede.state_digest()


def test_site_faults_require_failover_or_time_limit():
    plan = FaultPlan().crash_site(1.0, "central")
    with pytest.raises(ValueError):
        ScenarioConfig(fault_plan=plan)


def test_central_crash_promotes_a_mirror():
    plan = FaultPlan(seed=3).crash_site(1.0, "central")
    result = run_scenario(config(plan))
    m = result.metrics
    assert m.failovers == 1
    assert m.committed_loss_free
    assert result.server.primary_site in ("mirror1", "mirror2")
    # detection: death declared after dead_after silent intervals
    (latency,) = m.detection_latencies
    assert 5.0 * 0.2 <= latency <= 6.0 * 0.2 + 0.2
    (failover_time,) = m.failover_times
    assert failover_time >= latency  # window starts at the crash
    assert m.requests_served == m.requests_issued
    assert digest(result, "mirror1") == digest(result, "mirror2")
    # the new primary saw every event the source handed off, minus any
    # stamped-but-unmirrored ones caught in the wreckage (uncommitted
    # loss by construction — the injector accounts for each)
    lost_stamped = sum(
        r.lost_stamped for r in result.server.fault_injector.records
    )
    new_primary = result.server.main_of(result.server.primary_site)
    assert new_primary.events_applied + lost_stamped == m.events_generated
    assert m.events_lost_at_source == 0


def test_mirror_crash_reroutes_requests_without_failover():
    plan = FaultPlan(seed=3).crash_site(1.0, "mirror1")
    result = run_scenario(config(plan))
    m = result.metrics
    assert m.failovers == 0
    assert result.server.primary_site == "central"
    assert m.committed_loss_free
    assert m.requests_served == m.requests_issued
    assert m.requests_redirected > 0
    assert digest(result, "central") == digest(result, "mirror2")


def test_crashed_mirror_rejoins_and_reconverges():
    plan = (FaultPlan(seed=3)
            .crash_site(1.0, "mirror1")
            .restart_site(2.5, "mirror1"))
    result = run_scenario(config(plan))
    m = result.metrics
    statuses = [s for (_, site, s) in m.membership_log if site == "mirror1"]
    assert SITE_DEAD in statuses and statuses[-1] == SITE_ALIVE
    assert m.committed_loss_free
    assert m.requests_served == m.requests_issued
    assert (digest(result, "central")
            == digest(result, "mirror1")
            == digest(result, "mirror2"))


def test_pause_is_suspected_but_survives():
    """A stall shorter than the death threshold must never kill a site:
    suspicion rises, hysteresis clears it, nobody is promoted."""
    plan = FaultPlan(seed=3).pause_site(1.0, "central", duration=0.9)
    # a longer stream than the other tests: the run must outlive the
    # recovery hysteresis (3 on-time beats after the stall ends)
    result = run_scenario(config(plan, workload=FlightDataConfig(
        n_flights=25, positions_per_flight=8, seed=11, position_rate=50.0,
    )))
    m = result.metrics
    statuses = [s for (_, site, s) in m.membership_log if site == "central"]
    assert "suspect" in statuses
    assert statuses[-1] == SITE_ALIVE
    assert m.failovers == 0
    assert not any(s == SITE_DEAD for (_, _, s) in m.membership_log)
    assert m.requests_served == m.requests_issued
    assert (digest(result, "central")
            == digest(result, "mirror1")
            == digest(result, "mirror2"))


def test_chaos_run_is_deterministic():
    """Same plan, same seed: identical metrics and membership history."""
    plan = lambda: FaultPlan(seed=5).crash_site(1.0, "central")  # noqa: E731

    def fingerprint():
        m = run_scenario(config(plan())).metrics
        return (
            m.total_execution_time,
            tuple(m.detection_latencies),
            tuple(m.failover_times),
            m.requests_served,
            m.heartbeats_sent,
            tuple(m.membership_log),
        )

    assert fingerprint() == fingerprint()


def test_faults_disabled_runs_are_untouched():
    """The subsystem is opt-in: a default config produces identical
    metrics whether or not the faults package was ever imported."""
    base = dict(
        n_mirrors=2,
        workload=FlightDataConfig(n_flights=6, positions_per_flight=8, seed=2),
        request_rate=10.0,
    )
    a = run_scenario(ScenarioConfig(**base)).metrics
    b = run_scenario(ScenarioConfig(**base)).metrics
    assert a.total_execution_time == b.total_execution_time
    assert a.heartbeats_sent == 0 and b.faults_injected == 0
    assert a.membership_log == []
