"""Property-based tests: failover correctness for arbitrary crash points.

The subsystem's central claim is that *where* the primary dies must not
matter: for any crash time inside a seeded run, post-failover the new
primary's state equals the last committed checkpoint plus the replayed
backups — committed loss is zero, survivors re-converge, and no client
request disappears.  Full end-to-end runs are slow, so examples are
few but each one exercises the whole plan → inject → detect → promote
chain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScenarioConfig, run_scenario
from repro.faults import FailureDetector, FaultPlan, SITE_ALIVE
from repro.ois import FlightDataConfig


def run_with_crash(crash_at, site, seed):
    plan = FaultPlan(seed=seed).crash_site(crash_at, site)
    return run_scenario(ScenarioConfig(
        n_mirrors=2,
        workload=FlightDataConfig(
            n_flights=10, positions_per_flight=8, seed=seed,
            position_rate=50.0,
        ),
        request_rate=20.0,
        fault_plan=plan,
        failover=True,
        heartbeat_interval=0.2,
        heartbeat_jitter=0.1,
        detection_sweep=0.1,
    ))


@given(
    crash_at=st.floats(min_value=0.1, max_value=2.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=12, deadline=None)
def test_any_central_crash_point_is_committed_loss_free(crash_at, seed):
    """Whatever instant the primary dies, the promoted mirror resumes
    from the last commit + replayed backups: zero committed loss, every
    generated event reaches the new primary, survivors agree."""
    result = run_with_crash(crash_at, "central", seed)
    m = result.metrics
    assert m.failovers == 1
    assert m.committed_loss_free
    assert m.requests_served == m.requests_issued
    assert m.events_lost_at_source == 0
    # the only admissible loss is stamped-but-unmirrored events caught
    # in the wreckage: they sit above every commit (uncommitted by
    # construction), and the injector accounts for each one
    lost_stamped = sum(
        r.lost_stamped for r in result.server.fault_injector.records
    )
    new_primary = result.server.main_of(result.server.primary_site)
    assert new_primary.events_applied + lost_stamped == m.events_generated
    digests = {
        result.server.main_of(s).ede.state_digest()
        for s in ("mirror1", "mirror2")
    }
    assert len(digests) == 1


@given(
    crash_at=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=8, deadline=None)
def test_any_mirror_crash_point_preserves_service(crash_at, seed):
    result = run_with_crash(crash_at, "mirror1", seed)
    m = result.metrics
    assert m.failovers == 0
    assert m.committed_loss_free
    assert m.requests_served == m.requests_issued
    assert (result.server.main_of("central").ede.state_digest()
            == result.server.main_of("mirror2").ede.state_digest())


@given(
    jitter=st.floats(min_value=0.0, max_value=0.45),
    seed=st.integers(min_value=0, max_value=2**16),
    horizon=st.integers(min_value=50, max_value=300),
)
@settings(max_examples=60, deadline=None)
def test_detector_never_flaps_under_bounded_jitter(jitter, seed, horizon):
    """Heartbeats with bounded multiplicative jitter (gaps strictly
    inside the suspicion threshold) must produce zero transitions."""
    from repro.sim import RandomStreams

    det = FailureDetector(interval=1.0, suspect_after=3.0, dead_after=6.0)
    streams = RandomStreams(seed)
    det.register("s", now=0.0)
    now = 0.0
    for seq in range(1, horizon + 1):
        now += 1.0 * (1.0 + streams.uniform("props.jitter", -jitter, jitter))
        det.heartbeat("s", seq=seq, now=now)
        assert det.evaluate(now) == []
    assert det.status_of("s") == SITE_ALIVE
    assert det.transitions == []
