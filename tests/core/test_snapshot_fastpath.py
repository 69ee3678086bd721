"""Integration tests for the snapshot fast path in the simulation
backend: cached serving, request coalescing, and delta views."""

from repro.core.functions import simple_mirroring
from repro.core.system import ScenarioConfig, run_scenario
from repro.ois.flightdata import FlightDataConfig

WORKLOAD = FlightDataConfig(n_flights=5, positions_per_flight=40, seed=42)


def fastpath_config(delta=False):
    cfg = simple_mirroring()
    cfg.serve_cached_snapshots = True
    cfg.delta_snapshots = delta
    return cfg


def storm(mirror_config, request_rate=2000.0, **kw):
    return ScenarioConfig(
        n_mirrors=1,
        mirror_config=mirror_config,
        workload=WORKLOAD,
        request_rate=request_rate,
        **kw,
    )


def test_request_storm_hits_the_cache():
    result = run_scenario(storm(fastpath_config()))
    m = result.metrics
    assert m.requests_served == m.requests_issued > 0
    assert m.snapshot_cache_hits > 0
    assert m.snapshot_builds > 0
    # far fewer builds than requests: most are served from the cache or
    # coalesced onto an in-flight build
    assert m.snapshot_builds < m.requests_served


def test_fast_path_speeds_up_request_heavy_runs():
    slow = run_scenario(storm(simple_mirroring())).metrics
    fast = run_scenario(storm(fastpath_config())).metrics
    assert slow.requests_served > 0 and fast.requests_served > 0
    assert fast.total_execution_time < slow.total_execution_time
    # the default path still records store-level accounting (it only
    # charges the old economics), so hits appear in both runs
    assert slow.snapshot_builds + slow.snapshot_cache_hits == slow.requests_served


def test_default_economics_still_count_builds_and_hits():
    """With the fast path off the metrics still record store-level
    build/hit accounting without changing any timing."""
    m = run_scenario(storm(simple_mirroring(), request_rate=500.0)).metrics
    assert m.snapshot_builds + m.snapshot_cache_hits == m.requests_served
    assert m.delta_snapshots_served == 0


def test_delta_serving_for_repeat_clients():
    # preloaded flights make the full view heavy enough that a few
    # changed flights stay under the delta fallback fraction
    result = run_scenario(
        storm(fastpath_config(delta=True), delta_client_pool=4,
              preload_flights=100)
    )
    m = result.metrics
    assert m.requests_served == m.requests_issued > 4
    assert m.delta_snapshots_served > 0
    assert m.bytes_saved_by_delta > 0
    pool = result.server.client_pool
    deltas = pool.delta_responses()
    assert len(deltas) == m.delta_snapshots_served
    for r in deltas:
        assert r.snapshot_size < r.full_size
        assert r.bytes_saved > 0


def test_delta_serving_off_by_default_even_for_resumable_requests():
    result = run_scenario(
        storm(fastpath_config(delta=False), delta_client_pool=4)
    )
    m = result.metrics
    assert m.delta_snapshots_served == 0
    assert all(not r.delta for r in result.server.client_pool.responses)


def test_adaptation_config_swap_propagates_snapshot_flags():
    """apply_config on the aux unit re-installs the serving flags."""
    result = run_scenario(storm(simple_mirroring(), request_rate=100.0))
    server = result.server
    main = server.central_main
    assert not main._serve_cached
    new_cfg = fastpath_config(delta=True)
    server.central_aux.apply_config(new_cfg)
    assert main._serve_cached
    assert main._serve_deltas
    assert main._delta_fraction == new_cfg.delta_fallback_fraction


def test_delta_path_counts_cached_full_views_as_hits(monkeypatch):
    """With delta serving on and the cached fast path off, a resume that
    falls back to the full view from the cache counts as a hit: the
    hits equal the full views served without a build."""
    from repro.ois.state import OperationalStateStore

    built_deltas = []
    delta_snapshot = OperationalStateStore.delta_snapshot

    def counting(self, *args, **kwargs):
        builds = self.snapshot_builds
        view = delta_snapshot(self, *args, **kwargs)
        if view.is_delta and self.snapshot_builds > builds:
            built_deltas.append(view)
        return view

    monkeypatch.setattr(OperationalStateStore, "delta_snapshot", counting)
    cfg = simple_mirroring()
    cfg.delta_snapshots = True
    result = run_scenario(storm(cfg, delta_client_pool=4))
    m = result.metrics
    responses = result.server.client_pool.responses
    assert m.requests_served == len(responses) == m.requests_issued
    full_views = sum(not r.delta for r in responses)
    full_builds = m.snapshot_builds - len(built_deltas)
    assert full_views > full_builds
    assert m.snapshot_cache_hits == full_views - full_builds
