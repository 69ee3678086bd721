"""Focused unit tests for the aux/main runtime units.

Integration tests cover whole scenarios; these pin down unit-level
behaviours: checkpoint cadence, EOS flushing, config hot-swap
semantics, monitor readings, and the fwd-vs-mirror split.
"""

import pytest

from repro.core import (
    MirrorConfig,
    ScenarioConfig,
    coalescing_mirroring,
    run_scenario,
    selective_mirroring,
)
from repro.core.system import MirroredServer
from repro.ois import FlightDataConfig
from repro.ois.flightdata import generate_script


def workload(**kw):
    defaults = dict(n_flights=3, positions_per_flight=40, seed=61, include_delta=False)
    defaults.update(kw)
    return FlightDataConfig(**defaults)


# ----------------------------------------------------- checkpoint cadence
def test_checkpoint_every_n_processed_events():
    wl = workload()  # 120 events
    cfg = ScenarioConfig(
        n_mirrors=1,
        mirror_config=MirrorConfig(checkpoint_freq=30),
        workload=wl,
    )
    m = run_scenario(cfg).metrics
    # 120/30 = 4 cadence rounds + 1 final EOS round
    assert m.checkpoint_rounds == 5


def test_checkpoint_cadence_independent_of_filtering():
    """Selective mirroring sends far fewer events but checkpoints at the
    same *processed* cadence (paper: 'once per 50 processed events')."""
    wl = workload(positions_per_flight=100)  # 300 events
    rounds = []
    for mc in [MirrorConfig(checkpoint_freq=50),
               selective_mirroring(10, checkpoint_freq=50)]:
        cfg = ScenarioConfig(n_mirrors=1, mirror_config=mc, workload=wl)
        rounds.append(run_scenario(cfg).metrics.checkpoint_rounds)
    assert rounds[0] == rounds[1]


def test_final_checkpoint_trims_committed_prefix():
    """The EOS-triggered round commits whatever every main unit had
    processed at vote time; events still in flight then stay in the
    backup queues (no later round exists to cover them) — exactly the
    paper's no-timeout semantics."""
    cfg = ScenarioConfig(n_mirrors=1, workload=workload())
    result = run_scenario(cfg)
    aux = result.server.central_aux
    commit = aux.coordinator.last_commit
    assert commit is not None
    # everything at/below the commit is gone from every backup queue
    for backup in [aux.backup, result.server.mirror_auxes[0].backup]:
        assert backup.total_trimmed > 0
        for ev in backup.events():
            assert not commit.covers(ev.stream, ev.seqno)
    # and the residue is small: less than one checkpoint interval
    assert len(aux.backup) < aux.config.checkpoint_freq


# ------------------------------------------------------------- EOS flush
def test_eos_flushes_coalesce_buffers():
    """Events held in coalesce buffers at stream end must still be
    mirrored (flush on EOS), so mirrors converge."""
    wl = workload(positions_per_flight=7)  # 21 events; 3 flights x 7
    cfg = ScenarioConfig(
        n_mirrors=1,
        mirror_config=coalescing_mirroring(coalesce_max=5, kind=None),
        workload=wl,
    )
    result = run_scenario(cfg)
    m = result.metrics
    # every event represented: 3 flights x (1 full buffer of 5 + flush of 2)
    assert m.events_mirrored == 6
    mirror_ede = result.server.mirror_mains[0].ede
    assert mirror_ede.processed == 6
    # coalesced representation covers all originals
    total = sum(
        e.coalesced_from
        for e in []
    ) if False else m.rule_stats["coalesced_events"] + m.events_mirrored
    assert total == m.events_generated


def test_rule_stats_snapshotted_at_eos():
    cfg = ScenarioConfig(
        n_mirrors=1, mirror_config=selective_mirroring(4), workload=workload()
    )
    m = run_scenario(cfg).metrics
    assert m.rule_stats["received"] == m.events_generated
    assert m.rule_stats["discarded_overwrite"] == m.events_generated - m.events_mirrored


# ------------------------------------------------------- config hot-swap
def test_apply_config_preserves_status_table():
    """Swapping the mirror function mid-run keeps rule history: an
    overwrite run in progress is not restarted (application state
    outlives function state)."""
    wl = workload(positions_per_flight=10)
    server = MirroredServer(
        ScenarioConfig(
            n_mirrors=1, mirror_config=selective_mirroring(5), workload=wl
        )
    )
    aux = server.central_aux
    table_before = aux.engine.table
    aux.apply_config(selective_mirroring(10))
    assert aux.engine.table is table_before
    assert aux.config.overwrite["faa.position"] == 10


def test_mirror_control_binds_to_aux_unit():
    from repro.core import MirrorControl

    wl = workload(positions_per_flight=10)
    server = MirroredServer(ScenarioConfig(n_mirrors=1, workload=wl))
    control = MirrorControl()
    control.bind(server.central_aux)
    control.set_overwrite("faa.position", 7)
    assert server.central_aux.config.overwrite["faa.position"] == 7
    # mirror()/fwd() execute against the bound host without error
    control.mirror()
    control.fwd()


# ------------------------------------------------------- monitor readings
def test_monitor_readings_shape():
    wl = workload(positions_per_flight=10)
    server = MirroredServer(ScenarioConfig(n_mirrors=1, workload=wl))
    for unit in [server.central_aux, server.mirror_auxes[0]]:
        readings = unit.monitor_readings()
        assert set(readings) == {"ready_queue", "backup_queue", "pending_requests"}
        assert all(v >= 0 for v in readings.values())


# --------------------------------------------------------- fwd vs mirror
def test_fwd_carries_all_events_mirror_carries_filtered():
    wl = workload(positions_per_flight=30)  # 90 events
    cfg = ScenarioConfig(
        n_mirrors=2, mirror_config=selective_mirroring(3), workload=wl
    )
    result = run_scenario(cfg)
    m = result.metrics
    assert m.events_forwarded == 90
    assert m.events_mirrored == 30
    # both mirrors' EDEs saw exactly the mirrored set
    for mirror_main in result.server.mirror_mains:
        assert mirror_main.ede.processed == 30


def test_mirroring_disabled_skips_rules_and_channels():
    wl = workload()
    cfg = ScenarioConfig(
        n_mirrors=0,
        mirroring=False,
        mirror_config=selective_mirroring(5),
        workload=wl,
    )
    m = run_scenario(cfg).metrics
    assert m.events_mirrored == 0
    assert m.rule_stats.get("received", 0) == 0  # engine never consulted


# ----------------------------------------------------- vector timestamps
def test_central_stamps_events_with_monotone_clock():
    wl = workload(positions_per_flight=20)
    result = run_scenario(ScenarioConfig(n_mirrors=1, workload=wl))
    clock = result.server.central_aux.stamp_clock
    assert clock.component("faa") == 60  # all 60 position events stamped


def test_shared_script_identical_inputs_across_scenarios():
    wl = workload(positions_per_flight=15)
    script = generate_script(wl)
    r1 = run_scenario(ScenarioConfig(n_mirrors=1, workload=wl), script=script)
    r2 = run_scenario(
        ScenarioConfig(n_mirrors=1, mirror_config=selective_mirroring(5), workload=wl),
        script=script,
    )
    # same stream fed to both scenarios: identical central EDE state
    assert (
        r1.server.central_main.ede.state_digest()
        == r2.server.central_main.ede.state_digest()
    )
