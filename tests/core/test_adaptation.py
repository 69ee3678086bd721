"""Unit tests for the adaptation controller and directive application."""

import pytest

from repro.core.adaptation import (
    MONITOR_PENDING_REQUESTS,
    MONITOR_READY_QUEUE,
    AdaptCommand,
    AdaptationController,
    apply_directives,
)
from repro.core.config import (
    AdaptDirective,
    MirrorConfig,
    MonitorSpec,
    PARAM_CHECKPOINT_FREQ,
    PARAM_COALESCE_ENABLED,
    PARAM_COALESCE_MAX,
    PARAM_MIRROR_FUNCTION,
    PARAM_OVERWRITE_LEN,
)
from repro.core.events import FAA_POSITION
from repro.core.functions import selective_mirroring


def adaptive_config(**overrides):
    cfg = MirrorConfig(
        overwrite={FAA_POSITION: 10},
        checkpoint_freq=50,
        adapt_directives=[
            AdaptDirective(param=PARAM_OVERWRITE_LEN, percent=100.0),
            AdaptDirective(param=PARAM_CHECKPOINT_FREQ, percent=100.0),
        ],
        monitors={
            MONITOR_READY_QUEUE: MonitorSpec(MONITOR_READY_QUEUE, primary=100, secondary=60),
        },
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


# --------------------------------------------------------- apply_directives
def test_directives_scale_overwrite_and_chkpt():
    cfg = adaptive_config()
    adapted = apply_directives(cfg, cfg.adapt_directives)
    assert adapted.overwrite[FAA_POSITION] == 20  # +100%
    assert adapted.checkpoint_freq == 100  # +100%
    # base untouched
    assert cfg.overwrite[FAA_POSITION] == 10


def test_directives_never_drop_below_one():
    cfg = MirrorConfig(overwrite={FAA_POSITION: 2}, checkpoint_freq=2)
    adapted = apply_directives(
        cfg,
        [
            AdaptDirective(param=PARAM_OVERWRITE_LEN, percent=-99.0),
            AdaptDirective(param=PARAM_CHECKPOINT_FREQ, percent=-99.0),
        ],
    )
    assert adapted.overwrite[FAA_POSITION] == 1
    assert adapted.checkpoint_freq == 1


def test_directive_coalesce_toggle_and_scale():
    cfg = MirrorConfig(coalesce_enabled=False, coalesce_max=5)
    adapted = apply_directives(
        cfg,
        [
            AdaptDirective(param=PARAM_COALESCE_ENABLED, percent=1.0),
            AdaptDirective(param=PARAM_COALESCE_MAX, percent=100.0),
        ],
    )
    assert adapted.coalesce_enabled
    assert adapted.coalesce_max == 10


def test_directive_mirror_function_switch_preserves_semantics():
    base = selective_mirroring(overwrite_len=10)
    base.complex_seq.append(("t1", {"s": "v"}, "t2"))
    adapted = apply_directives(
        base,
        [AdaptDirective(param=PARAM_MIRROR_FUNCTION, function_name="adaptive_reduced")],
    )
    assert adapted.overwrite == {FAA_POSITION: 20}
    assert adapted.checkpoint_freq == 100
    # domain rules carried over
    assert adapted.complex_seq == [("t1", {"s": "v"}, "t2")]


def test_directive_mirror_function_switch_keeps_snapshot_serving():
    """Serving is not "how much is mirrored": a function swap keeps the
    base config's snapshot-serving settings."""
    base = selective_mirroring(overwrite_len=10)
    base.serve_cached_snapshots = True
    base.delta_snapshots = True
    base.delta_fallback_fraction = 0.5
    adapted = apply_directives(
        base,
        [AdaptDirective(param=PARAM_MIRROR_FUNCTION, function_name="adaptive_reduced")],
    )
    assert adapted.serve_cached_snapshots
    assert adapted.delta_snapshots
    assert adapted.delta_fallback_fraction == 0.5


def test_adapted_config_renamed():
    cfg = adaptive_config()
    assert "adapted" in apply_directives(cfg, cfg.adapt_directives).function_name


# ------------------------------------------------------ AdaptationController
def test_controller_disabled_without_monitors():
    cfg = MirrorConfig()
    ctl = AdaptationController(cfg)
    assert not ctl.enabled
    assert ctl.evaluate({MONITOR_READY_QUEUE: 10_000}) is None


def test_controller_triggers_on_primary_threshold():
    ctl = AdaptationController(adaptive_config())
    assert ctl.evaluate({MONITOR_READY_QUEUE: 99}) is None
    cmd = ctl.evaluate({MONITOR_READY_QUEUE: 100})
    assert isinstance(cmd, AdaptCommand)
    assert cmd.action == "adapt"
    assert cmd.config.overwrite[FAA_POSITION] == 20
    assert ctl.adapted
    assert ctl.adaptations == 1


def test_controller_hysteresis_band():
    ctl = AdaptationController(adaptive_config())
    ctl.evaluate({MONITOR_READY_QUEUE: 150})
    # in the band [40, 100): stays adapted (restore below 100-60=40)
    assert ctl.evaluate({MONITOR_READY_QUEUE: 50}) is None
    assert ctl.adapted
    cmd = ctl.evaluate({MONITOR_READY_QUEUE: 39})
    assert cmd.action == "revert"
    assert cmd.config is ctl.base_config
    assert not ctl.adapted
    assert ctl.reversions == 1


def test_controller_no_double_adapt():
    ctl = AdaptationController(adaptive_config())
    assert ctl.evaluate({MONITOR_READY_QUEUE: 500}) is not None
    assert ctl.evaluate({MONITOR_READY_QUEUE: 500}) is None
    assert ctl.adaptations == 1


def test_controller_any_monitor_triggers():
    cfg = adaptive_config()
    cfg.monitors[MONITOR_PENDING_REQUESTS] = MonitorSpec(
        MONITOR_PENDING_REQUESTS, primary=10, secondary=5
    )
    ctl = AdaptationController(cfg)
    cmd = ctl.evaluate({MONITOR_READY_QUEUE: 1, MONITOR_PENDING_REQUESTS: 10})
    assert cmd is not None and cmd.action == "adapt"


def test_controller_revert_requires_all_monitors_calm():
    cfg = adaptive_config()
    cfg.monitors[MONITOR_PENDING_REQUESTS] = MonitorSpec(
        MONITOR_PENDING_REQUESTS, primary=10, secondary=8
    )
    ctl = AdaptationController(cfg)
    ctl.evaluate({MONITOR_READY_QUEUE: 200, MONITOR_PENDING_REQUESTS: 20})
    # ready queue calm, but requests still above their restore level (2)
    assert ctl.evaluate({MONITOR_READY_QUEUE: 0, MONITOR_PENDING_REQUESTS: 3}) is None
    cmd = ctl.evaluate({MONITOR_READY_QUEUE: 0, MONITOR_PENDING_REQUESTS: 0})
    assert cmd is not None and cmd.action == "revert"


def test_controller_missing_reading_never_triggers_adaptation():
    ctl = AdaptationController(adaptive_config())
    assert ctl.evaluate({}) is None
    assert not ctl.adapted


def test_controller_missing_reading_allows_reversion():
    # Once adapted, a round with no fresh reading for a monitor treats
    # it as calm: the adapted state is not pinned forever by silence.
    ctl = AdaptationController(adaptive_config())
    ctl.evaluate({MONITOR_READY_QUEUE: 200})
    cmd = ctl.evaluate({})
    assert cmd is not None and cmd.action == "revert"


def test_controller_history_records_triggers():
    ctl = AdaptationController(adaptive_config())
    ctl.evaluate({MONITOR_READY_QUEUE: 123})
    action, index, value = ctl.history[0]
    assert action == "adapt" and index == MONITOR_READY_QUEUE and value == 123


def test_command_sequence_numbers_increase():
    ctl = AdaptationController(adaptive_config())
    c1 = ctl.evaluate({MONITOR_READY_QUEUE: 200})
    c2 = ctl.evaluate({MONITOR_READY_QUEUE: 0})
    assert c2.seq > c1.seq


def test_each_controller_numbers_its_own_commands():
    """Two identical runs in one process send the same COMMIT bytes."""
    first = AdaptationController(adaptive_config())
    second = AdaptationController(adaptive_config())
    assert first.evaluate({MONITOR_READY_QUEUE: 200}).seq == 1
    assert second.evaluate({MONITOR_READY_QUEUE: 200}).seq == 1
    assert first.evaluate({MONITOR_READY_QUEUE: 0}).seq == 2


def test_command_action_validated():
    with pytest.raises(ValueError):
        AdaptCommand(action="explode", config=MirrorConfig(), seq=1)

