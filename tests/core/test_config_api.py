"""Unit tests for MirrorConfig, the Table-1 API, and function presets."""

import pytest

from repro.core.api import MirrorControl, UnboundControlError
from repro.core.config import (
    DEFAULT_CHECKPOINT_FREQ,
    AdaptDirective,
    MirrorConfig,
    MonitorSpec,
    PARAM_CHECKPOINT_FREQ,
    PARAM_MIRROR_FUNCTION,
    PARAM_OVERWRITE_LEN,
)
from repro.core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent
from repro.core.functions import (
    adaptive_normal,
    adaptive_reduced,
    airline_semantic_rules,
    coalescing_mirroring,
    default_registry,
    selective_low_chkpt,
    selective_mirroring,
    simple_mirroring,
    FunctionRegistry,
)
from repro.core.rules import CoalesceRule, OverwriteRule

_seq = iter(range(1, 10000))


def ev(kind=FAA_POSITION, key="DL1", **payload):
    return UpdateEvent(kind=kind, stream="faa", seqno=next(_seq), key=key, payload=payload)


# ------------------------------------------------------------ MirrorConfig
def test_config_defaults_match_paper():
    cfg = MirrorConfig()
    assert cfg.checkpoint_freq == DEFAULT_CHECKPOINT_FREQ == 50
    assert not cfg.coalesce_enabled


def test_config_validation():
    with pytest.raises(ValueError):
        MirrorConfig(coalesce_max=0)
    with pytest.raises(ValueError):
        MirrorConfig(checkpoint_freq=0)
    with pytest.raises(ValueError):
        MirrorConfig(overwrite={FAA_POSITION: 0})


def test_config_copy_is_deep():
    cfg = MirrorConfig(overwrite={FAA_POSITION: 5})
    cp = cfg.copy()
    cp.overwrite[FAA_POSITION] = 99
    assert cfg.overwrite[FAA_POSITION] == 5


def test_config_build_engine_rule_composition():
    cfg = MirrorConfig(
        coalesce_enabled=True,
        coalesce_max=4,
        overwrite={FAA_POSITION: 3},
    )
    engine = cfg.build_engine()
    kinds = [type(r) for r in engine.rules]
    assert OverwriteRule in kinds
    assert CoalesceRule in kinds
    # overwrite runs receive-side before the send-side coalesce
    assert kinds.index(OverwriteRule) < kinds.index(CoalesceRule)


def test_config_engine_skips_disabled_features():
    engine = MirrorConfig().build_engine()
    assert engine.rules == []
    engine = MirrorConfig(overwrite={FAA_POSITION: 1}).build_engine()
    assert engine.rules == []  # length-1 overwrite is a no-op


@pytest.mark.parametrize(
    "field, side, other",
    [("custom_mirror", "on_send", "on_receive"),
     ("custom_fwd", "on_receive", "on_send")],
    ids=["custom_mirror", "custom_fwd"],
)
def test_config_custom_mirror_hook_runs_send_side(field, side, other):
    """``set_mirror``'s callable runs on the send side, ``set_fwd``'s on
    the receive side, and each leaves the other side alone."""
    seen = []

    def custom(event, table):
        seen.append(event.kind)
        return []  # drop everything

    engine = MirrorConfig(**{field: custom}).build_engine()
    assert getattr(engine, side)(ev()) == []
    assert getattr(engine, other)(ev()) != []  # the other side untouched
    assert seen == [FAA_POSITION]
    assert engine.forward_many([ev()]) == []


# ---------------------------------------------------------- AdaptDirective
def test_adapt_directive_validation():
    AdaptDirective(param=PARAM_CHECKPOINT_FREQ, percent=100)
    with pytest.raises(ValueError):
        AdaptDirective(param="bogus", percent=10)
    with pytest.raises(ValueError):
        AdaptDirective(param=PARAM_MIRROR_FUNCTION)  # needs function_name
    AdaptDirective(param=PARAM_MIRROR_FUNCTION, function_name="adaptive_reduced")


def test_monitor_spec_validation():
    spec = MonitorSpec(index="ready_queue", primary=100, secondary=40)
    assert spec.restore_below == 60
    with pytest.raises(ValueError):
        MonitorSpec(index="x", primary=0, secondary=0)
    with pytest.raises(ValueError):
        MonitorSpec(index="x", primary=10, secondary=20)


# ------------------------------------------------------------ MirrorControl
class FakeHost:
    def __init__(self):
        self.configs = []
        self.mirrored = 0
        self.forwarded = 0

    def apply_config(self, config):
        self.configs.append(config)

    def do_mirror(self):
        self.mirrored += 1

    def do_fwd(self):
        self.forwarded += 1


def test_control_init_builds_default_config():
    ctl = MirrorControl()
    cfg = ctl.init()
    assert not cfg.coalesce_enabled
    assert cfg.checkpoint_freq == 50
    assert ctl.initialized


def test_control_init_with_coalescing():
    ctl = MirrorControl()
    cfg = ctl.init(c=True, number=10, l=1)
    assert cfg.coalesce_enabled and cfg.coalesce_max == 10


def test_control_mirror_fwd_require_binding():
    ctl = MirrorControl()
    with pytest.raises(UnboundControlError):
        ctl.mirror()
    with pytest.raises(UnboundControlError):
        ctl.fwd()


def test_control_bound_mirror_fwd_delegate():
    ctl, host = MirrorControl(), FakeHost()
    ctl.bind(host)
    ctl.mirror()
    ctl.fwd()
    assert host.mirrored == 1 and host.forwarded == 1


def test_control_set_params_pushes_to_host():
    ctl, host = MirrorControl(), FakeHost()
    ctl.bind(host)
    ctl.set_params(True, 5, 100)
    cfg = host.configs[-1]
    assert cfg.coalesce_enabled and cfg.coalesce_max == 5
    assert cfg.checkpoint_freq == 100


def test_control_set_overwrite():
    ctl = MirrorControl()
    ctl.set_overwrite(FAA_POSITION, 10)
    assert ctl.config.overwrite[FAA_POSITION] == 10
    with pytest.raises(ValueError):
        ctl.set_overwrite(FAA_POSITION, 0)


def test_control_set_complex_seq():
    ctl = MirrorControl()
    ctl.set_complex_seq(DELTA_STATUS, {"status": "flight landed"}, FAA_POSITION)
    assert ctl.config.complex_seq == [
        (DELTA_STATUS, {"status": "flight landed"}, FAA_POSITION)
    ]


def test_control_set_complex_tuple_checks_arity():
    ctl = MirrorControl()
    ctl.set_complex_tuple(
        ["a", "b"], [{"s": 1}, {"s": 2}], 2, combined_kind="combo"
    )
    kinds, values, combined, _ = ctl.config.complex_tuple[0]
    assert kinds == ("a", "b") and combined == "combo"
    with pytest.raises(ValueError):
        ctl.set_complex_tuple(["a"], [{}], 2)


def test_control_set_adapt_and_monitors():
    ctl = MirrorControl()
    ctl.set_adapt(PARAM_OVERWRITE_LEN, 100.0)
    ctl.set_monitor_values("ready_queue", 200, 80)
    assert ctl.config.adapt_directives[0].param == PARAM_OVERWRITE_LEN
    assert ctl.config.monitors["ready_queue"].primary == 200


def test_control_set_mirror_requires_callable():
    ctl = MirrorControl()
    with pytest.raises(TypeError):
        ctl.set_mirror("not callable")
    with pytest.raises(TypeError):
        ctl.set_fwd(42)
    ctl.set_mirror(lambda e, t: None)
    ctl.set_fwd(lambda e, t: None)
    assert ctl.config.custom_mirror is not None


# -------------------------------------------------------- function presets
def test_simple_vs_selective_presets():
    simple = simple_mirroring()
    sel = selective_mirroring(overwrite_len=10)
    assert simple.overwrite == {}
    assert sel.overwrite == {FAA_POSITION: 10}
    assert sel.function_name == "selective"


def test_selective_low_chkpt_halves_frequency():
    cfg = selective_low_chkpt(base_freq=50)
    # checkpointing half as often = every 100 events
    assert cfg.checkpoint_freq == 100


def test_adaptive_pair_matches_fig9_description():
    normal, reduced = adaptive_normal(), adaptive_reduced()
    assert normal.coalesce_enabled and normal.coalesce_max == 10
    assert normal.checkpoint_freq == 50
    assert reduced.overwrite == {FAA_POSITION: 20}
    assert reduced.checkpoint_freq == 100


def test_airline_semantic_rules_attach():
    cfg = airline_semantic_rules(simple_mirroring())
    assert len(cfg.complex_seq) == 1
    assert len(cfg.complex_tuple) == 1
    kinds, _values, combined, suppresses = cfg.complex_tuple[0]
    assert combined.endswith("arrived")
    assert FAA_POSITION in suppresses


def test_default_registry_contents():
    reg = default_registry()
    assert set(reg.names()) >= {
        "simple", "selective", "selective_low_chkpt",
        "coalescing", "adaptive_normal", "adaptive_reduced",
    }
    cfg = reg.build("selective")
    assert cfg.function_name == "selective"
    assert "simple" in reg
    with pytest.raises(KeyError):
        reg.build("nope")


def test_registry_rejects_duplicates():
    reg = FunctionRegistry()
    reg.register("f", simple_mirroring)
    with pytest.raises(ValueError):
        reg.register("f", simple_mirroring)


def test_coalescing_preset():
    cfg = coalescing_mirroring(coalesce_max=7)
    engine = cfg.build_engine()
    assert any(isinstance(r, CoalesceRule) for r in engine.rules)


def test_config_type_filters_build_rule():
    from repro.core.rules import TypeFilterRule

    cfg = MirrorConfig(type_filters=(DELTA_STATUS,))
    engine = cfg.build_engine()
    assert isinstance(engine.rules[0], TypeFilterRule)
    assert engine.on_receive(ev(kind=DELTA_STATUS)) == []
    assert len(engine.on_receive(ev(kind=FAA_POSITION))) == 1


def test_control_set_type_filter():
    ctl = MirrorControl()
    ctl.set_type_filter(DELTA_STATUS, "noise.kind")
    assert ctl.config.type_filters == (DELTA_STATUS, "noise.kind")
    with pytest.raises(ValueError):
        ctl.set_type_filter()
