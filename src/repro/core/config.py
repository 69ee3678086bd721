"""Mirroring configuration: the parameter set behind the Table-1 API.

The paper's §3.2.1 lists the tunable parameters of the mirroring
process: (1) whether events are mirrored independently or coalesced,
(2) the maximum number of events to coalesce, (3) whether overwriting is
allowed per event type, (4) the maximum overwritten-sequence length,
(5) the checkpointing frequency, and (6) the adaptation parameters of
§3.2.2.  :class:`MirrorConfig` holds all of them plus the semantic
rules, and can build the matching :class:`~repro.core.rules.RuleEngine`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .events import UpdateEvent
from .queues import StatusTable
from .rules import (
    CoalesceRule,
    ComplexSequenceRule,
    ComplexTupleRule,
    Rule,
    RuleEngine,
)

__all__ = [
    "DEFAULT_CHECKPOINT_FREQ",
    "AdaptDirective",
    "MonitorSpec",
    "MirrorConfig",
    "PARAM_COALESCE_ENABLED",
    "PARAM_COALESCE_MAX",
    "PARAM_OVERWRITE_LEN",
    "PARAM_CHECKPOINT_FREQ",
    "PARAM_MIRROR_FUNCTION",
]

#: Default checkpoint invocation rate: "a constant frequency of once per
#: 50 processed events" (§3.2.1).
DEFAULT_CHECKPOINT_FREQ = 50

# Adaptable parameter identifiers for set_adapt(p_id, p).  The paper
# enumerates exactly these adaptations in §3.2.2.
PARAM_COALESCE_ENABLED = "coalesce_enabled"
PARAM_COALESCE_MAX = "coalesce_max"
PARAM_OVERWRITE_LEN = "overwrite_len"
PARAM_CHECKPOINT_FREQ = "checkpoint_freq"
PARAM_MIRROR_FUNCTION = "mirror_function"

_ADAPTABLE = {
    PARAM_COALESCE_ENABLED,
    PARAM_COALESCE_MAX,
    PARAM_OVERWRITE_LEN,
    PARAM_CHECKPOINT_FREQ,
    PARAM_MIRROR_FUNCTION,
}


@dataclass(frozen=True)
class AdaptDirective:
    """One ``set_adapt`` registration: change ``param`` by ``percent``
    when the adaptation triggers (a negative percent reduces it).

    For :data:`PARAM_MIRROR_FUNCTION` the ``function_name`` names the
    alternate registered mirror function to install instead.
    """

    param: str
    percent: float = 0.0
    function_name: Optional[str] = None

    def __post_init__(self):
        if self.param not in _ADAPTABLE:
            raise ValueError(f"unknown adaptable parameter {self.param!r}")
        if self.param == PARAM_MIRROR_FUNCTION and not self.function_name:
            raise ValueError("mirror_function adaptation needs function_name")


@dataclass(frozen=True)
class MonitorSpec:
    """Primary/secondary thresholds for one monitored variable (§3.2.2).

    The primary value, when reached, triggers the adaptation; the
    original configuration is reinstalled when the monitored value falls
    below ``primary - secondary``.
    """

    index: str
    primary: float
    secondary: float

    def __post_init__(self):
        if self.primary <= 0:
            raise ValueError("primary threshold must be positive")
        if not (0 <= self.secondary <= self.primary):
            raise ValueError("secondary must satisfy 0 <= secondary <= primary")

    @property
    def restore_below(self) -> float:
        return self.primary - self.secondary


@dataclass
class MirrorConfig:
    """Complete mirroring parameterisation for one server.

    Build one via :class:`repro.core.api.MirrorControl` (the paper's
    API) or directly for programmatic use.
    """

    #: (1) mirror independently vs. coalesce
    coalesce_enabled: bool = False
    #: (2) maximum number of events coalesced into one
    coalesce_max: int = 1
    #: which kinds coalescing applies to (None = all)
    coalesce_kinds: Optional[Tuple[str, ...]] = None
    #: event kinds never mirrored at all ("filtering events based on
    #: their data types" [12])
    type_filters: Tuple[str, ...] = ()
    #: (3)+(4) overwriting per event type -> max sequence length
    overwrite: Dict[str, int] = field(default_factory=dict)
    #: (5) checkpoint every N sent events
    checkpoint_freq: int = DEFAULT_CHECKPOINT_FREQ
    #: mirror-event batching: the sending task drains up to this many
    #: ready events into one wire message (sum of event sizes + one
    #: header), paying the per-message channel costs once per batch.
    #: 1 = one message per event — the paper's configuration; every
    #: figure reproduces bit-for-bit at the default.
    batch_size: int = 1
    #: snapshot fast path: serve initialization requests from the
    #: generation-cached view when state has not changed (cache hits and
    #: coalesced requests charge the cheap cached-service cost instead of
    #: a full build).  Off = the paper's serve-from-scratch economics;
    #: every figure reproduces bit-for-bit at the default.
    serve_cached_snapshots: bool = False
    #: answer resume-capable requests with delta snapshots (only the
    #: flights changed since the client's previous view).  Opt-in.
    delta_snapshots: bool = False
    #: fall back to a full view when the delta would exceed this fraction
    #: of the full snapshot's size
    delta_fallback_fraction: float = 0.25
    #: opt-in runtime invariant monitor (:mod:`repro.core.invariants`):
    #: asserts stamp/mirror-order monotonicity, min-timestamp agreement
    #: and trim safety while the server runs.  Off by default — when off,
    #: no monitor object exists and the hot paths pay one None test.
    check_invariants: bool = False
    #: complex-sequence rules: (trigger_kind, trigger_value, target_kind)
    complex_seq: List[Tuple[str, Dict[str, Any], str]] = field(default_factory=list)
    #: complex-tuple rules: (kinds, values, combined_kind, suppresses)
    complex_tuple: List[Tuple[Tuple[str, ...], Tuple[Dict[str, Any], ...], str, Tuple[str, ...]]] = field(
        default_factory=list
    )
    #: (6) adaptation directives and monitor thresholds
    adapt_directives: List[AdaptDirective] = field(default_factory=list)
    monitors: Dict[str, MonitorSpec] = field(default_factory=dict)
    #: user-supplied mirror/forward functions (set_mirror / set_fwd):
    #: callables (event, status_table) -> list of events, or None
    custom_mirror: Optional[Callable[[UpdateEvent, StatusTable], Optional[List[UpdateEvent]]]] = None
    custom_fwd: Optional[Callable[[UpdateEvent, StatusTable], Optional[List[UpdateEvent]]]] = None
    #: name of the mirror function this config was built from (reporting)
    function_name: str = "default"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError for out-of-range parameters."""
        if self.coalesce_max < 1:
            raise ValueError("coalesce_max must be >= 1")
        if self.checkpoint_freq < 1:
            raise ValueError("checkpoint_freq must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < self.delta_fallback_fraction <= 1):
            raise ValueError("delta_fallback_fraction must be in (0, 1]")
        for kind, length in self.overwrite.items():
            if length < 1:
                raise ValueError(f"overwrite length for {kind!r} must be >= 1")

    def copy(self) -> "MirrorConfig":
        """Deep, independent copy (adaptation swaps whole configs)."""
        return copy.deepcopy(self)

    def build_engine(self, table: Optional[StatusTable] = None) -> RuleEngine:
        """Construct the rule engine realising this configuration.

        Rule order follows §3.2.1: receive-side suppression/combination
        first (complex sequence, complex tuple, overwrite, then a
        ``set_fwd`` callable), a ``set_mirror`` callable and coalescing
        on the send side last.
        """
        rules: List[Rule] = []
        if self.type_filters:
            from .rules import TypeFilterRule

            rules.append(TypeFilterRule(self.type_filters))
        for trigger_kind, value, target_kind in self.complex_seq:
            rules.append(ComplexSequenceRule(trigger_kind, value, target_kind))
        for kinds, values, combined_kind, suppresses in self.complex_tuple:
            rules.append(
                ComplexTupleRule(kinds, values, combined_kind, suppresses)
            )
        for kind, length in self.overwrite.items():
            if length > 1:
                from .rules import OverwriteRule

                rules.append(OverwriteRule(kind, length))
        if self.custom_fwd is not None:
            rules.append(_CustomReceiveRule(self.custom_fwd))
        if self.custom_mirror is not None:
            rules.append(_CustomSendRule(self.custom_mirror))
        if self.coalesce_enabled and self.coalesce_max > 1:
            rules.append(
                CoalesceRule(self.coalesce_max, kinds=self.coalesce_kinds)
            )
        return RuleEngine(rules, table=table)


class _CustomSendRule(Rule):
    """Adapter for a set_mirror() callable: send-side hook only.

    One class per side (instead of one class overriding both hooks with
    a runtime ``side`` check) so the :class:`RuleEngine` dispatch index
    sees exactly the hook the callable implements and never routes
    events through the other side.
    """

    def __init__(self, func):
        super().__init__()
        self.func = func

    def on_send(self, event, table):
        return self.func(event, table)


class _CustomReceiveRule(Rule):
    """Adapter for a set_fwd() callable: receive-side hook only."""

    def __init__(self, func):
        super().__init__()
        self.func = func

    def on_receive(self, event, table):
        return self.func(event, table)
