"""Adaptive mirroring: monitors, thresholds with hysteresis, controller.

§3.2.2 of the paper: runtime quantities (ready/backup queue lengths,
the application-level buffer of pending client requests) are monitored
against a *primary* threshold that triggers an adaptation and a
*secondary* value defining the hysteresis band — the original mirroring
configuration is reinstalled only once the monitored value falls below
``primary - secondary``.  Decisions are made **at the central site** so
all mirrors adapt identically, and adaptation commands travel
piggybacked on checkpoint control messages (no extra adaptation
traffic).

The adaptations supported are exactly the paper's list: toggle
coalescing, change the coalesce count, change the overwrite run length,
vary the checkpoint frequency, and install a different mirroring
function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .config import (
    AdaptDirective,
    MirrorConfig,
    PARAM_CHECKPOINT_FREQ,
    PARAM_COALESCE_ENABLED,
    PARAM_COALESCE_MAX,
    PARAM_MIRROR_FUNCTION,
    PARAM_OVERWRITE_LEN,
)
from .functions import FunctionRegistry, default_registry

__all__ = [
    "MONITOR_READY_QUEUE",
    "MONITOR_BACKUP_QUEUE",
    "MONITOR_PENDING_REQUESTS",
    "AdaptCommand",
    "apply_directives",
    "AdaptationController",
]

# Canonical monitored-variable indices (§3.2.2 names these three).
MONITOR_READY_QUEUE = "ready_queue"
MONITOR_BACKUP_QUEUE = "backup_queue"
MONITOR_PENDING_REQUESTS = "pending_requests"

@dataclass(frozen=True)
class AdaptCommand:
    """An adaptation decision shipped (piggybacked) to every site.

    ``action`` is ``"adapt"`` or ``"revert"``; ``config`` is the full
    mirroring configuration to install.  Commands carry a sequence
    number, counted from 1 by the controller that issued them, so
    out-of-order delivery cannot roll a site back.
    """

    action: str
    config: MirrorConfig
    seq: int

    def __post_init__(self):
        if self.action not in ("adapt", "revert"):
            raise ValueError(f"unknown adaptation action {self.action!r}")


def apply_directives(
    base: MirrorConfig,
    directives: List[AdaptDirective],
    registry: Optional[FunctionRegistry] = None,
) -> MirrorConfig:
    """Derive the adapted configuration from ``base``.

    Percent changes round away from zero and clamp to valid ranges; a
    ``mirror_function`` directive replaces the whole configuration with
    the named registered function (later directives still apply on top,
    so "install reduced function and double its checkpoint interval"
    composes).
    """
    cfg = base.copy()
    for d in directives:
        if d.param == PARAM_MIRROR_FUNCTION:
            registry = registry if registry is not None else default_registry()
            replacement = registry.build(d.function_name)
            # Preserve the semantic rules and the snapshot serving of the
            # base configuration: the function swap changes *how much* is
            # mirrored, not the application's domain rules or how its
            # clients are served.
            replacement.complex_seq = [tuple(x) for x in cfg.complex_seq]
            replacement.complex_tuple = [tuple(x) for x in cfg.complex_tuple]
            replacement.monitors = dict(cfg.monitors)
            replacement.adapt_directives = list(cfg.adapt_directives)
            replacement.serve_cached_snapshots = cfg.serve_cached_snapshots
            replacement.delta_snapshots = cfg.delta_snapshots
            replacement.delta_fallback_fraction = cfg.delta_fallback_fraction
            cfg = replacement
            continue
        factor = 1.0 + d.percent / 100.0
        if d.param == PARAM_COALESCE_ENABLED:
            cfg.coalesce_enabled = d.percent > 0
        elif d.param == PARAM_COALESCE_MAX:
            cfg.coalesce_max = max(1, int(round(cfg.coalesce_max * factor)))
            if cfg.coalesce_max > 1:
                cfg.coalesce_enabled = True
        elif d.param == PARAM_OVERWRITE_LEN:
            if cfg.overwrite:
                cfg.overwrite = {
                    kind: max(1, int(round(length * factor)))
                    for kind, length in cfg.overwrite.items()
                }
        elif d.param == PARAM_CHECKPOINT_FREQ:
            cfg.checkpoint_freq = max(1, int(round(cfg.checkpoint_freq * factor)))
    cfg.function_name = base.function_name + "+adapted"
    cfg.validate()
    return cfg


class AdaptationController:
    """Central-site decision maker (§3.2.2's "simple adaptation strategy").

    ``evaluate`` is called with the aggregated monitored values each time
    a checkpoint round completes; it returns an :class:`AdaptCommand` to
    piggyback on the COMMIT, or ``None`` when nothing changes.

    Trigger logic: *any* monitored variable at or above its primary
    threshold switches to the adapted configuration; the base
    configuration is reinstalled only when *all* monitored variables
    have fallen below their ``primary - secondary`` restore levels.
    """

    def __init__(
        self,
        base_config: MirrorConfig,
        registry: Optional[FunctionRegistry] = None,
    ):
        self.base_config = base_config
        self.registry = registry if registry is not None else default_registry()
        self.adapted_config = apply_directives(
            base_config, base_config.adapt_directives, self.registry
        )
        self.adapted = False
        self.adaptations = 0
        self.reversions = 0
        self.history: List[tuple] = []  # (action, trigger_index, value)
        self._seqs = itertools.count(1)

    @property
    def enabled(self) -> bool:
        """Adaptation is active only when monitors and directives exist."""
        return bool(self.base_config.monitors) and bool(
            self.base_config.adapt_directives
        )

    def current_config(self) -> MirrorConfig:
        """The configuration currently in force (base or adapted)."""
        return self.adapted_config if self.adapted else self.base_config

    def evaluate(self, monitored: Dict[str, float]) -> Optional[AdaptCommand]:
        """Threshold check with hysteresis; returns a command on change."""
        if not self.enabled:
            return None
        if not self.adapted:
            for index, spec in self.base_config.monitors.items():
                value = monitored.get(index)
                if value is not None and value >= spec.primary:
                    self.adapted = True
                    self.adaptations += 1
                    self.history.append(("adapt", index, value))
                    return AdaptCommand(
                        action="adapt", config=self.adapted_config,
                        seq=next(self._seqs),
                    )
            return None
        # currently adapted: revert only when all monitors are calm
        for index, spec in self.base_config.monitors.items():
            value = monitored.get(index)
            if value is None:
                continue
            if value >= spec.restore_below:
                return None
        self.adapted = False
        self.reversions += 1
        self.history.append(("revert", None, math.nan))
        return AdaptCommand(
            action="revert", config=self.base_config, seq=next(self._seqs)
        )
