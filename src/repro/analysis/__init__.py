"""Static analysis and protocol verification tooling (`repro-lint`).

The repo's headline guarantee — pinned, bit-identical figures — rests on
strict determinism of the simulation substrate and on the cluster
protocols' safety properties.  This package turns both from after-the-
fact regression tests into *enforced* properties:

* :mod:`repro.analysis.lint` — an AST-based linter with repo-specific
  determinism, hot-path, and protocol rules (``python -m repro lint``);
* :mod:`repro.analysis.asynclint` — async-hazard rules for the live
  runtime (``rt/``): await-interleaved state mutation, blocking calls
  on the event loop, untracked tasks, legacy asyncio APIs;
* :mod:`repro.analysis.explore` — one memoised explorer that walks
  every schedule of a protocol model, with one report type and
  replayable counterexample schedules;
* :mod:`repro.analysis.modelcheck` — its model of the 2-phase
  checkpoint protocol, built from the site cores
  (:mod:`repro.core.sitecore`) the simulator and the live cluster run,
  asserting through the runtime invariant monitor (``python -m repro
  modelcheck``);
* :mod:`repro.analysis.handoffcheck` — its model of the shard
  tombstone/transfer handoff, driving the real
  :class:`repro.shard.handoff.RoutingCore` (``python -m repro
  modelcheck --protocol handoff``);
* :mod:`repro.analysis.codecsym` — a static encode/decode symmetry
  auditor for the wire codec (``python -m repro codecsym``);
* the runtime invariant monitor lives in :mod:`repro.core.invariants`
  (it is part of the server, not of the tooling; the checkpoint model
  runs it, and the linter and the codec auditor only ever *read* the
  tree).
"""

from .codecsym import CodecAuditReport, audit_codec
from .explore import (
    ModelCheckReport,
    ModelCheckViolation,
    parse_schedule,
    replay_schedule,
    serialize_schedule,
)
from .handoffcheck import HANDOFF_MUTANTS, HandoffModel, check_handoff
from .lint import (
    DEFAULT_RULES,
    Finding,
    LintRule,
    lint_paths,
    lint_source,
)
from .modelcheck import MUTANTS, CheckpointModel, check_protocol

__all__ = [
    "CheckpointModel",
    "CodecAuditReport",
    "DEFAULT_RULES",
    "Finding",
    "HANDOFF_MUTANTS",
    "HandoffModel",
    "LintRule",
    "MUTANTS",
    "ModelCheckReport",
    "ModelCheckViolation",
    "audit_codec",
    "check_handoff",
    "check_protocol",
    "lint_paths",
    "lint_source",
    "parse_schedule",
    "replay_schedule",
    "serialize_schedule",
]
