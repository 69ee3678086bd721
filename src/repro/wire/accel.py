"""Loader for the optional accelerated codec lane.

Importing this module never fails and never changes wire bytes: it
tries to load the compiled ``_accel`` extension and, when present,
exposes it as :data:`impl` with :data:`AVAILABLE` set.  The codec
dispatches its event/batch hot path through ``impl`` only when
available; everything else — and every environment without the built
extension — runs the pure-Python lane in
:mod:`repro.wire.primitives` / :mod:`repro.wire.codec`.

Fallback rules (also documented in DESIGN.md §13):

* ``REPRO_WIRE_ACCEL=0`` (or ``off``/``no``/``false``) disables the
  lane even when the extension is built — the escape hatch for
  debugging and for A/B parity runs.
* A missing or unbuildable extension is silent: the lane is an
  optimisation, not a feature.
* The accelerated lane shares the *same* per-connection state as the
  pure lane (the interning dict/list and the uid delta base live on the
  Python encoder/decoder objects), so pure and accelerated frames can
  interleave on one connection and RESET handling stays in Python.
* Byte identity between lanes is a hard invariant, enforced by the
  parity suite (``tests/wire/test_accel_parity.py``) and the
  ``accel-parity`` CI job.

The extension itself holds no codec state; ``configure()`` hands it the
constructors and exception types it must share with the pure lane.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = ["AVAILABLE", "impl", "disabled_by_env"]

_ENV_VAR = "REPRO_WIRE_ACCEL"
_OFF_VALUES = ("0", "off", "no", "false")


def disabled_by_env() -> bool:
    """True when the environment explicitly turns the lane off."""
    return os.environ.get(_ENV_VAR, "").strip().lower() in _OFF_VALUES


impl: Optional[Any] = None
AVAILABLE = False

if not disabled_by_env():
    try:
        from . import _accel as _impl_module
    except ImportError:
        _impl_module = None
    if _impl_module is not None:
        from ..core.events import UpdateEvent, VectorTimestamp
        from .primitives import TruncatedFrame, WireError

        _impl_module.configure(
            UpdateEvent.from_wire,
            VectorTimestamp.from_wire,
            WireError,
            TruncatedFrame,
        )
        impl = _impl_module
        AVAILABLE = True

        # primitives.py may have run its own _bind_accel while this
        # module was still mid-import (impl unset); re-bind now that
        # the lane is configured so the tagged-value fast path engages
        # regardless of import order.
        from .primitives import _bind_accel

        _bind_accel()
