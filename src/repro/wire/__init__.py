"""Compact, versioned binary wire format for the mirroring runtime.

``repro.wire`` is the serialization layer shared by the real socket
backend (:mod:`repro.rt.net`) and the simulation's measured-size probe:

* :mod:`repro.wire.primitives` — varints, per-connection string
  interning, tagged values.
* :mod:`repro.wire.codec` — frame header, one encoder/decoder pair per
  connection, stream reassembly (the :class:`FrameWalker` every live
  link reads through decodes a read in one call), and the
  :class:`WireSizeProbe` that lets the simulated transport charge
  *measured* frame sizes instead of modeled constants.

The package is deliberately free of I/O and of wall-clock access: it is
a pure bytes-in/bytes-out library (strict determinism lint applies), so
the same codec serves sockets, benchmarks and property tests.
"""

from .codec import (
    EOS,
    HEADER,
    MAGIC,
    RESET,
    T_BATCH,
    T_CHKPT,
    T_CHKPT_REP,
    T_COMMIT,
    T_DELTA,
    T_EOS,
    T_EVENT,
    T_HANDOFF,
    T_HELLO,
    T_REQUEST,
    T_RESET,
    T_RESPONSE,
    T_SHARD_MAP,
    T_SNAPSHOT,
    T_TRANSFER,
    WIRE_VERSION,
    FrameSplitter,
    FrameWalker,
    MAX_FRAME_BYTES,
    Hello,
    SharedFrameCache,
    WireDecoder,
    WireEncoder,
    WireSizeProbe,
)
from .primitives import (
    InternDecoder,
    InternEncoder,
    TruncatedFrame,
    WireError,
    decode_svarint,
    decode_uvarint,
    decode_value,
    encode_svarint,
    encode_uvarint,
    encode_value,
)

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER",
    "EOS",
    "RESET",
    "T_EVENT",
    "T_BATCH",
    "T_CHKPT",
    "T_CHKPT_REP",
    "T_COMMIT",
    "T_REQUEST",
    "T_RESPONSE",
    "T_SNAPSHOT",
    "T_DELTA",
    "T_EOS",
    "T_RESET",
    "T_HELLO",
    "T_SHARD_MAP",
    "T_HANDOFF",
    "T_TRANSFER",
    "WireError",
    "TruncatedFrame",
    "WireEncoder",
    "WireDecoder",
    "FrameSplitter",
    "FrameWalker",
    "MAX_FRAME_BYTES",
    "SharedFrameCache",
    "WireSizeProbe",
    "Hello",
    "InternEncoder",
    "InternDecoder",
    "encode_uvarint",
    "decode_uvarint",
    "encode_svarint",
    "decode_svarint",
    "encode_value",
    "decode_value",
]
