"""Versioned binary framing for every message the runtime moves.

Frame layout (all integers little-endian)::

    +------+---------+------+-------+-------------+=============+
    | 0xA5 | version | type | flags | body length |    body     |
    +------+---------+------+-------+-------------+=============+
      u8       u8      u8      u8        u32        length bytes

The 8-byte header is one ``struct.Struct("<BBBBI")`` pack; the body is
type-specific and built from the primitives in
:mod:`repro.wire.primitives` (varints, interned strings, tagged values).
Batches are framed in a single output buffer — one BATCH frame carries
``count`` length-prefixed event bodies — and decoded by slicing a
``memoryview`` over the received frame, so neither side copies the
payload a second time.

Versioning rules
----------------
* The magic byte never changes; a connection speaking anything else is
  not this protocol.
* ``version`` is bumped on any incompatible body-layout change; a
  decoder rejects frames from a different version outright (the cluster
  upgrades in lockstep — there is no cross-version negotiation).
* ``flags`` is reserved (must be zero today) so compression or checksum
  bits can be added without a version bump.
* New *frame types* may be added within a version; decoders reject
  unknown types loudly rather than skipping them.

Connection state
----------------
Encoder and decoder each hold a per-connection string-interning table.
The encoder may emit a RESET frame at any point (e.g. after a
reconnect) — both sides drop their tables and the next occurrence of
every string travels literally again.  Tables are strictly
prefix-deterministic, so a decoder fed the concatenation of everything
an encoder produced always agrees.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.adaptation import AdaptCommand
from ..core.checkpoint import ChkptMsg, ChkptRepMsg, CommitMsg
from ..core.config import MirrorConfig
from ..core.events import EOS, EventBatch, UpdateEvent, VectorTimestamp
from ..ois.clients import InitStateRequest, InitStateResponse
from ..ois.state import DeltaSnapshot, FlightView, StateSnapshot
from ..shard.handoff import ShardHandoff, ShardTransfer
from ..shard.partition import ShardMap
from ..sub.messages import MATCH_ALL_NODES, SubAck, Subscribe, Unsubscribe
from . import accel as _accel
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
    "T_SUBSCRIBE",
    "T_UNSUBSCRIBE",
    "T_SUB_ACK",
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
]

MAGIC = 0xA5
WIRE_VERSION = 1
HEADER = struct.Struct("<BBBBI")
#: Longest body a frame header may claim.  A header past it is rejected
#: before any of its body is buffered, so a peer cannot make a
#: connection hold more than this for one frame.  The largest frames the
#: encoders produce are whole-state SNAPSHOTs, about 55 bytes a flight
#: (2 000 flights: 107 kB), so this holds about 150 000 flights.
MAX_FRAME_BYTES = 8 << 20

# Frame types.  New types may be added within a wire version; existing
# body layouts may not change without bumping WIRE_VERSION.
T_EVENT = 0x01
T_BATCH = 0x02
T_CHKPT = 0x03
T_CHKPT_REP = 0x04
T_COMMIT = 0x05
T_REQUEST = 0x06
T_RESPONSE = 0x07
T_SNAPSHOT = 0x08
T_DELTA = 0x09
T_EOS = 0x0A
T_RESET = 0x0B
T_HELLO = 0x0C
T_SHARD_MAP = 0x0D
T_HANDOFF = 0x0E
T_TRANSFER = 0x0F
T_SUBSCRIBE = 0x10
T_UNSUBSCRIBE = 0x11
T_SUB_ACK = 0x12

class _Reset:
    """Marker object a decoder returns for a RESET frame (already
    applied to its own tables by the time the caller sees it)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<wire RESET>"


RESET = _Reset()


class Hello:
    """Connection preamble: who is connecting and in what role."""

    __slots__ = ("role", "name")

    def __init__(self, role: str, name: str):
        self.role = role
        self.name = name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hello):
            return NotImplemented
        return self.role == other.role and self.name == other.name

    def __hash__(self) -> int:
        return hash((self.role, self.name))

    def __repr__(self) -> str:
        return f"Hello(role={self.role!r}, name={self.name!r})"


_F64 = struct.Struct("<d")

#: Default ``UpdateEvent.size`` (the dataclass default in
#: :mod:`repro.core.events`): elided from event bodies via a flag bit.
_DEFAULT_EVENT_SIZE = 1024

# Event-body flag bits.  Common-case fields collapse into one byte:
# almost every mirrored event has the default modeled size, represents a
# single source event, and carries a timestamp whose own-stream
# component equals its seqno (the receiving task stamped it that way).
_EF_SIZE_DEFAULT = 1  # size == _DEFAULT_EVENT_SIZE, size varint omitted
_EF_SINGLE = 2  # coalesced_from == 1, varint omitted
_EF_VT = 4  # vt present
_EF_VT_OWN = 8  # vt[stream] == seqno; that component omitted
_EF_UNSTAMPED_AT = 16  # entered_at == 0.0, f64 omitted

# Subscription-frame flag bits: the two overwhelmingly common shapes
# collapse to a flags byte with the variable part elided entirely.
_SF_MATCH_ALL = 1  # SUBSCRIBE carries MatchAll(), node list omitted
_SF_ALL_SUBS = 1  # UNSUBSCRIBE drops every subscription, sub_id omitted

#: MirrorConfig fields an adaptation command carries over the wire.
#: Callables (custom mirror/fwd hooks) and the monitor/directive wiring
#: stay process-local: each process rebuilds behaviour from these
#: structural parameters, which is all a *mirror* needs to apply a
#: piggybacked adaptation (the decision was made at the central site).
_CONFIG_WIRE_FIELDS = (
    "coalesce_enabled",
    "coalesce_max",
    "coalesce_kinds",
    "type_filters",
    "overwrite",
    "checkpoint_freq",
    "batch_size",
    "serve_cached_snapshots",
    "delta_snapshots",
    "delta_fallback_fraction",
    "function_name",
)


def _check_header(
    magic: int, version: int, mtype: int, flags: int, length: int
) -> None:
    """Reject a frame header no body may follow: wrong magic or version,
    reserved flags set, a bodyless control frame that claims a body, or
    a body past :data:`MAX_FRAME_BYTES`."""
    if magic != MAGIC:
        raise WireError(f"bad magic byte 0x{magic:02x}")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version {version} not supported (speaking {WIRE_VERSION})"
        )
    if flags != 0:
        raise WireError(f"reserved flags set: 0x{flags:02x}")
    if length and mtype in (T_EOS, T_RESET):
        # bodyless control frames: a length here means the stream is
        # corrupt, and buffering `length` bytes of the *following*
        # frames as this frame's body would lose them silently (the
        # decoder used to ignore RESET/EOS body bytes entirely) — fail
        # loudly before any body is taken
        raise WireError(
            f"control frame 0x{mtype:02x} claims a {length}-byte "
            "body; RESET/EOS frames are bodyless"
        )
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame 0x{mtype:02x} claims a {length}-byte body, "
            f"past the {MAX_FRAME_BYTES}-byte bound"
        )


class WireEncoder:
    """One side of a connection: stateful (interning) frame encoder."""

    __slots__ = ("_interner", "_scratch", "_last_uid", "frames_out", "bytes_out")

    def __init__(self) -> None:
        self._interner = InternEncoder()
        self._scratch = bytearray()
        # uids travel as deltas from the previous event on this
        # connection (they are near-consecutive at the source), so the
        # decoder keeps the mirror of this counter
        self._last_uid = 0
        self.frames_out = 0
        self.bytes_out = 0

    # -- framing -------------------------------------------------------
    def _frame(self, mtype: int, body: bytearray) -> bytes:
        frame = bytearray(HEADER.size + len(body))
        HEADER.pack_into(frame, 0, MAGIC, WIRE_VERSION, mtype, 0, len(body))
        frame[HEADER.size:] = body
        self.frames_out += 1
        self.bytes_out += len(frame)
        return bytes(frame)

    def reset(self) -> bytes:
        """Drop connection state (interning table, uid delta base);
        returns the RESET frame to send."""
        self._interner.reset()
        self._last_uid = 0
        return self._frame(T_RESET, bytearray())

    # -- bodies --------------------------------------------------------
    def _vt_body(self, vt: Optional[VectorTimestamp], out: bytearray) -> None:
        if vt is None:
            out.append(0)
            return
        out.append(1)
        clock = vt.as_dict()
        encode_uvarint(len(clock), out)
        for stream, seq in clock.items():
            self._interner.encode(stream, out)
            encode_uvarint(seq, out)

    def _event_body(self, ev: UpdateEvent, out: bytearray) -> None:
        vt = ev.vt
        flags = 0
        if ev.size == _DEFAULT_EVENT_SIZE:
            flags |= _EF_SIZE_DEFAULT
        if ev.coalesced_from == 1:
            flags |= _EF_SINGLE
        if vt is not None:
            flags |= _EF_VT
            if ev.seqno > 0 and vt.component(ev.stream) == ev.seqno:
                flags |= _EF_VT_OWN
        if ev.entered_at == 0.0:
            flags |= _EF_UNSTAMPED_AT
        out.append(flags)
        self._interner.encode(ev.kind, out)
        self._interner.encode(ev.stream, out)
        encode_uvarint(ev.seqno, out)
        self._interner.encode(ev.key, out)
        encode_value(ev.payload, out, self._interner)
        if not flags & _EF_SIZE_DEFAULT:
            encode_uvarint(ev.size, out)
        if vt is not None:
            clock = vt.as_dict()
            if flags & _EF_VT_OWN:
                items = [(s, q) for s, q in clock.items() if s != ev.stream]
            else:
                items = list(clock.items())
            encode_uvarint(len(items), out)
            for stream, seq in items:
                self._interner.encode(stream, out)
                encode_uvarint(seq, out)
        if not flags & _EF_UNSTAMPED_AT:
            out += _F64.pack(ev.entered_at)
        if not flags & _EF_SINGLE:
            encode_uvarint(ev.coalesced_from, out)
        encode_svarint(ev.uid - self._last_uid, out)
        self._last_uid = ev.uid

    def encode_event(self, ev: UpdateEvent) -> bytes:
        # hot path: the C lane builds the whole frame in one buffer,
        # sharing this encoder's interning dict and uid delta base so
        # its bytes are identical to the pure lane below
        acc = _accel.impl
        if acc is not None:
            frame, self._last_uid = acc.encode_event_frame(
                ev, self._interner._ids, self._last_uid
            )
            self.frames_out += 1
            self.bytes_out += len(frame)
            return frame
        body = bytearray()
        self._event_body(ev, body)
        return self._frame(T_EVENT, body)

    def encode_events(self, events: Sequence[UpdateEvent]) -> bytes:
        """Frame each event as its own EVENT frame, back to back, in one
        ``bytes``: the same bytes as one :meth:`encode_event` per event,
        joined."""
        acc = _accel.impl
        if acc is not None:
            ids, uid = self._interner._ids, self._last_uid
            frames = []
            for ev in events:
                frame, uid = acc.encode_event_frame(ev, ids, uid)
                frames.append(frame)
            self._last_uid = uid
            data = b"".join(frames)
            self.frames_out += len(frames)
            self.bytes_out += len(data)
            return data
        return b"".join([self.encode_event(ev) for ev in events])

    def encode_batch(self, batch: Union[EventBatch, List[UpdateEvent]]) -> bytes:
        """Frame several events as one BATCH: ``count`` length-prefixed
        event bodies in a single output buffer."""
        events = batch.events if isinstance(batch, EventBatch) else batch
        acc = _accel.impl
        if acc is not None:
            frame, self._last_uid = acc.encode_batch_frame(
                events, self._interner._ids, self._last_uid
            )
            self.frames_out += 1
            self.bytes_out += len(frame)
            return frame
        body = bytearray()
        encode_uvarint(len(events), body)
        scratch = self._scratch
        for ev in events:
            scratch.clear()
            self._event_body(ev, scratch)
            encode_uvarint(len(scratch), body)
            body += scratch
        return self._frame(T_BATCH, body)

    def encode_chkpt(self, msg: ChkptMsg) -> bytes:
        body = bytearray()
        encode_uvarint(msg.round_id, body)
        self._vt_body(msg.vt, body)
        return self._frame(T_CHKPT, body)

    def encode_chkpt_rep(self, msg: ChkptRepMsg) -> bytes:
        body = bytearray()
        encode_uvarint(msg.round_id, body)
        self._interner.encode(msg.site, body)
        self._vt_body(msg.vt, body)
        encode_uvarint(len(msg.monitored), body)
        for index, value in msg.monitored.items():
            self._interner.encode(index, body)
            body += _F64.pack(value)
        return self._frame(T_CHKPT_REP, body)

    def encode_commit(self, msg: CommitMsg) -> bytes:
        body = bytearray()
        encode_uvarint(msg.round_id, body)
        self._vt_body(msg.vt, body)
        adapt = msg.adapt
        if adapt is None:
            body.append(0)
        else:
            body.append(1)
            body.append(0 if adapt.action == "adapt" else 1)
            encode_uvarint(adapt.seq, body)
            cfg = adapt.config
            fields: Dict[str, Any] = {}
            for name in _CONFIG_WIRE_FIELDS:
                value = getattr(cfg, name)
                if isinstance(value, tuple):
                    value = list(value)
                fields[name] = value
            encode_value(fields, body, self._interner)
        return self._frame(T_COMMIT, body)

    def encode_request(self, req: InitStateRequest) -> bytes:
        body = bytearray()
        self._interner.encode(req.client_id, body)
        body += _F64.pack(req.issued_at)
        self._interner.encode(req.reply_to, body)
        if req.resume_generation is None:
            body.append(0)
        else:
            body.append(1)
            encode_uvarint(req.resume_generation, body)
        if req.resume_as_of is None:
            body.append(0)
        else:
            body.append(1)
            encode_uvarint(len(req.resume_as_of), body)
            for stream, seq in req.resume_as_of.items():
                self._interner.encode(stream, body)
                encode_uvarint(seq, body)
        return self._frame(T_REQUEST, body)

    def encode_response(self, resp: InitStateResponse) -> bytes:
        body = bytearray()
        self._interner.encode(resp.client_id, body)
        body += _F64.pack(resp.issued_at)
        body += _F64.pack(resp.served_at)
        encode_uvarint(resp.snapshot_size, body)
        self._interner.encode(resp.served_by, body)
        encode_uvarint(resp.generation, body)
        flags = (1 if resp.delta else 0) | (2 if resp.degraded else 0)
        flags |= 4 if resp.full_size is not None else 0
        body.append(flags)
        if resp.full_size is not None:
            encode_uvarint(resp.full_size, body)
        return self._frame(T_RESPONSE, body)

    def _flights_body(self, flights: Tuple[FlightView, ...], out: bytearray) -> None:
        encode_uvarint(len(flights), out)
        for fv in flights:
            self._interner.encode(fv.flight_id, out)
            self._interner.encode(fv.status, out)
            encode_uvarint(fv.passengers_expected, out)
            encode_uvarint(fv.passengers_boarded, out)
            encode_uvarint(fv.updates_applied, out)
            out.append(1 if fv.arrived else 0)
            encode_value(fv.position, out, self._interner)

    def _marks_body(self, marks, out: bytearray) -> None:
        encode_uvarint(len(marks), out)
        for stream, seq in marks.items():
            self._interner.encode(stream, out)
            encode_uvarint(seq, out)

    def encode_snapshot(self, snap: StateSnapshot) -> bytes:
        body = bytearray()
        body += _F64.pack(snap.taken_at)
        encode_uvarint(snap.flight_count, body)
        encode_uvarint(snap.size, body)
        encode_uvarint(snap.generation, body)
        self._marks_body(snap.as_of, body)
        self._flights_body(snap.flights, body)
        return self._frame(T_SNAPSHOT, body)

    def encode_delta(self, delta: DeltaSnapshot) -> bytes:
        body = bytearray()
        body += _F64.pack(delta.taken_at)
        encode_uvarint(delta.base_generation, body)
        encode_uvarint(delta.generation, body)
        encode_uvarint(delta.flight_count, body)
        encode_uvarint(delta.size, body)
        encode_uvarint(delta.full_size, body)
        self._marks_body(delta.as_of, body)
        self._flights_body(delta.flights, body)
        return self._frame(T_DELTA, body)

    def encode_shard_map(self, smap: ShardMap) -> bytes:
        body = bytearray()
        self._interner.encode(smap.strategy, body)
        encode_uvarint(len(smap.names), body)
        for name, port in zip(smap.names, smap.client_ports):
            self._interner.encode(name, body)
            encode_uvarint(port, body)
        return self._frame(T_SHARD_MAP, body)

    def _handoff_header(self, msg, out: bytearray) -> None:
        self._interner.encode(msg.flight_id, out)
        self._interner.encode(msg.airport, out)
        encode_uvarint(msg.from_shard, out)
        encode_uvarint(msg.to_shard, out)
        encode_uvarint(msg.seq, out)

    def encode_handoff(self, msg: ShardHandoff) -> bytes:
        body = bytearray()
        self._handoff_header(msg, body)
        return self._frame(T_HANDOFF, body)

    def encode_transfer(self, msg: ShardTransfer) -> bytes:
        body = bytearray()
        self._handoff_header(msg, body)
        # flight-view count doubles as the presence flag: 0 when the old
        # shard had never seen the flight, 1 otherwise
        view = msg.view
        self._flights_body((view,) if view is not None else (), body)
        encode_uvarint(len(msg.arrival_seen), body)
        for status in msg.arrival_seen:
            self._interner.encode(status, body)
        return self._frame(T_TRANSFER, body)

    def encode_subscribe(self, msg: Subscribe) -> bytes:
        body = bytearray()
        flags = 0
        if msg.nodes == MATCH_ALL_NODES:
            flags |= _SF_MATCH_ALL
        body.append(flags)
        self._interner.encode(msg.client_id, body)
        encode_uvarint(msg.sub_id, body)
        if not flags & _SF_MATCH_ALL:
            encode_uvarint(len(msg.nodes), body)
            for opcode, operand, n_children in msg.nodes:
                body.append(opcode)
                encode_value(operand, body, self._interner)
                encode_uvarint(n_children, body)
        return self._frame(T_SUBSCRIBE, body)

    def encode_unsubscribe(self, msg: Unsubscribe) -> bytes:
        body = bytearray()
        flags = 0
        sub_id = msg.sub_id
        if sub_id is None:
            flags |= _SF_ALL_SUBS
            sub_id = 0
        body.append(flags)
        self._interner.encode(msg.client_id, body)
        if not flags & _SF_ALL_SUBS:
            encode_uvarint(sub_id, body)
        return self._frame(T_UNSUBSCRIBE, body)

    def encode_sub_ack(self, msg: SubAck) -> bytes:
        body = bytearray()
        self._interner.encode(msg.client_id, body)
        encode_uvarint(msg.sub_id, body)
        encode_uvarint(msg.active, body)
        return self._frame(T_SUB_ACK, body)

    def encode_eos(self) -> bytes:
        return self._frame(T_EOS, bytearray())

    def encode_hello(self, hello: Hello) -> bytes:
        body = bytearray()
        self._interner.encode(hello.role, body)
        self._interner.encode(hello.name, body)
        return self._frame(T_HELLO, body)

    def encode_message(self, obj: Any) -> bytes:
        """Encode any supported message object (dispatch by type)."""
        if isinstance(obj, UpdateEvent):
            return self.encode_event(obj)
        if isinstance(obj, EventBatch):
            return self.encode_batch(obj)
        if isinstance(obj, ChkptMsg):
            return self.encode_chkpt(obj)
        if isinstance(obj, ChkptRepMsg):
            return self.encode_chkpt_rep(obj)
        if isinstance(obj, CommitMsg):
            return self.encode_commit(obj)
        if isinstance(obj, InitStateRequest):
            return self.encode_request(obj)
        if isinstance(obj, InitStateResponse):
            return self.encode_response(obj)
        if isinstance(obj, DeltaSnapshot):
            return self.encode_delta(obj)
        if isinstance(obj, StateSnapshot):
            return self.encode_snapshot(obj)
        if isinstance(obj, Hello):
            return self.encode_hello(obj)
        if isinstance(obj, ShardHandoff):
            return self.encode_handoff(obj)
        if isinstance(obj, ShardTransfer):
            return self.encode_transfer(obj)
        if isinstance(obj, ShardMap):
            return self.encode_shard_map(obj)
        if isinstance(obj, Subscribe):
            return self.encode_subscribe(obj)
        if isinstance(obj, Unsubscribe):
            return self.encode_unsubscribe(obj)
        if isinstance(obj, SubAck):
            return self.encode_sub_ack(obj)
        if obj == EOS:
            return self.encode_eos()
        raise WireError(f"no wire encoding for {type(obj).__name__}")


class WireDecoder:
    """Receiver half of a connection: decodes frame bodies."""

    __slots__ = ("_interner", "_last_uid", "frames_in", "bytes_in")

    def __init__(self) -> None:
        self._interner = InternDecoder()
        self._last_uid = 0
        self.frames_in = 0
        self.bytes_in = 0

    # -- bodies --------------------------------------------------------
    def _vt(self, buf, pos: int) -> Tuple[Optional[VectorTimestamp], int]:
        if pos >= len(buf):
            raise TruncatedFrame("timestamp presence byte missing")
        present = buf[pos]
        pos += 1
        if not present:
            return None, pos
        count, pos = decode_uvarint(buf, pos)
        clock: Dict[str, int] = {}
        for _ in range(count):
            stream, pos = self._interner.decode(buf, pos)
            seq, pos = decode_uvarint(buf, pos)
            clock[stream] = seq
        return VectorTimestamp.from_wire(clock), pos

    def _event(self, buf, pos: int) -> Tuple[UpdateEvent, int]:
        if pos >= len(buf):
            raise TruncatedFrame("event flags byte missing")
        flags = buf[pos]
        pos += 1
        kind, pos = self._interner.decode(buf, pos)
        stream, pos = self._interner.decode(buf, pos)
        seqno, pos = decode_uvarint(buf, pos)
        key, pos = self._interner.decode(buf, pos)
        payload, pos = decode_value(buf, pos, self._interner)
        if flags & _EF_SIZE_DEFAULT:
            size = _DEFAULT_EVENT_SIZE
        else:
            size, pos = decode_uvarint(buf, pos)
        vt = None
        if flags & _EF_VT:
            count, pos = decode_uvarint(buf, pos)
            clock: Dict[str, int] = {}
            for _ in range(count):
                comp_stream, pos = self._interner.decode(buf, pos)
                comp_seq, pos = decode_uvarint(buf, pos)
                clock[comp_stream] = comp_seq
            if flags & _EF_VT_OWN:
                clock[stream] = seqno
            vt = VectorTimestamp.from_wire(clock)
        if flags & _EF_UNSTAMPED_AT:
            entered_at = 0.0
        else:
            entered_at, pos = self._f64(buf, pos)
        if flags & _EF_SINGLE:
            coalesced_from = 1
        else:
            coalesced_from, pos = decode_uvarint(buf, pos)
        delta, pos = decode_svarint(buf, pos)
        uid = self._last_uid + delta
        self._last_uid = uid
        return (
            UpdateEvent.from_wire(
                kind, stream, seqno, key, payload, size, vt,
                entered_at, coalesced_from, uid,
            ),
            pos,
        )

    def _marks(self, buf, pos: int) -> Tuple[Dict[str, int], int]:
        count, pos = decode_uvarint(buf, pos)
        marks: Dict[str, int] = {}
        for _ in range(count):
            stream, pos = self._interner.decode(buf, pos)
            seq, pos = decode_uvarint(buf, pos)
            marks[stream] = seq
        return marks, pos

    def _flights(self, buf, pos: int) -> Tuple[Tuple[FlightView, ...], int]:
        count, pos = decode_uvarint(buf, pos)
        flights: List[FlightView] = []
        for _ in range(count):
            flight_id, pos = self._interner.decode(buf, pos)
            status, pos = self._interner.decode(buf, pos)
            expected, pos = decode_uvarint(buf, pos)
            boarded, pos = decode_uvarint(buf, pos)
            applied, pos = decode_uvarint(buf, pos)
            if pos >= len(buf):
                raise TruncatedFrame("flight view runs past end of frame")
            arrived = bool(buf[pos])
            pos += 1
            position, pos = decode_value(buf, pos, self._interner)
            flights.append(
                FlightView(
                    flight_id=flight_id,
                    status=status,
                    passengers_expected=expected,
                    passengers_boarded=boarded,
                    updates_applied=applied,
                    arrived=arrived,
                    position=position,
                )
            )
        return tuple(flights), pos

    def _handoff_header(
        self, buf, pos: int
    ) -> Tuple[Tuple[str, str, int, int, int], int]:
        flight_id, pos = self._interner.decode(buf, pos)
        airport, pos = self._interner.decode(buf, pos)
        from_shard, pos = decode_uvarint(buf, pos)
        to_shard, pos = decode_uvarint(buf, pos)
        seq, pos = decode_uvarint(buf, pos)
        return (flight_id, airport, from_shard, to_shard, seq), pos

    def _f64(self, buf, pos: int) -> Tuple[float, int]:
        end = pos + 8
        if end > len(buf):
            raise TruncatedFrame("float field runs past end of frame")
        return _F64.unpack_from(buf, pos)[0], end

    # -- frames --------------------------------------------------------
    def decode_body(self, mtype: int, body) -> Any:
        """Decode one frame body (a bytes-like / memoryview)."""
        self.frames_in += 1
        self.bytes_in += HEADER.size + len(body)
        if mtype == T_EVENT:
            acc = _accel.impl
            if acc is not None:
                ev, self._last_uid = acc.decode_event_body(
                    body, self._interner._table, self._last_uid
                )
                return ev
            ev, pos = self._event(body, 0)
            self._check_consumed(body, pos)
            return ev
        if mtype == T_BATCH:
            acc = _accel.impl
            if acc is not None:
                decoded, self._last_uid = acc.decode_batch_body(
                    body, self._interner._table, self._last_uid
                )
                return EventBatch(decoded)
            mv = memoryview(body) if not isinstance(body, memoryview) else body
            count, pos = decode_uvarint(mv, 0)
            events: List[UpdateEvent] = []
            for _ in range(count):
                length, pos = decode_uvarint(mv, pos)
                end = pos + length
                if end > len(mv):
                    raise TruncatedFrame("batch member runs past end of frame")
                ev, used = self._event(mv[pos:end], 0)
                if used != length:
                    raise WireError("batch member body has trailing bytes")
                events.append(ev)
                pos = end
            self._check_consumed(mv, pos)
            return EventBatch(events)
        if mtype == T_CHKPT:
            round_id, pos = decode_uvarint(body, 0)
            vt, pos = self._vt(body, pos)
            self._check_consumed(body, pos)
            return ChkptMsg.from_wire(round_id, vt)
        if mtype == T_CHKPT_REP:
            round_id, pos = decode_uvarint(body, 0)
            site, pos = self._interner.decode(body, pos)
            vt, pos = self._vt(body, pos)
            count, pos = decode_uvarint(body, pos)
            monitored: Dict[str, float] = {}
            for _ in range(count):
                index, pos = self._interner.decode(body, pos)
                value, pos = self._f64(body, pos)
                monitored[index] = value
            self._check_consumed(body, pos)
            return ChkptRepMsg.from_wire(round_id, site, vt, monitored)
        if mtype == T_COMMIT:
            round_id, pos = decode_uvarint(body, 0)
            vt, pos = self._vt(body, pos)
            if pos >= len(body):
                raise TruncatedFrame("commit adapt flag missing")
            has_adapt = body[pos]
            pos += 1
            adapt = None
            if has_adapt:
                if pos >= len(body):
                    raise TruncatedFrame("commit adapt action missing")
                action = "adapt" if body[pos] == 0 else "revert"
                pos += 1
                seq, pos = decode_uvarint(body, pos)
                fields, pos = decode_value(body, pos, self._interner)
                for name in ("coalesce_kinds", "type_filters"):
                    if fields.get(name) is not None:
                        fields[name] = tuple(fields[name])
                adapt = AdaptCommand(
                    action=action, config=MirrorConfig(**fields), seq=seq
                )
            self._check_consumed(body, pos)
            return CommitMsg.from_wire(round_id, vt, adapt)
        if mtype == T_REQUEST:
            client_id, pos = self._interner.decode(body, 0)
            issued_at, pos = self._f64(body, pos)
            reply_to, pos = self._interner.decode(body, pos)
            if pos >= len(body):
                raise TruncatedFrame("request resume-generation flag missing")
            resume_generation = None
            if body[pos]:
                resume_generation, pos = decode_uvarint(body, pos + 1)
            else:
                pos += 1
            if pos >= len(body):
                raise TruncatedFrame("request resume-as-of flag missing")
            resume_as_of = None
            if body[pos]:
                resume_as_of, pos = self._marks(body, pos + 1)
            else:
                pos += 1
            self._check_consumed(body, pos)
            return InitStateRequest(
                client_id=client_id,
                issued_at=issued_at,
                reply_to=reply_to,
                resume_generation=resume_generation,
                resume_as_of=resume_as_of,
            )
        if mtype == T_RESPONSE:
            client_id, pos = self._interner.decode(body, 0)
            issued_at, pos = self._f64(body, pos)
            served_at, pos = self._f64(body, pos)
            snapshot_size, pos = decode_uvarint(body, pos)
            served_by, pos = self._interner.decode(body, pos)
            generation, pos = decode_uvarint(body, pos)
            if pos >= len(body):
                raise TruncatedFrame("response flags byte missing")
            flags = body[pos]
            pos += 1
            full_size = None
            if flags & 4:
                full_size, pos = decode_uvarint(body, pos)
            self._check_consumed(body, pos)
            return InitStateResponse(
                client_id=client_id,
                issued_at=issued_at,
                served_at=served_at,
                snapshot_size=snapshot_size,
                served_by=served_by,
                generation=generation,
                delta=bool(flags & 1),
                full_size=full_size,
                degraded=bool(flags & 2),
            )
        if mtype == T_SNAPSHOT:
            taken_at, pos = self._f64(body, 0)
            flight_count, pos = decode_uvarint(body, pos)
            size, pos = decode_uvarint(body, pos)
            generation, pos = decode_uvarint(body, pos)
            as_of, pos = self._marks(body, pos)
            flights, pos = self._flights(body, pos)
            self._check_consumed(body, pos)
            return StateSnapshot(
                taken_at=taken_at,
                flight_count=flight_count,
                size=size,
                as_of=as_of,
                generation=generation,
                flights=flights,
            )
        if mtype == T_DELTA:
            taken_at, pos = self._f64(body, 0)
            base_generation, pos = decode_uvarint(body, pos)
            generation, pos = decode_uvarint(body, pos)
            flight_count, pos = decode_uvarint(body, pos)
            size, pos = decode_uvarint(body, pos)
            full_size, pos = decode_uvarint(body, pos)
            as_of, pos = self._marks(body, pos)
            flights, pos = self._flights(body, pos)
            self._check_consumed(body, pos)
            return DeltaSnapshot(
                taken_at=taken_at,
                base_generation=base_generation,
                generation=generation,
                flight_count=flight_count,
                size=size,
                full_size=full_size,
                as_of=as_of,
                flights=flights,
            )
        if mtype == T_EOS:
            # a RESET/EOS frame carries no body; a header claiming one
            # would have swallowed the following frames' bytes as body —
            # reject instead of silently resyncing past them
            self._check_consumed(body, 0)
            return EOS
        if mtype == T_RESET:
            self._check_consumed(body, 0)
            self._interner.reset()
            self._last_uid = 0
            return RESET
        if mtype == T_HELLO:
            role, pos = self._interner.decode(body, 0)
            name, pos = self._interner.decode(body, pos)
            self._check_consumed(body, pos)
            return Hello(role, name)
        if mtype == T_SHARD_MAP:
            strategy, pos = self._interner.decode(body, 0)
            count, pos = decode_uvarint(body, pos)
            names: List[str] = []
            ports: List[int] = []
            for _ in range(count):
                name, pos = self._interner.decode(body, pos)
                port, pos = decode_uvarint(body, pos)
                names.append(name)
                ports.append(port)
            self._check_consumed(body, pos)
            return ShardMap(
                strategy=strategy,
                names=tuple(names),
                client_ports=tuple(ports),
            )
        if mtype == T_HANDOFF:
            header, pos = self._handoff_header(body, 0)
            self._check_consumed(body, pos)
            return ShardHandoff(*header)
        if mtype == T_TRANSFER:
            header, pos = self._handoff_header(body, 0)
            flights, pos = self._flights(body, pos)
            if len(flights) > 1:
                raise WireError("transfer frame carries more than one flight")
            count, pos = decode_uvarint(body, pos)
            arrival: List[str] = []
            for _ in range(count):
                status, pos = self._interner.decode(body, pos)
                arrival.append(status)
            self._check_consumed(body, pos)
            return ShardTransfer(
                *header,
                view=flights[0] if flights else None,
                arrival_seen=tuple(arrival),
            )
        if mtype == T_SUBSCRIBE:
            pos = 0
            if pos >= len(body):
                raise TruncatedFrame("subscribe flags byte missing")
            flags = body[pos]
            pos += 1
            client_id, pos = self._interner.decode(body, pos)
            sub_id, pos = decode_uvarint(body, pos)
            if flags & _SF_MATCH_ALL:
                nodes: List[Tuple[int, Any, int]] = list(MATCH_ALL_NODES)
            else:
                node_count, pos = decode_uvarint(body, pos)
                nodes = []
                for _ in range(node_count):
                    if pos >= len(body):
                        raise TruncatedFrame("subscribe node opcode missing")
                    opcode = body[pos]
                    pos += 1
                    operand, pos = decode_value(body, pos, self._interner)
                    n_children, pos = decode_uvarint(body, pos)
                    nodes.append((opcode, operand, n_children))
            self._check_consumed(body, pos)
            return Subscribe(client_id, sub_id, nodes)
        if mtype == T_UNSUBSCRIBE:
            pos = 0
            if pos >= len(body):
                raise TruncatedFrame("unsubscribe flags byte missing")
            flags = body[pos]
            pos += 1
            client_id, pos = self._interner.decode(body, pos)
            unsub_id: Optional[int] = None
            if not flags & _SF_ALL_SUBS:
                unsub_id, pos = decode_uvarint(body, pos)
            self._check_consumed(body, pos)
            return Unsubscribe(client_id, unsub_id)
        if mtype == T_SUB_ACK:
            client_id, pos = self._interner.decode(body, 0)
            sub_id, pos = decode_uvarint(body, pos)
            active, pos = decode_uvarint(body, pos)
            self._check_consumed(body, pos)
            return SubAck(client_id, sub_id, active)
        raise WireError(f"unknown frame type 0x{mtype:02x}")

    @staticmethod
    def _check_consumed(body, pos: int) -> None:
        if pos != len(body):
            raise WireError(
                f"frame body has {len(body) - pos} trailing byte(s)"
            )

    def decode_frame(self, data) -> Tuple[Any, int]:
        """Decode one complete frame at the start of ``data``; returns
        (message, bytes consumed).  Raises :class:`TruncatedFrame` when
        the buffer holds less than one whole frame."""
        mv = memoryview(data)
        if len(mv) < HEADER.size:
            raise TruncatedFrame("incomplete frame header")
        magic, version, mtype, flags, length = HEADER.unpack_from(mv, 0)
        if magic != MAGIC:
            raise WireError(f"bad magic byte 0x{magic:02x}")
        if version != WIRE_VERSION:
            raise WireError(
                f"wire version {version} not supported (speaking {WIRE_VERSION})"
            )
        if flags != 0:
            raise WireError(f"reserved flags set: 0x{flags:02x}")
        end = HEADER.size + length
        if len(mv) < end:
            raise TruncatedFrame("incomplete frame body")
        return self.decode_body(mtype, mv[HEADER.size:end]), end

    def decode_all(self, data) -> List[Any]:
        """Decode a buffer of back-to-back frames (RESETs applied and
        omitted from the result)."""
        out: List[Any] = []
        mv = memoryview(data)
        pos = 0
        while pos < len(mv):
            msg, used = self.decode_frame(mv[pos:])
            pos += used
            if msg is not RESET:
                out.append(msg)
        return out


class FrameSplitter:
    """Reassembles frames from an arbitrary byte stream (TCP reads)."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Tuple[int, memoryview]]:
        """Add received bytes; returns (frame type, body view) for every
        frame completed by this chunk.  The completed region is detached
        from the reassembly buffer in one move, and the returned views
        slice that immutable block — bodies are never copied again.
        Each header is judged as soon as it is whole, so a bad one
        raises before any of its body is buffered."""
        self._buf += data
        pos = 0
        buf = self._buf
        n = len(buf)
        frames: List[Tuple[int, int, int]] = []
        while n - pos >= HEADER.size:
            magic, version, mtype, flags, length = HEADER.unpack_from(buf, pos)
            _check_header(magic, version, mtype, flags, length)
            body_start = pos + HEADER.size
            if n - body_start < length:
                break
            frames.append((mtype, body_start, body_start + length))
            pos = body_start + length
        if not pos:
            return []
        block = bytes(buf[:pos])
        del buf[:pos]
        mv = memoryview(block)
        return [(mtype, mv[start:end]) for mtype, start, end in frames]

    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buf)


class FrameWalker:
    """Splits and decodes one connection's byte stream, a read at a time.

    :meth:`walk` takes what one read brought and returns what it
    completed, in stream order: the events of consecutive EVENT and
    BATCH frames regrouped into runs — lists of at most ``max_run``
    events — and every other message in its place, ending the run
    before it.  A RESET is applied to the decoder, never delivered, and
    does not end a run.  On the C lane one call (``walk_frames``) takes
    every data frame in a row; the pure lane's twin is
    :meth:`_walk_data`.  A frame of any other type is decoded here by
    :meth:`WireDecoder.decode_body`.

    Contract, shared by both lanes and checked against
    :meth:`FrameSplitter.feed` plus ``decode_body`` by
    ``tests/wire/test_walker.py``: a header is judged as ``feed`` judges
    it (:func:`_check_header`), so a bad one raises :class:`WireError`
    before any of its body is buffered; the decoder's interning table,
    uid delta base and ``frames_in`` / ``bytes_in`` counters move as one
    ``decode_body`` per frame moves them; and no view into ``data`` is
    kept — the bytes of a frame not yet complete are copied out.
    """

    __slots__ = ("decoder", "max_run", "_pending", "_need")

    def __init__(self, max_run: int) -> None:
        self.decoder = WireDecoder()
        self.max_run = max_run
        #: the bytes of the frame not yet complete
        self._pending = bytearray()
        #: what ``_pending`` must hold before a walk can complete a frame
        self._need = 0

    def walk(self, data: Any) -> List[Any]:
        """Add what one read brought; returns what it completed.  A
        :class:`WireError` carries, as ``items``, what the read
        completed before the frame that raised it."""
        pending = self._pending
        if pending:
            pending += data
            if len(pending) < self._need:
                return []
            buf = pending
        else:
            buf = data
        items: List[Any] = []
        try:
            pos = self._walk(buf, items)
        except WireError as exc:
            # what the read completed before the bad frame, for the
            # caller to step before it fails
            exc.items = items  # type: ignore[attr-defined]
            raise
        if buf is pending:
            del pending[:pos]
        elif pos < len(buf):
            pending += buf[pos:]
        return items

    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._pending)

    def _walk(self, buf: Any, items: List[Any]) -> int:
        """Walk ``buf`` from its start into ``items``; returns where the
        first frame not yet complete begins."""
        decoder = self.decoder
        n = len(buf)
        pos = 0
        while True:
            acc = _accel.impl
            if acc is not None:
                start = pos
                pos, decoder._last_uid, frames = acc.walk_frames(
                    buf, pos, decoder._interner._table, decoder._last_uid,
                    self.max_run, items,
                )
                decoder.frames_in += frames
                decoder.bytes_in += pos - start
            else:
                pos = self._walk_data(buf, pos, items)
            # stopped at the end, at a frame not yet complete, or at a
            # frame the walk leaves to decode_body
            if n - pos < HEADER.size:
                self._need = HEADER.size
                return pos
            magic, version, mtype, flags, length = HEADER.unpack_from(buf, pos)
            _check_header(magic, version, mtype, flags, length)
            end = pos + HEADER.size + length
            if end > n:
                self._need = end - pos
                return pos
            items.append(decoder.decode_body(mtype, buf[pos + HEADER.size:end]))
            pos = end

    def _walk_data(self, buf: Any, pos: int, items: List[Any]) -> int:
        """The C lane's ``walk_frames`` in Python: from ``pos``, decode
        the EVENT and BATCH frames into runs and apply the RESETs;
        returns where it stopped — at the first frame that is anything
        else, has a header ``feed`` would reject, or is not complete."""
        decode = self.decoder.decode_body
        max_run = self.max_run
        n = len(buf)
        run: List[UpdateEvent] = []
        while n - pos >= HEADER.size:
            magic, version, mtype, flags, length = HEADER.unpack_from(buf, pos)
            if (
                magic != MAGIC or version != WIRE_VERSION or flags
                or length > MAX_FRAME_BYTES
            ):
                break
            end = pos + HEADER.size + length
            if mtype == T_RESET:
                if length:
                    break
                decode(T_RESET, b"")
            elif mtype == T_EVENT or mtype == T_BATCH:
                if end > n:
                    break
                msg = decode(mtype, buf[pos + HEADER.size:end])
                for ev in msg.events if mtype == T_BATCH else (msg,):
                    run.append(ev)
                    if len(run) >= max_run:
                        items.append(run)
                        run = []
            else:
                break
            pos = end
        if run:
            items.append(run)
        return pos


class SharedFrameCache:
    """Encode-once broadcast frames shared by a group of connections.

    The central site's push stream carries an *identical* frame sequence
    to every mirror connection, so re-encoding per connection pays the
    serialization cost N times for the same bytes (the Gryphon
    observation: a broker fanning one event to N consumers must encode
    once).  This object owns the single master :class:`WireEncoder` of
    such a broadcast group; :meth:`encode` returns an immutable
    ``bytes`` frame that every member's writer shares by reference —
    one encode, N sockets, zero copies.

    Correctness hinges on one invariant: each member decoder's
    connection state (interning table, uid delta base) must equal the
    master encoder's state at the point of every frame it receives.
    Frames only ever *append* to that state, so members present since
    the group was clean stay in sync for the connection's lifetime.  A
    member attaching after frames were encoded would observe interning
    references into a table it never saw — so :meth:`attach` detects a
    dirty master and *invalidates the generation*: the master encoder
    resets and the returned RESET frame must be broadcast to every
    member (the newcomer included, harmlessly), dropping all decoder
    tables to the same empty state.  :meth:`reset` performs that
    invalidation explicitly — when any connection's decoder resets, the
    whole shared group must follow, because shared bytes cannot carry
    per-member interning state.
    """

    __slots__ = (
        "_encoder",
        "_members",
        "generation",
        "frames_shared",
        "encodes_saved",
        "resets",
    )

    def __init__(self) -> None:
        self._encoder = WireEncoder()
        #: member name -> generation it attached under (diagnostics)
        self._members: Dict[str, int] = {}
        self.generation = 0
        self.frames_shared = 0
        #: encodes avoided vs. the per-connection path (N-1 per frame)
        self.encodes_saved = 0
        self.resets = 0

    def __len__(self) -> int:
        return len(self._members)

    @property
    def dirty(self) -> bool:
        """True when the master encoder holds any connection state a
        newly attached member's decoder would not have."""
        enc = self._encoder
        return bool(
            enc.frames_out or enc._last_uid or len(enc._interner)
        )

    def attach(self, member: str) -> Optional[bytes]:
        """Add ``member`` to the broadcast group.  Returns a RESET frame
        the caller must send to **all** members when the master holds
        prior state, None when the group is still clean."""
        frame = self.reset() if self.dirty else None
        self._members[member] = self.generation
        return frame

    def detach(self, member: str) -> None:
        """Remove ``member``; the shared state is unaffected (remaining
        members stay in sync)."""
        self._members.pop(member, None)

    def reset(self) -> bytes:
        """Invalidate the shared generation: reset the master encoder
        and return the RESET frame to broadcast to every member."""
        self.generation += 1
        self.resets += 1
        for member in self._members:
            self._members[member] = self.generation
        return self._encoder.reset()

    def encode(self, message: Any) -> bytes:
        """Encode ``message`` once for the whole group."""
        frame = self._encoder.encode_message(message)
        self.frames_shared += 1
        fanout = len(self._members)
        if fanout > 1:
            self.encodes_saved += fanout - 1
        return frame

    def encode_events(self, events: Sequence[UpdateEvent]) -> bytes:
        """Encode ``events`` once for the whole group, one EVENT frame
        each, in one ``bytes`` (:meth:`WireEncoder.encode_events`);
        counted per event, as one :meth:`encode` each would be."""
        data = self._encoder.encode_events(events)
        n = len(events)
        self.frames_shared += n
        fanout = len(self._members)
        if fanout > 1:
            self.encodes_saved += (fanout - 1) * n
        return data

    def encode_eos(self) -> bytes:
        frame = self._encoder.encode_eos()
        self.frames_shared += 1
        fanout = len(self._members)
        if fanout > 1:
            self.encodes_saved += fanout - 1
        return frame


class WireSizeProbe:
    """Measured-size oracle for the simulation transport.

    Holds one persistent :class:`WireEncoder` per destination (a stand-in
    for the per-connection interning state a real socket would carry) and
    reports the exact frame size each message would occupy on the wire.
    Payload types without a wire encoding fall back to the modeled
    ``message.size``, so enabling the probe can never wedge a scenario.
    """

    __slots__ = ("_encoders", "frames_measured", "bytes_measured", "fallbacks")

    def __init__(self) -> None:
        self._encoders: Dict[str, WireEncoder] = {}
        self.frames_measured = 0
        self.bytes_measured = 0
        self.fallbacks = 0

    def encoder_for(self, dst: str) -> WireEncoder:
        enc = self._encoders.get(dst)
        if enc is None:
            enc = self._encoders[dst] = WireEncoder()
        return enc

    def measure(self, message) -> int:
        """Wire size of ``message`` (a cluster Message): the encoded
        frame length for codec-covered payloads, ``message.size``
        otherwise."""
        try:
            frame = self.encoder_for(message.dst).encode_message(message.payload)
        except WireError:
            self.fallbacks += 1
            return message.size
        self.frames_measured += 1
        self.bytes_measured += len(frame)
        return len(frame)
