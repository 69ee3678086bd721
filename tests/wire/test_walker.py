"""The frame walker against the splitter and decoder it replaces.

A live link decodes each read in one call (:class:`repro.wire.FrameWalker`:
``walk_frames`` in C, ``_walk_data`` in Python).  The oracle is what a
link did before, frame by frame: :meth:`FrameSplitter.feed` plus one
:meth:`WireDecoder.decode_body` per frame, RESETs dropped, consecutive
events regrouped into runs of at most ``max_run`` per read.  For every
stream built here — all frame types mixed, then mutated (truncated,
magic / version / flag bytes flipped, a bodyless frame given a length,
a BATCH count that lies, trailing body bytes, an intern id never
defined, a header past :data:`MAX_FRAME_BYTES`) and cut at arbitrary
chunk boundaries — both walker lanes must agree with the oracle on:

* accept or reject, and the read that rejects;
* every item handed out before that, slot by slot, run boundaries
  included;
* on accept, the decoder's state afterwards (interning table, uid delta
  base, frame and byte counters) and the bytes still pending.

A reject is always a :class:`WireError`.  The decoder's state after a
reject is not compared: the connection is closed on the spot, and the
oracle judges every header of a read before it decodes any body while
the walker goes frame by frame.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.events import EventBatch, UpdateEvent
from repro.ois.state import FlightView
from repro.shard.handoff import ShardHandoff, ShardTransfer
from repro.shard.partition import ShardMap
from repro.wire import (
    EOS,
    HEADER,
    MAGIC,
    MAX_FRAME_BYTES,
    RESET,
    WIRE_VERSION,
    FrameSplitter,
    FrameWalker,
    WireDecoder,
    WireEncoder,
    WireError,
    accel,
)
from repro.wire.codec import T_BATCH, T_EOS, T_EVENT, T_RESET

from .test_props_wire import events, messages

LANES = [False] + ([True] if accel.AVAILABLE else [])
LANE_IDS = ["pure", "C"][: len(LANES)]

#: small, so that runs are cut inside reads and inside BATCH frames
MAX_RUN = 5


@contextmanager
def lane(accelerated: bool):
    saved = accel.impl
    accel.impl = saved if accelerated else None
    try:
        yield
    finally:
        accel.impl = saved


shard_messages = st.sampled_from([
    ShardMap(strategy="airport", names=("shard0", "shard1"), client_ports=(9001, 9002)),
    ShardHandoff(flight_id="DL1", airport="ATL", from_shard=0, to_shard=1, seq=3),
    ShardTransfer(flight_id="DL1", airport="ATL", from_shard=0, to_shard=1, seq=3),
    ShardTransfer(
        flight_id="DL2", airport="SEA", from_shard=1, to_shard=0, seq=4,
        view=FlightView(
            flight_id="DL2", status="departed", passengers_expected=10,
            passengers_boarded=7, updates_applied=42, arrived=False,
            position={"lat": 1.5, "lon": -2.25},
        ),
        arrival_seen=("flight landed",),
    ),
])
#: what a stream is built from: messages of every type, more events
#: than anything else, and RESETs
parts = st.one_of(
    events, events, messages, shard_messages,
    st.lists(events, min_size=1, max_size=8).map(EventBatch),
    st.just(RESET),
)


def encode(msgs):
    """One frame per message, on one encoder (RESET: the encoder's own)."""
    enc = WireEncoder()
    return [bytearray(enc.reset() if m is RESET else enc.encode_message(m)) for m in msgs]


def frame(mtype, body=b"", length=None):
    header = HEADER.pack(MAGIC, WIRE_VERSION, mtype, 0,
                         len(body) if length is None else length)
    return bytearray(header + body)


#: an EVENT body whose ``kind`` is interning reference 100, never defined
UNDEFINED_INTERN = frame(T_EVENT, bytes([1 | 2 | 16, 2 + 100]))

MUTATIONS = (
    "none", "truncate", "magic", "version", "flags", "bodyless_length",
    "batch_count", "trailing_byte", "undefined_intern", "past_max",
)


def mutate(frames, kind, at, param):
    """Apply mutation ``kind`` to frame ``at`` (or insert one before
    it); ``param`` picks the mutation's detail."""
    if kind == "none":
        return frames
    frames = [bytearray(f) for f in frames]
    at %= len(frames)
    target = frames[at]
    if kind == "truncate":
        stream = b"".join(frames)
        return [bytearray(stream[: param % (len(stream) + 1)])]
    if kind == "magic":
        target[0] ^= param % 255 + 1
    elif kind == "version":
        target[1] = (WIRE_VERSION + 1 + param % 255) % 256
    elif kind == "flags":
        target[3] = param % 255 + 1
    elif kind == "bodyless_length":
        mtype = T_EOS if param % 2 else T_RESET
        frames.insert(at, frame(mtype, bytes(param % 64 + 1)))
    elif kind == "batch_count":
        batches = [f for f in frames if f[2] == T_BATCH and f[8] < 0x7F]
        if batches:
            victim = batches[at % len(batches)]
            victim[8] += 1 if param % 2 or not victim[8] else -1
    elif kind == "trailing_byte":
        frames[at] = frame(target[2], bytes(target[HEADER.size:]) + b"\x00")
    elif kind == "undefined_intern":
        frames.insert(at, UNDEFINED_INTERN)
    elif kind == "past_max":
        mtype = (T_EVENT, T_BATCH, 0x07)[param % 3]
        frames.insert(at, frame(mtype, bytes(16), length=MAX_FRAME_BYTES + 1))
    return frames


def chunked(stream, cuts):
    """``stream`` cut at ``cuts`` (taken modulo its length)."""
    bounds = sorted(c % (len(stream) + 1) for c in cuts)
    bounds = [0] + bounds + [len(stream)]
    return [bytes(stream[a:b]) for a, b in zip(bounds, bounds[1:])]


def regroup(msgs, max_run):
    """Consecutive events become runs of at most ``max_run``."""
    out, run = [], []
    for msg in msgs:
        if isinstance(msg, (UpdateEvent, EventBatch)):
            for ev in msg.events if isinstance(msg, EventBatch) else (msg,):
                run.append(ev)
                if len(run) >= max_run:
                    out.append(run)
                    run = []
            continue
        if run:
            out.append(run)
            run = []
        out.append(msg)
    if run:
        out.append(run)
    return out


def oracle(chunks, max_run):
    """What a link handed out before the walker: per read, ``feed`` then
    ``decode_body`` per frame, RESETs dropped, runs regrouped."""
    splitter, decoder = FrameSplitter(), WireDecoder()
    items = []
    for index, chunk in enumerate(chunks):
        try:
            msgs = [decoder.decode_body(t, b) for t, b in splitter.feed(chunk)]
        except WireError:
            return items, index, None
        items.extend(regroup([m for m in msgs if m is not RESET], max_run))
    return items, None, (state(decoder), splitter.pending())


def walked(chunks, max_run):
    walker = FrameWalker(max_run)
    items = []
    for index, chunk in enumerate(chunks):
        try:
            items.extend(walker.walk(memoryview(chunk)))
        except WireError:
            return items, index, None
    return items, None, (state(walker.decoder), walker.pending())


def state(decoder):
    return (list(decoder._interner._table), decoder._last_uid,
            decoder.frames_in, decoder.bytes_in)


def slots(item):
    """An item compared slot by slot: a run event by event, an event by
    every slot it has, anything else by type and repr."""
    if type(item) is list:
        return ["run"] + [slots(ev) for ev in item]
    if isinstance(item, UpdateEvent):
        values = []
        for name in UpdateEvent.__slots__:
            value = getattr(item, name)
            values.append(value.as_dict() if name == "vt" and value is not None else value)
        return tuple(values)
    return (type(item).__name__, repr(item))


def check(chunks, max_run=MAX_RUN):
    expected = oracle(chunks, max_run)
    for accelerated in LANES:
        with lane(accelerated):
            got = walked(chunks, max_run)
        assert [slots(i) for i in got[0]] == [slots(i) for i in expected[0]]
        assert got[1:] == expected[1:]


cuts = st.lists(st.integers(0, 1 << 16), max_size=12)

_EV = UpdateEvent(kind="faa", stream="faa", seqno=1, key="DL1", payload={"lat": 1.0})
#: five bytes into the header that follows the first frame of ``[_EV, ...]``
_INTO_SECOND_HEADER = len(WireEncoder().encode_event(_EV)) + 5


@settings(max_examples=300, deadline=None)
@given(
    msgs=st.lists(parts, min_size=1, max_size=14),
    kind=st.sampled_from(MUTATIONS),
    at=st.integers(0, 1000),
    param=st.integers(0, 1 << 16),
    cuts=cuts,
)
# a header past the bound that is whole only in the second read
@example(msgs=[_EV, _EV], kind="past_max", at=1, param=0, cuts=[_INTO_SECOND_HEADER])
# a BATCH that claims one member more than it carries
@example(msgs=[EventBatch([_EV, _EV])], kind="batch_count", at=0, param=1, cuts=[])
# a RESET inside a run, a control frame after it, in one read
@example(msgs=[_EV, RESET, _EV, EOS, _EV], kind="none", at=0, param=0, cuts=[])
def test_walker_agrees_with_splitter_and_decoder(msgs, kind, at, param, cuts):
    check(chunked(b"".join(mutate(encode(msgs), kind, at, param)), cuts))


@settings(max_examples=100, deadline=None)
@given(
    evs=st.lists(events, min_size=1, max_size=40),
    steps=st.lists(st.integers(1, 6), min_size=1),
    resets=st.lists(st.booleans(), min_size=1),
    max_run=st.integers(1, 9),
    cuts=cuts,
)
def test_event_streams_are_cut_into_runs(evs, steps, resets, max_run, cuts):
    """Valid event streams only: runs end at ``max_run`` and at every
    read, across EVENT and BATCH frames, and a RESET does not end one."""
    enc = WireEncoder()
    stream = bytearray()
    i = 0
    for n in range(len(evs)):
        if i >= len(evs):
            break
        group = evs[i:i + steps[n % len(steps)]]
        i += len(group)
        stream += enc.encode_batch(group) if len(group) > 1 else enc.encode_event(group[0])
        if resets[n % len(resets)]:
            stream += enc.reset()
    check(chunked(bytes(stream), cuts), max_run=max_run)


@pytest.mark.parametrize("accelerated", LANES, ids=LANE_IDS)
def test_header_past_the_bound_is_rejected_before_its_body(accelerated):
    """A header claiming 4 GiB, then 1 MiB of what would be its body:
    the walker raises on the header, before it buffers a byte more, and
    so does ``feed``."""
    hostile = HEADER.pack(MAGIC, WIRE_VERSION, T_EVENT, 0, 0xFFFFFFFF)
    with lane(accelerated):
        walker = FrameWalker(MAX_RUN)
        with pytest.raises(WireError, match="bound"):
            walker.walk(hostile)
        assert walker.pending() == 0
        walker = FrameWalker(MAX_RUN)
        walker.walk(hostile[:5])  # the header is not whole yet: nothing to judge
        with pytest.raises(WireError, match="bound"):
            walker.walk(hostile[5:] + bytes(1 << 20))
    splitter = FrameSplitter()
    with pytest.raises(WireError, match="bound"):
        splitter.feed(hostile)
    assert splitter.pending() == len(hostile)  # the header, no body


@pytest.mark.parametrize("accelerated", LANES, ids=LANE_IDS)
def test_largest_legal_frame_is_accepted(accelerated):
    """A frame exactly at the bound passes the header check and waits
    for its body (an unknown type is only judged once it is whole)."""
    header = HEADER.pack(MAGIC, WIRE_VERSION, 0x7F, 0, MAX_FRAME_BYTES)
    with lane(accelerated):
        walker = FrameWalker(MAX_RUN)
        assert walker.walk(header + bytes(1000)) == []
        assert walker.pending() == HEADER.size + 1000


def test_accel_bound_matches_the_codec():
    if not accel.AVAILABLE:
        pytest.skip("accelerated codec lane not built")
    assert accel.impl.MAX_FRAME_BYTES == MAX_FRAME_BYTES
