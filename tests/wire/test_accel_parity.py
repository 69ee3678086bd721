"""Byte-for-byte parity between the accelerated and pure-Python codec lanes.

The accelerated lane (``repro.wire._accel``) is an optimisation, never a
format: for any event stream it must produce *exactly* the bytes the
pure-Python encoder produces (sharing the live interning dict and uid
delta base), and its decoder must reconstruct *exactly* the objects the
pure decoder reconstructs — including through the direct-construction
path that builds ``UpdateEvent``/``VectorTimestamp`` via their
``from_wire`` constructors without re-running ``__init__`` validation.

Lane selection is per-call (``accel.impl`` is read on each encode and
decode), so these tests drive the same encoder/decoder objects through
both lanes by swapping ``accel.impl`` in a context manager.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventBatch, UpdateEvent, VectorTimestamp
from repro.wire import RESET, WireDecoder, WireEncoder
from repro.wire import accel

pytestmark = pytest.mark.skipif(
    not accel.AVAILABLE, reason="accelerated codec lane not built"
)


@contextmanager
def lane(accelerated: bool):
    """Force the accelerated or the pure lane for the enclosed calls."""
    saved = accel.impl
    accel.impl = saved if accelerated else None
    try:
        yield
    finally:
        accel.impl = saved


# ------------------------------------------------------------ strategies
# A short alphabet forces interning-table hits/reuse across events; uids
# are drawn non-monotonically so the signed delta encoding goes negative.
short_names = st.sampled_from(["faa", "delta", "ops", "wx", "DL1", "DL2"])
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | finite
    | st.text(max_size=12)
    | st.binary(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
vts = st.dictionaries(short_names, st.integers(0, 10**6), max_size=4).map(
    VectorTimestamp
)
events = st.builds(
    UpdateEvent,
    kind=short_names,
    stream=short_names,
    seqno=st.integers(0, 10**6),
    key=st.text(min_size=1, max_size=10),
    payload=st.dictionaries(st.text(max_size=6), values, max_size=3),
    size=st.one_of(st.just(1024), st.integers(0, 10**6)),
    vt=st.none() | vts,
    entered_at=st.one_of(st.just(0.0), finite),
    coalesced_from=st.integers(1, 64),
    uid=st.integers(0, 2**40),
)
event_lists = st.lists(events, min_size=1, max_size=12)


def _encode_stream(evs, use_accel, resets_at=()):
    """Encode ``evs`` on one encoder, alternating single/batch frames,
    interleaving RESETs at the given indices; returns the frame list."""
    enc = WireEncoder()
    frames = []
    with lane(use_accel):
        for i, ev in enumerate(evs):
            if i in resets_at:
                frames.append(enc.reset())
            if i % 3 == 2:
                frames.append(enc.encode_batch([ev, ev]))
            else:
                frames.append(enc.encode_event(ev))
    return frames


def _decode_stream(frames, use_accel):
    dec = WireDecoder()
    out = []
    with lane(use_accel):
        for frame in frames:
            msg, used = dec.decode_frame(frame)
            assert used == len(frame)
            if msg is not RESET:
                out.append(msg)
    return out


# --------------------------------------------------------------- parity
@settings(max_examples=150, deadline=None)
@given(evs=event_lists)
def test_encoded_bytes_identical(evs):
    """Accel and pure lanes emit byte-identical frame sequences over the
    same shared connection state (interning dict + uid delta base)."""
    assert _encode_stream(evs, True) == _encode_stream(evs, False)


@settings(max_examples=150, deadline=None)
@given(evs=event_lists, resets=st.sets(st.integers(0, 11), max_size=3))
def test_encoded_bytes_identical_across_resets(evs, resets):
    """Parity holds when RESETs drop the interning table mid-stream."""
    accel_frames = _encode_stream(evs, True, resets_at=resets)
    pure_frames = _encode_stream(evs, False, resets_at=resets)
    assert accel_frames == pure_frames


@settings(max_examples=150, deadline=None)
@given(evs=event_lists)
def test_decoded_objects_identical(evs):
    """Both decoder lanes rebuild the same objects from the same bytes,
    in all four encode-lane x decode-lane combinations."""
    expected = []
    for i, ev in enumerate(evs):
        expected.append(EventBatch([ev, ev]) if i % 3 == 2 else ev)
    for enc_accel in (True, False):
        frames = _encode_stream(evs, enc_accel)
        for dec_accel in (True, False):
            decoded = _decode_stream(frames, dec_accel)
            assert decoded == expected


@settings(max_examples=100, deadline=None)
@given(ev=events)
def test_direct_construction_decode_path(ev):
    """The accel decoder builds events via ``from_wire`` directly; the
    result must be field- and type-identical to the pure lane's."""
    enc = WireEncoder()
    with lane(False):
        frame = enc.encode_event(ev)
    accel_ev = _decode_stream([frame], True)[0]
    pure_ev = _decode_stream([frame], False)[0]
    assert type(accel_ev) is UpdateEvent
    for field in (
        "kind", "stream", "seqno", "key", "payload",
        "size", "entered_at", "coalesced_from", "uid",
    ):
        assert getattr(accel_ev, field) == getattr(pure_ev, field)
    if pure_ev.vt is None:
        assert accel_ev.vt is None
    else:
        assert type(accel_ev.vt) is VectorTimestamp
        assert accel_ev.vt.as_dict() == pure_ev.vt.as_dict()


@settings(max_examples=100, deadline=None)
@given(evs=event_lists)
def test_decoded_events_set_every_slot(evs):
    """The C decoder fills a bare ``UpdateEvent`` attribute by
    attribute, so a slot it does not know about stays unset and the
    first read raises.  In every encode-lane x decode-lane combination
    each slot of each decoded event (batch members included) must be
    set, and equal across the two decoder lanes."""
    for enc_accel in (True, False):
        frames = _encode_stream(evs, enc_accel)
        slots_by_lane = []
        for dec_accel in (True, False):
            slots_by_lane.append([
                tuple(getattr(ev, name) for name in UpdateEvent.__slots__)
                for msg in _decode_stream(frames, dec_accel)
                for ev in (msg.events if isinstance(msg, EventBatch) else (msg,))
            ])
        assert slots_by_lane[0] == slots_by_lane[1]


@settings(max_examples=100, deadline=None)
@given(evs=event_lists)
def test_encoder_state_converges(evs):
    """After identical streams, both lanes leave identical connection
    state — the property that makes mid-stream lane switches safe."""
    enc_a, enc_p = WireEncoder(), WireEncoder()
    with lane(True):
        for ev in evs:
            enc_a.encode_event(ev)
    with lane(False):
        for ev in evs:
            enc_p.encode_event(ev)
    assert enc_a._interner._ids == enc_p._interner._ids
    assert enc_a._last_uid == enc_p._last_uid


@settings(max_examples=50, deadline=None)
@given(evs=event_lists, flips=st.lists(st.booleans(), min_size=12, max_size=12))
def test_mid_stream_lane_switch(evs, flips):
    """Swapping lanes per frame (as a partially-built deployment would)
    still produces the canonical byte stream."""
    enc = WireEncoder()
    frames = []
    for ev, use_accel in zip(evs, flips):
        with lane(use_accel):
            frames.append(enc.encode_event(ev))
    pure = WireEncoder()
    with lane(False):
        expected = [pure.encode_event(ev) for ev, _ in zip(evs, flips)]
    assert frames == expected
