"""Workloads of the end-to-end benchmark and their seeded inputs.

A workload is a server shape (mirror function, batch size, mirrors,
flights) plus a traffic mix (source rate, request rate, subscription
population).  :func:`build_inputs` turns a workload and a seed into
everything the load generator will put on its three sockets — already
framed, so nothing is generated or encoded once a clock runs — and,
through an offline :class:`~repro.core.rules.RuleEngine` and
:meth:`Predicate.matches`, into the set of deliveries a correct server
must make.  Nothing is read from or written to disk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MirrorConfig
from repro.core.events import DELTA_STATUS, FAA_POSITION, UpdateEvent
from repro.core.functions import (
    airline_semantic_rules,
    selective_mirroring,
    simple_mirroring,
)
from repro.sub.messages import Subscribe
from repro.sub.predicate import (
    And,
    ByFlight,
    ByKind,
    FieldCmp,
    MatchAll,
    Not,
    Or,
    Predicate,
)
from repro.wire import Hello, WireEncoder

__all__ = ["Workload", "WORKLOADS", "Plan", "Inputs", "build_inputs", "build_population"]

#: Delta statuses in lifecycle order; 'flight landed' arms the airline
#: rule that discards the flight's later position fixes.
_LIFECYCLE = (
    "boarding started",
    "doors closed",
    "departed",
    "flight landed",
    "flight at runway",
    "flight at gate",
)
#: One source event in this many is a Delta status, the rest FAA fixes.
_STATUS_EVERY = 100
#: Position fixes carry a sector number the counting-lane predicates test.
_SECTORS = 150
#: The request client draws its ids from a pool of this size.
CLIENT_POOL = 256


@dataclass(frozen=True)
class Workload:
    """One server shape and traffic mix (see README.md for the why)."""

    name: str
    why: str
    selective: bool  # airline_semantic_rules(selective_mirroring()) vs simple
    batch_size: int
    delta_snapshots: bool
    n_mirrors: int
    n_flights: int
    event_rate: float  # source events per second, paced phase
    request_rate: float  # initial-state requests per second, paced phase
    population: Tuple[int, int, int]  # (Or, And, residual) predicates; zeros = MatchAll
    resumable: bool = False  # every other request resumes from the last generation

    def mirror_config(self) -> MirrorConfig:
        if self.selective:
            config = airline_semantic_rules(selective_mirroring(overwrite_len=10))
        else:
            config = simple_mirroring()
        config.batch_size = self.batch_size
        config.delta_snapshots = self.delta_snapshots
        return config


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="push_steady",
        why="paper configuration: every event crosses stamp, rules, encode, two mirror "
            "sockets, decode, apply and push one by one, so rt hops and wire carry the cost",
        selective=False, batch_size=1, delta_snapshots=False, n_mirrors=2,
        n_flights=200, event_rate=1500.0, request_rate=200.0, population=(0, 0, 0),
    ),
    Workload(
        name="push_selective",
        why="selective mirroring plus 300 predicates: core.rules and sub do the "
            "per-event work, wire and rt a tenth of push_steady's; registration sets setup_s",
        selective=True, batch_size=1, delta_snapshots=False, n_mirrors=2,
        n_flights=2000, event_rate=3200.0, request_rate=200.0, population=(240, 45, 15),
    ),
    Workload(
        name="request_storm",
        why="5000 flights, writes beside full and resumable reads: every write "
            "invalidates the cached view, so ois.state snapshot and delta building dominate",
        selective=False, batch_size=1, delta_snapshots=True, n_mirrors=2,
        n_flights=5000, event_rate=700.0, request_rate=560.0, population=(0, 0, 0),
        resumable=True,
    ),
    Workload(
        name="mirror_fanout",
        why="the push path batched by 8 over four mirrors: per-mirror decode and apply, "
            "SharedFrameCache, BATCH framing and the fat flusher carry the cost",
        selective=False, batch_size=8, delta_snapshots=False, n_mirrors=4,
        n_flights=200, event_rate=3200.0, request_rate=200.0, population=(0, 0, 0),
    ),
)


@dataclass(frozen=True)
class Plan:
    """How much of each phase one run generates."""

    paced_seconds: float
    n_bursts: int
    burst_events: int = 20_000
    warmup_events: int = 2_000
    warmup_requests: int = 20


def build_population(
    flights: Sequence[str], shape: Tuple[int, int, int], rng: random.Random
) -> List[Predicate]:
    """The subscriber's predicates: ``n_or`` equal disjunctions of
    ``ByFlight`` atoms that together partition ``flights`` (so every
    mirrored event is delivered), ``n_and`` kind-and-field conjunctions
    for the counting lane, ``n_res`` negations and ranges for the
    residual lane.  All zeros is the firehose."""
    n_or, n_and, n_res = shape
    if not (n_or or n_and or n_res):
        return [MatchAll()]
    shuffled = list(flights)
    rng.shuffle(shuffled)
    preds: List[Predicate] = []
    for i in range(n_or):
        preds.append(Or(tuple(ByFlight(f) for f in shuffled[i::n_or])))
    for i in range(n_and):
        preds.append(
            And((ByKind(FAA_POSITION), FieldCmp("sector", "==", i % _SECTORS)))
        )
    for i in range(n_res):
        if i % 2:
            preds.append(Not(ByFlight(rng.choice(shuffled))))
        else:
            low = rng.uniform(0.0, 39000.0)
            preds.append(
                And((FieldCmp("alt", ">=", low), FieldCmp("alt", "<", low + 2000.0)))
            )
    return preds


@dataclass
class Inputs:
    """Everything one run sends, and what it must get back.

    Source events are numbered ``0..n_events-1`` in send order; every
    per-event table is indexed by that number.
    """

    workload: Workload
    seed: int
    plan: Plan
    predicates: List[Predicate]
    subscriber_blob: bytes  # HELLO + every SUBSCRIBE frame
    source_hello: bytes = b""
    setup_blob: bytes = b""  # preload (one fix per flight) + warm-up frames
    #: one frame each: an EVENT, or a BATCH of batch_size
    paced_units: List[bytes] = field(default_factory=list)
    #: each burst's frames, its sentinel last
    burst_blobs: List[bytes] = field(default_factory=list)
    #: seconds into the paced phase at which each unit / request is due:
    #: independent arrivals at the workload's fixed mean rate (a fixed
    #: count of uniform draws, sorted — a Poisson process of that count).
    #: An evenly spaced schedule beats against the flusher's 2 ms
    #: deadline and leaves the median sitting between two latency clusters.
    unit_offsets: List[float] = field(default_factory=list)
    request_offsets: List[float] = field(default_factory=list)
    n_events: int = 0
    #: stream -> seqno -> event number (seqnos start at 1)
    index_of: Dict[str, List[int]] = field(default_factory=dict)
    #: 1 where the subscriber must receive event number i exactly once
    expected: bytearray = field(default_factory=bytearray)
    #: event numbers at which the set-up, the paced phase and each burst end
    setup_end: int = 0
    paced_end: int = 0
    burst_ends: List[int] = field(default_factory=list)
    #: events the offline engine mirrored among the first i (i = a phase end)
    mirrored_before: Dict[int, int] = field(default_factory=dict)
    #: deliveries expected among the first i events (i = a phase end)
    deliveries_before: Dict[int, int] = field(default_factory=dict)

    def event_number(self, stream: str, seqno: int) -> Optional[int]:
        table = self.index_of.get(stream)
        if table is None or not 0 < seqno < len(table):
            return None
        return table[seqno]

    def digest_bytes(self) -> bytes:
        """Every byte the run would send, in order (determinism check)."""
        return b"".join(
            [self.subscriber_blob, self.source_hello, self.setup_blob]
            + self.paced_units
            + self.burst_blobs
        )


class _Generator:
    """Seeded event source that frames, numbers and reference-checks
    each event as it is made, so event objects never pile up."""

    def __init__(self, flights: List[str], rng: random.Random, inputs: Inputs):
        self.rng = rng
        self.inputs = inputs
        self.flights = flights
        # every tenth flight is on approach: Delta statuses walk these
        # through the lifecycle until each has reached its gate
        self.arriving = self.flights[::10]
        self.stage: Dict[str, int] = {}
        self.seq = {"faa": 0, "delta": 0}
        inputs.index_of = {"faa": [-1], "delta": [-1]}
        self.encoder = WireEncoder()
        self.engine = inputs.workload.mirror_config().build_engine()
        self.mirrored = 0
        self.deliveries = 0
        # any one matching predicate makes a delivery; the disjunction
        # naming the event's flight is the likely witness, so look there
        # before scanning the population
        self.witness: Dict[str, Predicate] = {}
        for pred in inputs.predicates:
            if isinstance(pred, Or):
                for atom in pred.children:
                    if isinstance(atom, ByFlight):
                        self.witness.setdefault(atom.flight_id, pred)

    def _number(self, kind: str, stream: str, key: str, payload: dict) -> UpdateEvent:
        self.seq[stream] += 1
        inputs = self.inputs
        event = UpdateEvent(
            kind=kind, stream=stream, seqno=self.seq[stream], key=key,
            payload=payload, uid=inputs.n_events + 1,
        )
        inputs.index_of[stream].append(inputs.n_events)
        inputs.expected.append(0)
        inputs.n_events += 1
        self._reference(event)
        return event

    def _reference(self, event: UpdateEvent) -> None:
        """Run the event through the offline rule engine; flag every
        event it mirrors that some predicate matches."""
        engine = self.engine
        inputs = self.inputs
        for passed in engine.on_receive(event):
            for out in engine.on_send(passed):
                self.mirrored += 1
                witness = self.witness.get(out.key)
                if (witness is not None and witness.matches(out)) or any(
                    pred.matches(out) for pred in inputs.predicates
                ):
                    number = inputs.event_number(out.stream, out.seqno)
                    self.deliveries += 1 - inputs.expected[number]
                    inputs.expected[number] = 1

    def position(self, flight: Optional[str] = None) -> UpdateEvent:
        rng = self.rng
        payload = {
            "lat": rng.uniform(24.0, 49.0),
            "lon": rng.uniform(-125.0, -67.0),
            "alt": rng.uniform(0.0, 41000.0),
            "fix": self.seq["faa"],
            "sector": rng.randrange(_SECTORS),
        }
        key = flight if flight is not None else rng.choice(self.flights)
        return self._number(FAA_POSITION, "faa", key, payload)

    def status(self, key: str, status: str) -> UpdateEvent:
        return self._number(DELTA_STATUS, "delta", key, {"status": status})

    def next_event(self) -> UpdateEvent:
        if self.inputs.n_events % _STATUS_EVERY == _STATUS_EVERY - 1 and self.arriving:
            flight = self.rng.choice(self.arriving)
            stage = self.stage.get(flight, 0)
            self.stage[flight] = stage + 1
            if stage + 1 == len(_LIFECYCLE):
                self.arriving.remove(flight)
            return self.status(flight, _LIFECYCLE[stage])
        return self.position()

    def frames(self, count: int, unit: int) -> List[bytes]:
        """``count`` events framed ``unit`` to a frame (1 = EVENT
        frames; more = BATCH frames, the last possibly short)."""
        out: List[bytes] = []
        encoder = self.encoder
        while count > 0:
            take = min(unit, count)
            if take == 1:
                out.append(encoder.encode_event(self.next_event()))
            else:
                out.append(
                    encoder.encode_batch([self.next_event() for _ in range(take)])
                )
            count -= take
        return out

    def mark(self) -> int:
        """Close a phase: remember how many events were mirrored, and
        how many deliveries are owed, so far."""
        end = self.inputs.n_events
        self.inputs.mirrored_before[end] = self.mirrored
        self.inputs.deliveries_before[end] = self.deliveries
        return end


def build_inputs(workload: Workload, seed: int, plan: Plan) -> Inputs:
    """Generate, frame and reference-check one run's inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    flights = [f"DL{i + 100}" for i in range(workload.n_flights)]
    predicates = build_population(flights, workload.population, rng)

    sub_encoder = WireEncoder()
    sub_frames = [sub_encoder.encode_hello(Hello("subscriber", "loadgen-sub"))]
    for i, pred in enumerate(predicates):
        sub_frames.append(
            sub_encoder.encode_subscribe(
                Subscribe.from_predicate("loadgen-sub", i + 1, pred)
            )
        )

    inputs = Inputs(
        workload=workload, seed=seed, plan=plan, predicates=predicates,
        subscriber_blob=b"".join(sub_frames),
    )
    gen = _Generator(flights, rng, inputs)
    inputs.source_hello = gen.encoder.encode_hello(Hello("source", "loadgen"))
    unit = workload.batch_size

    # set-up: one fix per flight so every replica holds the whole table,
    # then warm-up traffic of the run's own mix
    preload = [gen.encoder.encode_event(gen.position(f)) for f in gen.flights]
    warmup = gen.frames(plan.warmup_events, unit)
    inputs.setup_blob = b"".join(preload + warmup)
    inputs.setup_end = gen.mark()

    paced_events = int(round(plan.paced_seconds * workload.event_rate))
    inputs.paced_units = gen.frames(paced_events, unit)
    inputs.paced_end = gen.mark()
    inputs.unit_offsets = sorted(
        rng.uniform(0.0, plan.paced_seconds) for _ in inputs.paced_units
    )
    inputs.request_offsets = sorted(
        rng.uniform(0.0, plan.paced_seconds)
        for _ in range(int(plan.paced_seconds * workload.request_rate))
    )

    for _ in range(plan.n_bursts):
        frames = gen.frames(plan.burst_events, unit)
        # the sentinel is a status no airline rule acts on, so every
        # mirror function passes it and every population delivers it
        frames.append(
            gen.encoder.encode_event(gen.status(gen.flights[0], "burst closed"))
        )
        inputs.burst_blobs.append(b"".join(frames))
        inputs.burst_ends.append(gen.mark())
    return inputs
