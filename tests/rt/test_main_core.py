"""The sim and live main units are two subclasses of one ``MainCore``.

One script and one request sequence go to the simulator's ``MainUnit``
and the live ``AsyncMainUnit``: they must end on the same state, choose
the same view for every request and keep the same accounting.  Each
unit also serves as every config its site installs says.
"""

import asyncio

from repro.cluster import Message, Network, Node, Transport
from repro.core.adaptation import AdaptCommand
from repro.core.checkpoint import CommitMsg
from repro.core.events import EOS, EventBatch, VectorTimestamp
from repro.core.functions import simple_mirroring
from repro.core.main_unit import MainUnit
from repro.core.maincore import ACCOUNTING
from repro.metrics import RunMetrics
from repro.ois.clients import ClientPool, InitStateRequest
from repro.ois.flightdata import FlightDataConfig, generate_script
from repro.rt.net import NetCentral
from repro.rt.sites import AsyncMainUnit, AsyncMirrorSite
from repro.sim import Environment

WORKLOAD = FlightDataConfig(
    n_flights=20, positions_per_flight=6, seed=5, include_delta=False
)


def delta_config():
    cfg = simple_mirroring()
    cfg.delta_snapshots = True
    return cfg


def script_phases():
    """The script in three runs: the bulk, one more event (a delta's
    worth of change) and the tail (too much change for a delta)."""
    events = [se.event for se in generate_script(WORKLOAD).fresh_events()]
    stamped = [e.stamped(VectorTimestamp({e.stream: e.seqno}), 0.0) for e in events]
    return [stamped[:-30], stamped[-30:-29], stamped[-29:]]


def request_plan():
    """(phase applied before, client, resumes from which earlier answer).
    Plain, plain again (cached), a resume a delta answers, a resume
    that falls back to full, and that same resume again (cached full)."""
    return [
        (0, "a", None),
        (None, "b", None),
        (1, "a", 0),
        (2, "a", 0),
        (None, "c", 0),
    ]


def request_for(client, resume_from, answers):
    if resume_from is None:
        return InitStateRequest(client, 0.0)
    return InitStateRequest(
        client, 0.0, resume_generation=answers[resume_from].generation
    )


def run_sim():
    env = Environment()
    node = Node(env, "central")
    transport = Transport(env, Network(env))
    pool = ClientPool()
    unit = MainUnit(
        env, "central", node, transport, RunMetrics(),
        client_pool=pool, mirror_config=delta_config(),
    )
    phases = script_phases()
    for phase, client, resume_from in request_plan():
        if phase is not None:
            for event in phases[phase]:
                unit.inbox.inbox.put(Message(kind="data", payload=event, size=event.size))
            env.run()
        request = request_for(client, resume_from, pool.responses)
        unit.requests.inbox.put(Message(kind="data", payload=request, size=64))
        env.run()
    return unit, pool.responses


def run_live():
    unit = AsyncMainUnit("central", config=delta_config(), inbox_bound=4)
    phases = script_phases()
    answers = []

    async def drive():
        loop = asyncio.create_task(unit.event_loop())
        applied = 0
        for phase, client, resume_from in request_plan():
            if phase is not None:
                await unit.inbox.put(EventBatch(phases[phase]))
                applied += len(phases[phase])
                while unit.events_applied < applied:
                    await asyncio.sleep(0)
            request = request_for(client, resume_from, answers)
            now = unit.clock()
            answers.append(unit.respond(request, unit.serve(request, now), now))
        await unit.inbox.put(EOS)
        await loop

    asyncio.run(drive())
    return unit, answers


def test_sim_and_live_main_units_agree():
    sim, sim_answers = run_sim()
    live, live_answers = run_live()
    assert sim.events_applied == live.events_applied == sum(
        len(p) for p in script_phases()
    )
    assert sim.ede.state_digest() == live.ede.state_digest()
    assert (
        sim.checkpointer.processed_vt.as_dict()
        == live.checkpointer.processed_vt.as_dict()
    )
    decisions = [r.delta for r in sim_answers]
    assert decisions == [r.delta for r in live_answers]
    assert decisions == [False, False, True, False, False]
    assert [(r.generation, r.snapshot_size, r.full_size) for r in sim_answers] == [
        (r.generation, r.snapshot_size, r.full_size) for r in live_answers
    ]
    counts = {name: getattr(sim, name) for name in ACCOUNTING}
    assert counts == {name: getattr(live, name) for name in ACCOUNTING}
    # built: the first plain view, the delta's refresh, the fallback's;
    # cached: the second plain view and the repeated fallback
    assert counts["snapshot_builds"] == 3
    assert counts["snapshot_cache_hits"] == 2
    assert counts["delta_snapshots_served"] == 1


# ---------------------------------------------- every installed config
def answers_resume_with_delta(main):
    """Whether ``main`` answers a resume one changed flight behind with
    a delta."""
    events = script_phases()[0]
    main.apply_run(events, False)
    first = main.serve(InitStateRequest("c", 0.0), 0.0)
    state = main.ede.state
    state.touch(state.flights()[0].flight_id)
    resume = InitStateRequest("c", 0.0, resume_generation=first.generation)
    return main.serve(resume, 1.0).is_delta


def test_live_mirror_serves_as_the_commit_it_applies_says():
    site = AsyncMirrorSite("mirror1", config=simple_mirroring())
    assert not site.main._serve_deltas
    command = AdaptCommand(action="adapt", config=delta_config(), seq=1)
    site.on_control(CommitMsg(round_id=1, vt=VectorTimestamp(), adapt=command))
    assert answers_resume_with_delta(site.main)


def test_live_central_serves_as_each_config_it_installs_says():
    central = NetCentral(0, config=simple_mirroring())
    assert not central.site.main._serve_deltas
    central.site.apply_config(delta_config())
    assert answers_resume_with_delta(central.site.main)
