"""Unit tests for the DES kernel (environment, events, processes)."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Resource,
    SimulationError,
    Store,
)
from repro.sim.kernel import URGENT


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3)
        log.append(env.now)
        yield env.timeout(4.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.0, 7.5]


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc():
        got.append((yield env.timeout(1, value="hello")))

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_run_until_time_stops_early():
    env = Environment()
    log = []

    def proc():
        for _ in range(10):
            yield env.timeout(1)
            log.append(env.now)

    env.process(proc())
    env.run(until=4.5)
    assert log == [1, 2, 3, 4]
    assert env.now == 4.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=ev)


def test_same_time_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ["a", "b", "c"]:
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield env.timeout(3)
        ev.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["payload"]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    env.run()


def test_event_fail_throws_into_process():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    env.process(waiter())
    ev.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_propagates_from_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_fail_requires_exception_instance():
    env = Environment()
    ev = env.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_exception_propagates_to_waiting_parent():
    env = Environment()

    def child():
        yield env.timeout(1)
        raise ValueError("child failed")

    def parent(log):
        try:
            yield env.process(child())
        except ValueError as e:
            log.append(str(e))

    log = []
    env.process(parent(log))
    env.run()
    assert log == ["child failed"]


def test_uncaught_process_exception_escapes_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("kaboom")

    env.process(proc())
    with pytest.raises(ValueError, match="kaboom"):
        env.run()


def test_process_waits_on_subprocess_return_value():
    env = Environment()

    def child():
        yield env.timeout(2)
        return "result"

    def parent(log):
        value = yield env.process(child())
        log.append((env.now, value))

    log = []
    env.process(parent(log))
    env.run()
    assert log == [(2.0, "result")]


def test_waiting_on_already_processed_event_resumes_immediately():
    env = Environment()

    def child():
        yield env.timeout(1)
        return "early"

    log = []

    def parent():
        p = env.process(child())
        yield env.timeout(10)
        # p finished long ago; yielding it must still resume us with its value
        value = yield p
        log.append((env.now, value))

    env.process(parent())
    env.run()
    assert log == [(10.0, "early")]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def attacker(p):
        yield env.timeout(5)
        p.interrupt(cause="preempted")

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    assert log == [(5.0, "preempted")]


def test_interrupt_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(10)
        log.append(env.now)

    def attacker(p):
        yield env.timeout(5)
        p.interrupt()

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    assert log == [15.0]


def test_process_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_all_of_waits_for_every_event():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(3, value="a")
        t2 = env.timeout(7, value="b")
        results = yield (t1 & t2)
        log.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert log == [(7.0, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(7, value="slow")
        results = yield (t1 | t2)
        log.append((env.now, list(results.values())))

    env.process(proc())
    env.run()
    assert log == [(3.0, ["fast"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    cond = AllOf(env, [])
    assert cond.triggered


def test_condition_rejects_foreign_environment_events():
    env1, env2 = Environment(), Environment()
    with pytest.raises(SimulationError):
        AnyOf(env1, [env2.timeout(1)])


def test_step_without_events_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4)
    assert env.peek() == 4.0


def test_nontrivial_process_tree_deterministic():
    """Run a small fork/join workload twice; traces must be identical."""

    def scenario():
        env = Environment()
        trace = []

        def worker(wid, delay):
            yield env.timeout(delay)
            trace.append((env.now, wid))
            return wid

        def coordinator():
            procs = [env.process(worker(i, (i * 37) % 11 + 1)) for i in range(20)]
            results = yield env.all_of(procs)
            trace.append(("joined", len(results)))

        env.process(coordinator())
        env.run()
        return trace

    assert scenario() == scenario()


# ------------------------------------------------------ trace scenarios
def run_contention():
    """Store + resource contention with an interrupt; returns the
    (label, time, value) trace."""
    env = Environment()
    trace = []
    store = Store(env, capacity=2)
    cpu = Resource(env, capacity=1)

    def producer(name, period, items):
        for i in range(items):
            yield env.timeout(period)
            yield store.put(f"{name}{i}")
            trace.append(("put", env.now, f"{name}{i}"))

    def consumer(name, count):
        for _ in range(count):
            item = yield store.get()
            req = cpu.request()
            yield req
            trace.append(("use", env.now, f"{name}:{item}"))
            yield env.timeout(0.5)
            cpu.release(req)

    def meddler(victim):
        yield env.timeout(2.25)
        victim.interrupt("poke")

    def fragile():
        try:
            yield env.timeout(10.0)
            trace.append(("slept", env.now, None))
        except Interrupt as exc:
            trace.append(("interrupted", env.now, exc.cause))

    env.process(producer("a", 1.0, 4))
    env.process(producer("b", 1.5, 3))
    env.process(consumer("c1", 4))
    env.process(consumer("c2", 3))
    env.process(meddler(env.process(fragile())))
    env.run()
    trace.append(("end", env.now, None))
    return trace


def run_priorities():
    """URGENT vs NORMAL at the same instant: an URGENT wakeup scheduled
    *after* a same-time NORMAL timeout still fires first, and equal
    (time, priority) entries keep creation order."""
    env = Environment()
    trace = []

    def sleeper(tag):
        for i in range(3):
            yield env.timeout(1.0)
            trace.append((tag, i, env.now))

    env.process(sleeper("n1"))
    env.process(sleeper("n2"))
    for tick in (1.0, 2.0, 3.0):
        urgent = Event(env)
        urgent._ok = True
        urgent._value = tick
        urgent.callbacks.append(
            lambda ev, t=tick: trace.append(("urgent", t, env.now))
        )
        env._schedule_event(urgent, URGENT, delay=tick)
    env.run()
    return trace


@pytest.mark.parametrize("scenario", [run_contention, run_priorities],
                         ids=["run_contention", "run_priorities"])
def test_trace_scenarios_repeat(scenario):
    first = scenario()
    assert first and scenario() == first


def test_urgent_fires_before_same_time_normal():
    trace = run_priorities()
    for tick in (1.0, 2.0, 3.0):
        at_tick = [entry[0] for entry in trace if entry[-1] == tick]
        assert at_tick == ["urgent", "n1", "n2"]


def test_interleaved_environments_stay_independent():
    """Two environments advanced in lockstep share the module but never
    clocks or queues."""
    envs = [Environment(), Environment()]
    traces = [[], []]

    for env, trace in zip(envs, traces):
        def ticker(env=env, trace=trace):
            for i in range(5):
                yield env.timeout(1.0)
                trace.append((i, env.now))
        env.process(ticker())

    # run alternately, one scheduled step at a time
    idle = float("inf")
    while any(env.peek() != idle for env in envs):
        for env in envs:
            if env.peek() != idle:
                env.step()
    assert traces[0] == traces[1] == [(i, float(i + 1)) for i in range(5)]
    assert envs[0].now == envs[1].now
