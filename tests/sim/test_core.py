"""Unit tests for the DES kernel: events, processes, conditions, run()."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.core import AllOf, Environment, Event, Timeout


def test_clock_starts_at_zero(env):
    assert env.now == 0.0


def test_clock_custom_start():
    assert Environment(initial_time=5.0).now == 5.0


def test_timeout_advances_clock(env):
    def proc():
        yield env.timeout(2.5)

    env.process(proc())
    env.run()
    assert env.now == 2.5


def test_negative_timeout_rejected(env):
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_carries_value(env):
    def proc():
        value = yield env.timeout(1.0, value="payload")
        return value

    p = env.process(proc())
    env.run()
    assert p.value == "payload"


def test_process_return_value(env):
    def proc():
        yield env.timeout(1.0)
        return 42

    p = env.process(proc())
    env.run()
    assert p.value == 42
    assert not p.is_alive


def test_processes_interleave_in_time_order(env):
    order = []

    def proc(name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc("late", 2.0))
    env.process(proc("early", 1.0))
    env.run()
    assert order == ["early", "late"]


def test_simultaneous_events_fifo_by_schedule_order(env):
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_process(env):
    def inner():
        yield env.timeout(3.0)
        return "inner-result"

    def outer():
        result = yield env.process(inner())
        return result

    p = env.process(outer())
    env.run()
    assert p.value == "inner-result"
    assert env.now == 3.0


def test_event_succeed_wakes_waiter(env):
    gate = env.event()
    got = []

    def waiter():
        value = yield gate
        got.append((env.now, value))

    def firer():
        yield env.timeout(4.0)
        gate.succeed("go")

    env.process(waiter())
    env.process(firer())
    env.run()
    assert got == [(4.0, "go")]


def test_event_fail_raises_in_waiter(env):
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(firer())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected(env):
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_fail_requires_exception_instance(env):
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_yield_non_event_raises_inside_process(env):
    caught = []

    def proc():
        try:
            yield 42
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught and "non-event" in caught[0]


def test_uncaught_process_exception_propagates(env):
    def proc():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_time_stops_exactly(env):
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event_returns_value(env):
    def proc():
        yield env.timeout(2.0)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_run_backwards_rejected(env):
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_deadlock_detected(env):
    gate = env.event()  # nobody will ever fire it

    def waiter():
        yield gate

    p = env.process(waiter())
    with pytest.raises(DeadlockError):
        env.run(until=p)


def test_step_on_empty_heap_raises(env):
    with pytest.raises(DeadlockError):
        env.step()


def test_all_of_waits_for_all(env):
    t1 = env.timeout(1.0, value="a")
    t2 = env.timeout(3.0, value="b")

    def proc():
        result = yield env.all_of([t1, t2])
        return sorted(result.values())

    p = env.process(proc())
    env.run()
    assert env.now == 3.0
    assert p.value == ["a", "b"]


def test_all_of_empty_fires_immediately(env):
    def proc():
        yield env.all_of([])
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0


def test_all_of_fails_fast(env):
    gate = env.event()

    def firer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("broken"))

    def proc():
        with pytest.raises(RuntimeError):
            yield env.all_of([gate, env.timeout(50.0)])
        return env.now

    env.process(firer())
    p = env.process(proc())
    env.run()
    assert p.value == 1.0


def test_condition_with_already_processed_events(env):
    t = env.timeout(1.0, value="x")
    env.run(until=2.0)

    def proc():
        result = yield env.all_of([t])
        return list(result.values())

    p = env.process(proc())
    env.run()
    assert p.value == ["x"]


def test_event_from_other_environment_rejected(env):
    other = Environment()
    foreign = other.timeout(1.0)
    caught = []

    def proc():
        try:
            yield foreign
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(proc())
    env.run()
    assert caught and "Environment" in caught[0]


def test_event_value_before_trigger_raises(env):
    with pytest.raises(SimulationError):
        env.event().value
    with pytest.raises(SimulationError):
        env.event().ok


# ---------------------------------------------------------------------------
# failure surfacing: a failed event nobody consumes must never vanish
# ---------------------------------------------------------------------------


def test_failing_process_with_zero_waiters_surfaces(env):
    """Regression: a crashed process nobody waits on must raise from run()."""

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("nobody is watching")

    env.process(crasher())
    with pytest.raises(RuntimeError, match="nobody is watching"):
        env.run()


def test_failing_process_with_zero_waiters_surfaces_via_step(env):
    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("stepped on")

    env.process(crasher())
    with pytest.raises(RuntimeError, match="stepped on"):
        for _ in range(10):
            env.step()


def test_failed_event_without_waiters_surfaces(env):
    env.event().fail(RuntimeError("unwatched failure"))
    with pytest.raises(RuntimeError, match="unwatched failure"):
        env.run()


def test_second_failure_after_all_of_failed_surfaces(env):
    """AllOf fails fast on the first failure; a second failing sub-event has
    nobody left to consume it and must surface, not vanish."""

    def crasher(delay, msg):
        yield env.timeout(delay)
        raise RuntimeError(msg)

    def waiter():
        try:
            yield env.all_of([
                env.process(crasher(1.0, "first")),
                env.process(crasher(2.0, "second")),
            ])
        except RuntimeError:
            pass  # the first failure is consumed here

    env.process(waiter())
    with pytest.raises(RuntimeError, match="second"):
        env.run()


def test_waited_on_failure_is_consumed(env):
    """A failure a process catches is defused: the run continues cleanly."""

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("caught below")

    def guardian():
        try:
            yield env.process(crasher())
        except RuntimeError:
            pass
        yield env.timeout(1.0)
        return env.now

    p = env.process(guardian())
    env.run()
    assert p.value == 2.0


def test_defused_property_reflects_consumption(env):
    gate = env.event()

    def waiter():
        try:
            yield gate
        except RuntimeError:
            pass

    env.process(waiter())

    def firer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(firer())
    assert not gate.defused
    env.run()
    assert gate.defused
