"""Discrete-event kernel."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.ssd.events import EventQueue, Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.after(5.0, lambda: fired.append("b"))
    sim.after(1.0, lambda: fired.append("a"))
    sim.after(9.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 9.0


def test_same_time_events_fifo():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.after(3.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.after(2.0, lambda: fired.append(("second", sim.now)))

    sim.after(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("second", 3.0)]


def test_run_until_bounds_time():
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: fired.append(1))
    sim.after(100.0, lambda: fired.append(2))
    sim.run(until=50.0)
    assert fired == [1]
    assert sim.now == 50.0
    # resuming processes the rest
    sim.run()
    assert fired == [1, 2]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1.0, lambda: None)


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.after(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.after(1.0, loop)

    sim.after(1.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_events_budget_is_per_run_call():
    """The guard bounds each run() call, not the simulator's lifetime —
    resumable simulations get a fresh budget every call."""
    sim = Simulator()
    for i in range(60):
        sim.after(float(i + 1), lambda: None)
    sim.run(until=30.0, max_events=40)  # 30 events: within budget
    sim.run(max_events=40)              # 30 more: fresh budget, still fine
    assert sim.processed_events == 60   # lifetime total keeps accumulating


def test_tie_break_counter_is_explicit_and_monotonic():
    """Equal-time ordering rests on an explicit per-push counter, not on
    accidental heap stability — pin both the counter and the order."""
    q = EventQueue()
    assert q.tie_break == 0
    for _ in range(4):
        q.push(5.0, lambda: None)
    q.push(1.0, lambda: None)
    assert q.tie_break == 5  # one monotonic value per push, never reused
    seqs = [q.pop()[1] for _ in range(len(q))]
    assert seqs == [4, 0, 1, 2, 3]  # time first, then submission order


def test_same_time_fifo_across_batch_boundaries():
    """Work a callback schedules *at the current timestamp* runs after
    everything already queued at that timestamp — the run loop's
    ordering contract."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        # same-time follow-ups: must run after "second" and "third", which
        # were already queued at t=2.0 when this callback fired
        sim.after(0.0, lambda: fired.append("late-a"))
        sim.after(0.0, lambda: fired.append("late-b"))

    sim.after(2.0, first)
    sim.after(2.0, lambda: fired.append("second"))
    sim.after(2.0, lambda: fired.append("third"))
    sim.run()
    assert fired == ["first", "second", "third", "late-a", "late-b"]
    assert sim.now == 2.0


def test_max_events_mid_batch_leaves_queue_resumable():
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.after(1.0, lambda i=i: fired.append(i))
    with pytest.raises(SimulationError):
        sim.run(max_events=2)
    assert fired == [0, 1, 2]  # the guard trips on the event *after* the cap
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]  # tail survived with its order


def test_event_queue_pop_empty_raises_simulation_error():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.pop()


def test_event_queue_peek():
    q = EventQueue()
    assert q.peek_time() is None
    q.push(4.0, lambda: None)
    q.push(2.0, lambda: None)
    assert q.peek_time() == 2.0
    assert len(q) == 2


# --- the order contract, on random schedules --------------------------------

#: delays a node's children are pushed at; zeros push at ``now``
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0, 3.0])


@st.composite
def _schedules(draw):
    """A random forest of events as ``(parent, delay)`` per node: a root
    (parent -1) is pushed before the run at time ``delay``; any other node
    is pushed ``delay`` after its parent fires, in index order with its
    siblings."""
    n = draw(st.integers(min_value=1, max_value=40))
    return [(draw(st.integers(min_value=-1, max_value=i - 1)), draw(_DELAYS))
            for i in range(n)]


def _children(nodes):
    children = {i: [] for i in range(-1, len(nodes))}
    for i, (parent, _delay) in enumerate(nodes):
        children[parent].append(i)
    return children


def _reference_order(nodes):
    """``(node, time)`` in firing order, from a linear-scan scheduler that
    always fires the pending entry with the smallest (time, push number)."""
    children = _children(nodes)
    pending, fired = [], []
    pushes = itertools.count()

    def push(time, node):
        pending.append((time, next(pushes), node))

    for root in children[-1]:
        push(nodes[root][1], root)
    while pending:
        entry = min(pending)
        pending.remove(entry)
        time, _seq, node = entry
        fired.append((node, time))
        for child in children[node]:
            push(time + nodes[child][1], child)
    return fired


def _simulated_order(nodes, cuts):
    """The same schedule on :class:`Simulator`, run in slices that end at
    each ``until`` in ``cuts`` and then to completion."""
    sim = Simulator()
    children = _children(nodes)
    fired = []

    def fire(node):
        fired.append((node, sim.now))
        for child in children[node]:
            sim.after(nodes[child][1], lambda c=child: fire(c))

    for root in children[-1]:
        sim.at(nodes[root][1], lambda r=root: fire(r))
    for until in sorted(cuts):
        sim.run(until=until)
        # a slice fires everything due by ``until`` and nothing later
        assert all(time <= until for _node, time in fired)
        assert sim.events.peek_time() is None or \
            sim.events.peek_time() > until
    sim.run()
    assert sim.processed_events == len(nodes)
    return fired


@given(_schedules(),
       st.lists(st.integers(min_value=0, max_value=40).map(lambda k: k / 2),
                max_size=4))
@settings(max_examples=200, deadline=None)
def test_events_fire_in_time_then_push_order(nodes, cuts):
    """Events fire in (time, push order), including events a callback
    pushes at ``now``, and cutting the run at any ``until`` and resuming
    fires the same sequence."""
    expected = _reference_order(nodes)
    assert _simulated_order(nodes, []) == expected
    assert _simulated_order(nodes, cuts) == expected
