"""Generated operation sequences against the event kernel.

Random interleavings of schedule, cancel, compaction and single steps
must fire events in exactly sorted ``(time, priority, seq)`` order, and
``pending()`` must equal the number of live events after every
operation.  A plain list of keys is the model.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.event import Simulator

_DELAYS = (0.0, 1e-6, 2.5e-6, 1e-3, 0.25)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(_DELAYS),
                  st.integers(-1, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("step")),
    ),
    max_size=300,
)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_fire_order_is_sorted_key_order_and_pending_is_exact(ops):
    sim = Simulator()
    fired: list[int] = []
    handles = []
    live: dict[int, tuple[float, int, int]] = {}  # seq -> key
    seq = 0
    expected: list[int] = []

    for op in ops:
        if op[0] == "schedule":
            _, delay, prio = op
            handles.append(sim.schedule(delay, fired.append, seq,
                                        priority=prio))
            live[seq] = (sim.now + delay, prio, seq)
            seq += 1
        elif op[0] == "cancel" and handles:
            victim = op[1] % len(handles)
            handles[victim].cancel()
            live.pop(victim, None)
        elif op[0] == "compact":
            sim._compact()
        elif op[0] == "step":
            ran = sim.step()
            assert ran == bool(live)
            if live:
                first = min(live.values())
                expected.append(first[2])
                del live[first[2]]
                assert sim.now == first[0]
        assert sim.pending() == len(live)
        assert fired == expected

    expected += [key[2] for key in sorted(live.values())]
    sim.run()
    assert fired == expected
    assert sim.pending() == 0
    assert sim.events_processed == len(expected)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_DELAYS), st.integers(-1, 2)),
                min_size=70, max_size=200),
       st.integers(0, 2**32 - 1))
def test_mass_cancellation_compacts_without_reordering(entries, salt):
    """Cancel enough events to trigger automatic compaction; the
    survivors still fire in key order."""
    sim = Simulator()
    fired: list[int] = []
    handles = [sim.schedule(d, fired.append, i, priority=p)
               for i, (d, p) in enumerate(entries)]
    keys = {i: (d, p, i) for i, (d, p) in enumerate(entries)}
    doomed = [i for i in range(len(handles)) if (i * 2654435761 + salt) % 5]
    for i in doomed:
        handles[i].cancel()
        del keys[i]
        assert sim.pending() == len(keys)
    assert len(sim._queue) <= 2 * len(keys) + 64
    sim.run()
    assert fired == [k[2] for k in sorted(keys.values())]
