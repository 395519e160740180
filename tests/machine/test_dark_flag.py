"""``Node._dark`` is ``crashed or fenced or departed`` at every instant.

The CPU and timer paths test the one flag instead of the three states,
so the flag must track every transition the fault injector and the
membership manager make — crash, fence and revive, depart and readmit —
and must survive a checkpoint/restore round trip.
"""

import itertools

import pytest

from repro.faults import FaultPlan
from repro.machine import Machine, MeshTopology
from repro.session import Session

STATES = ("crashed", "fenced", "departed")


def _consistent(node) -> bool:
    return node._dark == (node.crashed or node.fenced or node.departed)


def test_setters_keep_the_flag_exact_in_every_order():
    node = Machine(MeshTopology(1, 2), seed=0).nodes[0]
    assert not node._dark
    for order in itertools.permutations(STATES):
        for value in (True, False):
            for state in order:
                setattr(node, state, value)
                assert _consistent(node), (order, state, value)
    for combo in itertools.product((False, True), repeat=3):
        for state, value in zip(STATES, combo):
            setattr(node, state, value)
        assert node._dark == any(combo)


# (plan, transitions each node state must go through somewhere)
SCENARIOS = {
    "crash": (FaultPlan(seed=404, detector="heartbeat",
                        crashes=((5, 0.01),)),
              {"crashed": (True,)}),
    "fence-revive": (FaultPlan(seed=404, detector="heartbeat",
                               stalls=((3, 0.004, 0.020),)),
                     {"fenced": (True, False)}),
    # the readmission join is scheduled by the test (a plan only joins
    # standby ranks)
    "depart-readmit": (FaultPlan.elastic(leaves=((3, 0.003),), seed=2),
                       {"departed": (True, False)}),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flag_tracks_every_transition_and_survives_restore(name):
    plan, wanted = SCENARIOS[name]
    sess = Session("queens-10", strategy="RID", num_nodes=8, seed=1234,
                   scale="small", faults=plan)
    sess.run(max_events=1)
    nodes = sess._machine.nodes
    sim = sess._machine.sim
    if name == "depart-readmit":
        sim.schedule_at(0.008, sess._machine.faults.membership._start_join, 3)
    last = {(n.rank, s): getattr(n, s) for n in nodes for s in STATES}
    seen = {s: [] for s in STATES}
    snap = None
    while sim.step():
        for node in nodes:
            assert _consistent(node), (node.rank, sim.now)
            for state in STATES:
                value = getattr(node, state)
                if value != last[node.rank, state]:
                    last[node.rank, state] = value
                    seen[state].append(value)
        if snap is None and any(n._dark for n in nodes):
            snap = sess.checkpoint()
    for state, values in wanted.items():
        # the scenario really drove the transitions it is named for
        assert tuple(seen[state][:len(values)]) == values, seen
    assert sess.run() is not None

    assert snap is not None
    restored = Session.restore(snap)
    dark = [n.rank for n in restored._machine.nodes if n._dark]
    assert dark
    assert all(_consistent(n) for n in restored._machine.nodes)
