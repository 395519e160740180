"""Memory audit: per-subsystem footprint of a live machine."""

from __future__ import annotations

from repro.obs.memory import MEMAUDIT_SCHEMA, format_memory_audit, memory_audit
from repro.session import Session


def test_memory_audit_of_prepared_machine():
    sess = Session("queens-10", strategy="RIPS", num_nodes=8, seed=1,
                   scale="small").prepare()
    audit = memory_audit(sess._machine)
    assert audit["schema"] == MEMAUDIT_SCHEMA
    assert audit["num_nodes"] == 8
    assert audit["total_bytes"] > 0
    assert audit["per_node_bytes"] > 0
    subs = audit["subsystems"]
    for name in ("events", "nodes", "network", "topology"):
        assert name in subs, name
        assert subs[name]["bytes"] >= 0
    assert subs["nodes"]["count"] == 8
    # the parts sum to the whole
    assert audit["total_bytes"] == sum(s["bytes"] for s in subs.values())


def test_memory_audit_formats_as_table():
    sess = Session("queens-10", strategy="RIPS", num_nodes=8, seed=1,
                   scale="small").prepare()
    text = format_memory_audit(memory_audit(sess._machine))
    assert "nodes" in text
    assert "bytes" in text


def test_memory_audit_sizes_pending_heap_entries():
    sess = Session("queens-10", strategy="RIPS", num_nodes=8, seed=1,
                   scale="small").prepare()
    sess.run(max_events=200)  # stop mid-run, with events still queued
    sim = sess._machine.sim
    events = memory_audit(sess._machine)["subsystems"]["events"]
    assert events["count"] == len(sim._queue) > 0
    assert events["bytes"] > 0
