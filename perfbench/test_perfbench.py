"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cells  # noqa: E402
import hostspeed  # noqa: E402
import ledger  # noqa: E402
import served  # noqa: E402
import stats  # noqa: E402


@pytest.fixture(autouse=True)
def _private_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "store"))


def _small_request(seed: int = 0):
    from repro.runner import RunRequest

    return RunRequest(workload="queens-10", strategy="RIPS",
                      num_nodes=cells.SERVED_NODES, seed=seed, scale="small")


def test_every_module_maps_to_a_named_layer():
    package = SRC / "repro"
    unmapped = []
    for path in sorted(package.rglob("*.py")):
        layer = ledger.layer_of(path.relative_to(package).as_posix())
        if layer is None or layer.split(".")[0] not in ledger.LAYERS:
            unmapped.append(str(path.relative_to(SRC)))
    assert not unmapped, f"modules in no named layer: {unmapped}"


def test_layer_map_longest_prefix_wins():
    assert ledger.layer_of("machine/event.py") == "machine.event"
    assert ledger.layer_of("machine/machine.py").startswith("machine.")
    assert ledger.layer_of("service/journal.py") == "store"
    assert ledger.layer_of("service/app.py") == "service"
    assert ledger.layer_of("runner/prefix.py") == "snapshot"
    assert ledger.layer_of("obs/metrics.py") == "service"
    assert ledger.layer_of("not_a_module.py") is None


@pytest.mark.parametrize("n, reported", [
    (0, False), (10, False), (91, False), (92, True), (100, True),
    (1000, True),
])
def test_p90_needs_ten_samples_beyond_it(n, reported):
    samples = [float(i) for i in range(n)]
    p90 = stats.tail(samples, 90)
    assert (p90 is not None) == reported
    if reported:
        assert stats.beyond(n, 90) >= stats.MIN_BEYOND
        assert sum(1 for x in samples if x > p90) >= stats.MIN_BEYOND
    else:
        assert stats.beyond(n, 90) < stats.MIN_BEYOND


def test_median_of_no_samples_raises():
    assert stats.median([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_meter_scales_work_by_the_probes_around_it(monkeypatch):
    times = iter([0.1, 0.1, 0.2])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(times))
    meter = hostspeed.Meter(hostspeed.cpus()[:1])
    assert meter.charge(1.0) == pytest.approx(hostspeed.REFERENCE_S / 0.1)
    assert meter.charge(1.0) == pytest.approx(
        2 * hostspeed.REFERENCE_S / 0.3)


def test_probe_on_restores_the_affinity():
    before = hostspeed.cpus()
    assert hostspeed.probe_on(before) > 0
    assert hostspeed.cpus() == before


def test_digest_is_the_same_for_a_cell_and_its_wire_form():
    from repro.service.manager import metrics_to_wire
    from repro.session import Session

    metrics = Session.from_request(_small_request()).run()
    wire = metrics_to_wire(metrics)
    assert cells.digest(metrics) == cells.digest(wire)
    metrics.extra["workload_label"] = "renamed"
    assert cells.digest(metrics) == cells.digest(wire)
    metrics.messages += 1
    assert cells.digest(metrics) != cells.digest(wire)


def test_references_cover_every_cell():
    refs = cells.References()
    labels = ([cells.paper_label(k, s) for k in cells.PAPER_KEYS
               for s in cells.STRATEGIES]
              + [r.label() for r in cells.table1_requests()]
              + [r.label() for r in cells.served_pool()])
    assert sorted(labels) == sorted(refs.cells)


def test_a_reference_check_catches_wrong_output_and_wrong_events():
    from repro.session import Session

    req = _small_request(seed=3)
    sess = Session.from_request(req)
    metrics = sess.run()
    events = sess.progress()[0]
    refs = cells.References()
    assert refs.check(req.label(), metrics, events)
    assert refs.check(req.label(), metrics)
    assert not refs.check(req.label(), metrics, events + 1)
    metrics.T *= 1.0 + 1e-12
    assert not refs.check(req.label(), metrics, events)


def test_served_schedule_is_seeded_and_repeats_only_finished_cells():
    pool = cells.served_pool()
    plan = served.schedule(pool, seed=7, passes=3)
    assert plan == served.schedule(pool, seed=7, passes=3)
    assert plan != served.schedule(pool, seed=8, passes=3)
    firsts = []
    for clients in plan:
        assert len(clients) == served.CLIENTS
        kinds = {}
        for ops in clients:
            seen = []
            for i, req in enumerate(ops):
                if req in ops[:i]:
                    continue
                assert req not in firsts
                seen.append(req)
            assert len(seen) == served.DISTINCT
            assert len(ops) - len(seen) == served.REPEATS
            firsts.extend(seen)
            for req in seen:
                kind = (req.workload, req.strategy)
                kinds[kind] = kinds.get(kind, 0) + 1
        assert len(set(kinds.values())) == 1
    assert len(firsts) == len(set(firsts))


def test_served_schedule_stops_when_the_pool_runs_out():
    per_pass = served.CLIENTS * served.DISTINCT
    pool = cells.served_pool()[:per_pass * 2 + 8]
    assert len(served.schedule(pool, seed=1, passes=5)) == 2


def test_rollup_accounts_for_all_profiled_time():
    from repro.session import Session

    sess = Session.from_request(_small_request())
    sess.prepare()
    with ledger.Profiler() as prof:
        sess.run()
    st = prof.stats()
    out = ledger.rollup(st, SRC)
    total = sum(out[f"{layer}.self_s"] for layer in ledger.LAYERS)
    total += out["layer.other_self_s"]
    assert total == pytest.approx(st.total_tt, rel=0.02)
    assert out["machine.event_lt_calls"] > 0
    assert out["machine.heap_ops"] > 0
    assert out["machine.node.exec_cpu_calls"] > 0
    parts = sum(out[f"machine.{p}.self_s"] for p in ledger.MACHINE_PARTS)
    assert 0 < parts <= out["machine.self_s"] + 1e-9


def test_boundaries_count_and_restore():
    from repro.session import Session

    original = Session.run
    with ledger.Boundaries() as bounds:
        sess = Session.from_request(_small_request())
        sess.run()
    assert Session.run is original
    out = ledger.boundary_metrics(bounds)
    assert out["apps.builds"] == 1
    assert out["apps.build_useful_ratio"] == 1.0
    assert out["machine.events"] == sess.progress()[0]
    assert out["balancers.cell_s.RIPS"] > 0


def test_server_process_reports_its_cpu_time_and_stops(tmp_path):
    from repro.service import ServiceClient

    server = served.ServerProcess(SRC, tmp_path / "serve", {},
                                  hostspeed.cpus()[0]).start()
    try:
        first = server.cpu()
        assert ServiceClient(server.url).healthz()
        assert 0 < first <= server.cpu()
        proc = server.proc
    finally:
        server.stop()
    assert proc.returncode is not None
    assert "Fatal" not in (tmp_path / "serve" / "server.log").read_text()
