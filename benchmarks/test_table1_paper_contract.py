"""Contract: a cold paper-scale Table I reproduces ``results/table1_paper.json``.

All 36 cells (nine paper-size workloads x four strategies on 32 nodes)
are regenerated from scratch — traces built into an empty trace cache,
no result cache — and every row must equal the committed one exactly
(tasks, non-local tasks, Th, Ti, T, efficiency, system phases, Ts).
About 95 CPU-seconds on two workers.

    python -m pytest benchmarks/test_table1_paper_contract.py -q
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments import run_table1

COMMITTED = Path(__file__).resolve().parents[1] / "results" / "table1_paper.json"


def test_cold_paper_table1_matches_committed_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    metrics = run_table1(scale="paper", jobs=2, cache=False)
    expected = json.loads(COMMITTED.read_text())
    rows = [{**m.row(), "phases": m.system_phases, "Ts": m.Ts} for m in metrics]
    assert [(r["workload"], r["strategy"]) for r in rows] == [
        (r["workload"], r["strategy"]) for r in expected
    ]
    for got, want in zip(rows, expected):
        assert got == want, (want["workload"], want["strategy"])
