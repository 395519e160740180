"""The cells the benchmark runs, and the reference digest of each.

A cell's digest covers its simulated output only: every
:class:`~repro.balancers.RunMetrics` field, minus presentation and
host-time extras, plus ``events_processed``.  ``reference.json`` holds
the digests recorded for every cell any workload can run, so every run
checks every output, whatever its ``--seed``.  The seed only orders the
cells and picks which pool cells the served mix submits; it never
changes a cell's inputs.

Regenerate the references (only when the simulated output is meant to
change) with::

    python3 perfbench/cells.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

STRATEGIES = ("random", "gradient", "RID", "RIPS")

#: paper-warm: paper-scale traces on the paper's 32-node mesh
PAPER_KEYS = ("queens-13", "ida-1", "gromos-8")
PAPER_NODES = 32
#: the Session default machine seed, used by every paper and grid cell
MACHINE_SEED = 1234

#: table1-cold: the small Table-I grid at 32 nodes
TABLE1_KEYS = ("queens-10", "queens-11", "queens-12", "ida-1", "ida-2",
               "ida-3", "gromos-8", "gromos-12", "gromos-16")

#: served-mix pool: small 4-node cells, distinct by machine seed
SERVED_KEYS = ("queens-10", "ida-1")
SERVED_NODES = 4
SERVED_SEEDS = 168

#: RunMetrics.extra keys that are labels or host-side bookkeeping, not
#: simulated output
HOST_EXTRAS = frozenset({"workload_label", "shard", "trace_records",
                         "trace_dropped", "trace_records_len"})


def paper_label(key: str, strategy: str) -> str:
    return f"paper:{key}:{strategy}@{PAPER_NODES}n/seed{MACHINE_SEED}"


def table1_requests():
    from repro.runner import RunRequest

    return [RunRequest(workload=key, strategy=strategy, num_nodes=32,
                       seed=MACHINE_SEED, scale="small")
            for key in TABLE1_KEYS for strategy in STRATEGIES]


def served_pool():
    from repro.runner import RunRequest

    return [RunRequest(workload=key, strategy=strategy,
                       num_nodes=SERVED_NODES, seed=seed, scale="small")
            for seed in range(SERVED_SEEDS) for key in SERVED_KEYS
            for strategy in STRATEGIES]


def digest(metrics) -> str:
    """Digest of one cell's simulated output.  ``metrics`` is a
    RunMetrics or its JSON wire form (what the service sends)."""
    doc = metrics if isinstance(metrics, dict) else dataclasses.asdict(metrics)
    doc = json.loads(json.dumps(doc, default=repr))
    doc.pop("speedup", None)
    doc["extra"] = {k: v for k, v in (doc.get("extra") or {}).items()
                    if k not in HOST_EXTRAS}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class References:
    """The recorded digests, and the check every output goes through."""

    def __init__(self) -> None:
        self.cells = json.loads(REFERENCE.read_text())["cells"]

    def check(self, label: str, metrics, events=None) -> bool:
        """True when ``metrics`` (and ``events``, when the caller could
        observe it) match the reference for ``label``."""
        ref = self.cells.get(label)
        if ref is None or digest(metrics) != ref[0]:
            return False
        return events is None or events == ref[1]

    def events(self, label: str) -> int:
        return self.cells[label][1]


def _record(sess) -> list:
    """``[digest, events_processed]`` of one cell run to completion."""
    metrics = sess.run()
    return [digest(metrics), sess.progress()[0]]


def write_references() -> dict:
    """Run every cell directly through ``Session`` and record it."""
    from repro.experiments.common import workload
    from repro.session import Session

    cells = {}
    for key in PAPER_KEYS:
        trace = workload(key, "paper").build(PAPER_NODES)
        for strategy in STRATEGIES:
            cells[paper_label(key, strategy)] = _record(Session(
                trace, strategy=strategy, num_nodes=PAPER_NODES,
                seed=MACHINE_SEED))
    for req in table1_requests() + served_pool():
        cells[req.label()] = _record(Session.from_request(req))
    lines = [f"{json.dumps(label)}: {json.dumps(ref)}"
             for label, ref in sorted(cells.items())]
    REFERENCE.write_text('{"cells": {\n' + ",\n".join(lines) + "\n}}\n")
    return cells


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    work = HERE.parent / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        os.environ["REPRO_TRACE_CACHE"] = tmp
        os.environ["REPRO_RESULT_CACHE"] = tmp
        cells = write_references()
    print(f"wrote {len(cells)} reference digests to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
