"""Cell-level benchmark of the RIPS reproduction.

Runs a workload through the public API and prints a human-readable
report followed, as its last line, by one JSON object::

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 25 --trace 0

Without ``--workload`` it runs every workload in turn, each in a process
of its own, each report followed by its JSON line.

``--trace 0`` measures the end-to-end metrics with nothing attached:
the gated ones in CPU seconds, and the wall-clock figures (pass time,
cell and session latency, sessions per second) in the report only;
``--trace 1`` instead runs the per-layer ledger (boundary timers and a
profiler rolled up by source file).  The metric names, units and bounds
are those of ``BENCHMARK.json`` at the repository root.  Every output is
checked against ``perfbench/reference.json``.  All scratch state lives
in ``.perfbench_work/`` and is removed on exit; the repository's own
``.trace_cache`` and ``.result_cache`` are never read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def end_to_end(run) -> dict:
    """The gated metrics: set-up and pass cost in CPU seconds, memory,
    and the share of operations that succeeded."""
    from stats import median

    cpus = [p.cpu for p in run.passes]
    attempted = sum(p.attempted for p in run.passes)
    failed = sum(p.failed for p in run.passes)
    return {
        "setup_s": median(run.setups),
        "cpu_s": median(cpus),
        "events_per_cpu_s": sum(p.events for p in run.passes) / sum(cpus),
        "peak_rss_mb": run.peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }


def wall_clock(run) -> list:
    """``(name, value, unit)`` of the figures reported but not gated: the
    CPU time per pass before host-speed scaling, and the wall-clock
    figures, which on a shared host move with its load."""
    from stats import beyond, median, tail

    walls = [p.wall for p in run.passes]
    ops = [x for p in run.passes for x in p.ops]
    rows = [("cpu_unscaled_s", median(p.raw_cpu for p in run.passes), "s"),
            ("wall_s", median(walls), "s"),
            ("events_per_s", sum(p.events for p in run.passes) / sum(walls),
             "1/s")]
    if run.op == "cell":
        return rows + [("cell_p50_s", median(ops), "s")]
    p90 = tail(ops)
    return rows + [
        ("session_p50_ms", median(ops) * 1000.0, f"ms (n={len(ops)})"),
        ("session_p90_ms", "not reported" if p90 is None else p90 * 1000.0,
         f"ms (n={len(ops)}, {beyond(len(ops), 90)} beyond)"),
        ("sessions_per_s", len(ops) / sum(walls), "1/s"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or 'all' to run "
                             "each in turn (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no repro sources under {SRC} or no {SPEC.name}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_each(list(WORKLOADS), args)

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Nothing may leave the checkout (children inherit the environment).
    os.environ["TMPDIR"] = str(work / "tmp")
    # A terminated run still stops its server and removes its scratch
    # (SIGTERM exits through the handler installed above).  Handling
    # SIGINT here also undoes an inherited "ignore" (as in a background
    # job), which the server would keep across exec and so never see the
    # SIGINT that asks it to shut down.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        measure(args.workload, args, spec, work / args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


def run_each(names: list, args) -> int:
    """Run each workload in a process of its own, so that each reports
    its own peak memory; stop at the first that fails."""
    for name in names:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        try:
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
        if code != 0:
            return code
    return 0


def measure(name: str, args, spec: dict, work: Path) -> None:
    """Run one workload and print its report, then its JSON line."""
    import cells
    from workloads import WORKLOADS, Context

    # Backstops: nothing may fall through to the repository's own caches.
    os.environ["REPRO_TRACE_CACHE"] = str(work / "traces")
    os.environ["REPRO_RESULT_CACHE"] = str(work / "store")
    work.mkdir()
    ctx = Context(root=ROOT, src=SRC, work=work, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  refs=cells.References())
    run = WORKLOADS[name](ctx)

    attempted = sum(p.attempted for p in run.passes)
    failed = sum(p.failed for p in run.passes)
    mismatched = sum(p.mismatched for p in run.passes)
    errors = sum(p.errors for p in run.passes)
    if args.trace:
        # A layer a workload never enters reads zero.
        declared = spec["per_layer"]
        values = {m["name"]: 0 for m in declared}
        unknown = sorted(set(run.layers) - set(values))
        if unknown:
            raise RuntimeError(f"undeclared metrics: {', '.join(unknown)}")
        values.update(run.layers)
    else:
        declared = spec["end_to_end"]
        values = end_to_end(run)

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{name}  seed {args.seed}  {mode}  "
          f"{len(run.passes)} pass(es)  {len(run.setups)} set-up(s)")
    for m in declared:
        print(f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}")
    if not args.trace:
        print("  unscaled and wall clock (not gated):")
        for row_name, value, unit in wall_clock(run):
            shown = value if isinstance(value, str) else f"{value:.6g}"
            print(f"  {row_name:<34} {shown:>16} {unit}")
    print(f"  {'failed_frac':<34} {failed / attempted:>16.6g} "
          f"({failed} of {attempted}: {mismatched} digest mismatches, "
          f"{errors} errors, {failed - mismatched - errors} refused)")
    for note in run.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": mismatched == 0 and errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())
