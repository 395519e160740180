"""One table1-cold pass, in a fresh process so that nothing warm carries
over: the small Table-I grid through ``run_requests_report`` with
``warm_start`` on an empty directory and empty trace, snapshot and
result-cache roots.

    python3 perfbench/coldpass.py --work DIR --mode MODE

``--mode timed`` runs the grid on two pool workers, as a first sweep
with ``--jobs 2`` does.  ``wrapped`` and ``profiled`` run it in this
process (one worker) so the boundary timers, and the profiler, see every
call.  Prints one JSON object.  ``setup_s`` (from the start of the
process) and ``cpu`` are CPU seconds of this process and the pool
workers it ran; ``wall`` and ``ops`` (each cell's ``exec_s``) are wall
clock.
"""

import argparse
import contextlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _join_children(timeout: float = 30.0) -> None:
    """Reap the pool's worker processes (the executor shuts its pool
    down without waiting)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for proc in multiprocessing.active_children():
                proc.kill()
                proc.join()
            return
        time.sleep(0.01)


def _cpu() -> float:
    """CPU seconds of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--mode", choices=("timed", "wrapped", "profiled"),
                        required=True)
    args = parser.parse_args(argv)

    work = Path(args.work)
    os.environ["REPRO_TRACE_CACHE"] = str(work / "traces")
    os.environ["REPRO_RESULT_CACHE"] = str(work / "store")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cells
    import ledger
    from repro.runner import ResultCache, run_requests_report

    refs = cells.References()
    reqs = cells.table1_requests()
    results = ResultCache(work / "results")

    out = {"setup_s": time.process_time(), "attempted": len(reqs)}
    report = None
    with contextlib.ExitStack() as stack:
        bounds = profiler = None
        if args.mode != "timed":
            bounds = stack.enter_context(ledger.Boundaries())
        if args.mode == "profiled":
            profiler = stack.enter_context(ledger.Profiler())
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            report = run_requests_report(
                reqs, jobs=2 if args.mode == "timed" else 1, cache=results,
                warm_start=str(work / "snapshots"))
        except Exception as exc:  # noqa: BLE001 - a failed grid is reported
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["wall"] = time.perf_counter() - t0
    _join_children()
    out["cpu"] = _cpu() - c0
    if report is None:
        out.update(mismatched=0, ops=[], events=0)
        print(json.dumps(out))
        return 0

    labels = [req.label() for req in reqs]
    timings = [report.timings[i] for i in sorted(report.timings)]
    out.update(
        mismatched=sum(1 for label, m in zip(labels, report.results)
                       if not refs.check(label, m)),
        ops=[t["exec_s"] for t in timings],
        events=sum(refs.events(label) for label in labels),
        wait_s=[t["wait_s"] for t in timings],
        result_cache_puts=results.stats()["entries"],
        messages=sum(m.messages for m in report.results),
        task_hops=sum(m.task_hops for m in report.results),
        system_phases=sum(m.system_phases for m in report.results),
    )
    if bounds is not None:
        out["bounds"] = ledger.boundary_metrics(bounds)
        out["trace_bytes"] = sum(
            p.stat().st_size for p in (work / "traces").glob("*.pkl"))
    if profiler is not None:
        out["profile"] = ledger.rollup(profiler.stats(), SRC)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
