"""The benchmark's three workloads.

Each workload sets up (several times, so ``setup_s`` is a median), then
repeats a fixed pass of work until ``--seconds`` have gone by (at least
one pass).  A pass is the same work every time, so its cost compares
across runs and commits.  Set-ups and passes are charged the CPU time of
every process that does their work: this one (with its client threads),
the pool workers, the server.  CPU time leaves out what a shared host
adds to wall time (time stolen by other guests, waits for a busy CPU or
disk), and each process is pinned to fixed CPUs whose speed
:mod:`hostspeed` probes around every stretch of work, so that the scaled
CPU seconds repeat across runs where wall time does not; wall time is
measured too and reported alongside.

``--seed`` orders the paper cells and picks and orders the served cells;
the work in a pass has the same size for every seed.  The cold grid runs
in the paper's row order for every seed: on two pool workers the order
decides how the pool fills, and so the wall time.

* ``paper-warm`` -- paper-scale queens-13, ida-1 and gromos-8 under the
  four strategies on the 32-node mesh, traces built in set-up, cells run
  one after another through ``Session.run``.  Exercises the machine,
  balancers and core; nothing else runs.
* ``table1-cold`` -- the small Table-I grid through
  ``run_requests_report(jobs=2, warm_start=<empty dir>)`` with every
  cache root empty, each pass in a fresh process.  Trace generation and
  the warm-start prefix capture take about half of it.
* ``served-mix`` -- two closed-loop clients against ``python -m repro
  serve``, a new server on a fresh store for each pass: distinct 4-node
  cells (result-cache misses that write the journal, store and cache)
  with one submit in four repeating a finished cell (a cache read).

In trace mode (``--trace 1``) a workload runs one pass as timed, one
with the boundary timers in this process, and one more under the
profiler, and returns the per-layer ledger instead.  paper-warm already
runs in this process, so its boundary pass is also its timed pass.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import cells
import hostspeed
import ledger
import served
from stats import median

HERE = Path(__file__).resolve().parent

#: Set-ups per paper-warm run; ``setup_s`` is their median.  The paper
#: traces take seconds to build, so paper-warm sets up only twice.
#: served-mix sets up before every pass, table1-cold in every pass.
PAPER_SETUPS = 2
#: Host-speed probes per CPU at each edge of a grid or served pass.  A
#: paper cell gets one: a pass has a dozen cells.
EDGE_PROBES = 4
#: Upper bound on one table1-cold pass process.
PASS_TIMEOUT_S = 170


@dataclass
class Pass:
    """One pass of a workload's fixed work."""

    wall: float
    events: int
    #: wall seconds of each operation that completed (a cell, or a
    #: served session from submit to its result frame)
    ops: list
    attempted: int
    #: CPU seconds of the pass, over every process that did its work,
    #: at the reference host speed
    cpu: float = 0.0
    #: the same before scaling
    raw_cpu: float = 0.0
    #: outputs that differ from their reference digest
    mismatched: int = 0
    #: operations that raised or never produced a result
    errors: int = 0
    #: 429/503 refusals
    refused: int = 0

    @property
    def failed(self) -> int:
        return self.mismatched + self.errors + self.refused


@dataclass
class Run:
    #: what one operation is: a "cell" or a served "session"
    op: str = "cell"
    #: CPU seconds of each set-up, at the reference host speed
    setups: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: workload-specific lines for the human-readable report
    notes: list = field(default_factory=list)
    #: per-layer metrics (trace mode only)
    layers: dict = field(default_factory=dict)


@dataclass
class Context:
    root: Path
    src: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    refs: cells.References


def _timed_passes(seconds: float, run_pass, limit: int = 1_000_000) -> list:
    """Run passes until ``seconds`` have elapsed (at least one)."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while not passes or (time.perf_counter() - t0 < seconds
                         and len(passes) < limit):
        passes.append(run_pass(len(passes)))
    return passes


def _meter(ctx: Context, cpu_set, n: int = 1):
    """A host-speed meter on ``cpu_set``; none in trace mode, where the
    probes would show in the profile."""
    return (hostspeed.Unscaled() if ctx.trace
            else hostspeed.Meter(cpu_set, n))


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any ended child
    (each workload runs in a process of its own)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def _sim_totals(metrics: list) -> dict:
    """Simulated-output totals of finished cells (RunMetrics objects or
    their wire dicts)."""
    def total(name: str) -> int:
        return sum(m[name] if isinstance(m, dict) else getattr(m, name)
                   for m in metrics)

    return {"machine.messages": total("messages"),
            "machine.task_hops": total("task_hops"),
            "core.system_phases": total("system_phases")}


# ----------------------------------------------------------------------
# paper-warm
# ----------------------------------------------------------------------
def paper_warm(ctx: Context) -> Run:
    from repro.experiments.common import workload
    from repro.session import Session

    run = Run()
    cpu = {hostspeed.cpus()[0]}
    hostspeed.pin(cpu)
    meter = _meter(ctx, cpu)
    traces: dict = {}
    for i in range(1 if ctx.trace else PAPER_SETUPS):
        os.environ["REPRO_TRACE_CACHE"] = str(ctx.work / f"traces-{i}")
        traces.clear()  # one set of traces alive at a time
        cost = 0.0
        for key in cells.PAPER_KEYS:
            c0 = time.process_time()
            traces[key] = workload(key, "paper").build(cells.PAPER_NODES)
            cost += meter.charge(time.process_time() - c0)
        run.setups.append(cost)
    grid = [(key, s) for key in cells.PAPER_KEYS for s in cells.STRATEGIES]
    rng = random.Random(ctx.seed)
    finished: list = []

    def one_pass(_index: int) -> Pass:
        order = list(grid)
        rng.shuffle(order)
        p = Pass(wall=0.0, events=0, ops=[], attempted=len(order))
        for key, strategy in order:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                sess = Session(traces[key], strategy=strategy,
                               num_nodes=cells.PAPER_NODES,
                               seed=cells.MACHINE_SEED)
                metrics = sess.run()
            except Exception as exc:  # noqa: BLE001 - counted as failed
                p.errors += 1
                run.notes.append(f"{key}/{strategy} raised {exc!r}")
                continue
            finally:
                wall = time.perf_counter() - t0
                raw = time.process_time() - c0
                p.raw_cpu += raw
                p.cpu += meter.charge(raw)
                p.wall += wall
            p.ops.append(wall)
            events = sess.progress()[0]
            p.events += events
            finished.append(metrics)
            if not ctx.refs.check(cells.paper_label(key, strategy),
                                  metrics, events):
                p.mismatched += 1
        return p

    if not ctx.trace:
        run.passes = _timed_passes(ctx.seconds, one_pass)
        run.peak_rss_mb = peak_rss_mb()
        return run

    with ledger.Boundaries() as bounds:
        reference = one_pass(0)
    totals = _sim_totals(finished)
    with ledger.Boundaries(), ledger.Profiler() as prof:
        traced = one_pass(1)
    run.passes = [reference, traced]
    run.layers = {**ledger.boundary_metrics(bounds), **totals,
                  **ledger.rollup(prof.stats(), ctx.src),
                  "trace.overhead_ratio": traced.wall / reference.wall}
    return run


# ----------------------------------------------------------------------
# table1-cold
# ----------------------------------------------------------------------
def _cold_pass(ctx: Context, index: int, mode: str) -> dict:
    work = ctx.work / f"grid-{index}-{mode}"
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldpass.py"), "--work", str(work),
         "--mode", mode],
        cwd=ctx.root, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"table1-cold pass ({mode}) exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _as_pass(doc: dict, scale: float) -> Pass:
    return Pass(wall=doc["wall"], events=doc["events"], ops=doc["ops"],
                cpu=doc["cpu"] * scale, raw_cpu=doc["cpu"],
                attempted=doc["attempted"],
                mismatched=doc["mismatched"],
                errors=doc["attempted"] if "error" in doc else 0)


def table1_cold(ctx: Context) -> Run:
    """The pass processes, with their two pool workers, run on two CPUs,
    and each pass is scaled by the mean speed of both."""
    run = Run()
    cpu_set = set(hostspeed.cpus()[:2])
    hostspeed.pin(cpu_set)
    meter = _meter(ctx, cpu_set, EDGE_PROBES)
    docs: list[dict] = []

    def one_pass(index: int, mode: str = "timed") -> Pass:
        doc = _cold_pass(ctx, index, mode)
        scale = meter.factor()
        docs.append(doc)
        run.setups.append(doc["setup_s"] * scale)
        if "error" in doc:
            run.notes.append(f"grid pass {index} raised {doc['error']}")
        return _as_pass(doc, scale)

    if not ctx.trace:
        run.passes = _timed_passes(ctx.seconds, one_pass)
        run.peak_rss_mb = peak_rss_mb()
        return run

    timed = one_pass(0)
    reference = one_pass(1, "wrapped")
    traced = one_pass(2, "profiled")
    run.passes = [timed, reference, traced]
    grid, wrapped, profiled = docs
    run.layers = {
        **wrapped["bounds"],
        "apps.trace_bytes": wrapped["trace_bytes"],
        "machine.messages": grid["messages"],
        "machine.task_hops": grid["task_hops"],
        "core.system_phases": grid["system_phases"],
        "runner.wait_p50_s": median(grid["wait_s"]),
        "runner.exec_p50_s": median(grid["ops"]),
        "runner.result_cache_puts": grid["result_cache_puts"],
        **profiled["profile"],
        "trace.overhead_ratio": traced.wall / reference.wall,
    }
    return run


# ----------------------------------------------------------------------
# served-mix
# ----------------------------------------------------------------------
def _served_pass(url: str, plan: list, refs,
                 server: served.ServerProcess | None = None,
                 meters=(hostspeed.Unscaled, hostspeed.Unscaled)
                 ) -> tuple[Pass, list]:
    """One pass against the server at ``url``: ``server`` when it is a
    process of its own, else a server hosted in this process.  The
    clients' and the server's CPU time are scaled by ``meters``, those of
    their CPUs."""
    c0 = time.process_time()
    s0 = server.cpu() if server else 0.0
    out = served.run_pass(url, plan, refs)
    raw = (time.process_time() - c0, server.cpu() - s0 if server else 0.0)
    cpu = meters[0].charge(raw[0]) + (meters[1].charge(raw[1]) if server
                                      else 0.0)
    sessions = out["sessions"]
    ok = [s for s in sessions if s["ok"]]
    p = Pass(
        wall=out["wall"],
        cpu=cpu,
        raw_cpu=sum(raw),
        events=sum(s["events"] for s in ok),
        ops=[s["latency_s"] for s in ok],
        attempted=sum(len(ops) for ops in plan),
        mismatched=sum(1 for s in sessions if s["mismatch"]),
        refused=sum(1 for s in sessions if s["refused"]),
    )
    p.errors = p.attempted - len(ok) - p.mismatched - p.refused
    return p, sessions


def _service_config(store_root: Path):
    from repro.service import ServiceConfig

    return ServiceConfig(port=0, store_root=str(store_root),
                         quota_tokens=served.QUOTA_TOKENS,
                         quota_refill=served.QUOTA_REFILL)


def _registry(doc: dict) -> dict:
    """``/v1/metrics`` series by name."""
    return {s["name"]: s for s in doc["metrics"]["series"]
            if not s.get("labels")}


def _boot(ctx: Context, work: Path, run: Run, cpus: tuple,
          meters: tuple) -> served.ServerProcess:
    """Set up a server on a fresh store and trace cache, charging the
    set-up to ``run``: build the served traces, start the server on
    ``cpus[1]``."""
    from repro.experiments.common import workload

    env = {"REPRO_TRACE_CACHE": str(work / "traces"),
           "REPRO_RESULT_CACHE": str(work / "store")}
    c0 = time.process_time()
    os.environ.update(env)
    for key in cells.SERVED_KEYS:
        workload(key, "small").build(cells.SERVED_NODES)
    server = served.ServerProcess(ctx.src, work, env, cpus[1]).start()
    run.setups.append(meters[0].charge(time.process_time() - c0)
                      + meters[1].charge(server.cpu()))
    return server


def served_mix(ctx: Context) -> Run:
    """Each pass gets a server of its own on a fresh store, so every pass
    starts from the same state and the server's memory does not grow
    with the number of passes.  The clients (one process, so one CPU's
    worth under the interpreter lock) and the server run on CPUs of
    their own."""
    from repro.service import ServiceClient, serve_background

    run = Run(op="session")
    pool = cells.served_pool()
    allowed = hostspeed.cpus()
    cpus = (allowed[0], allowed[1 % len(allowed)])
    hostspeed.pin({cpus[0]})
    meters = (_meter(ctx, {cpus[0]}, EDGE_PROBES),
              _meter(ctx, {cpus[1]}, EDGE_PROBES))
    if not ctx.trace:
        plan = served.schedule(pool, ctx.seed, passes=len(pool))

        def one_pass(index: int) -> Pass:
            work = ctx.work / f"serve-{index}"
            server = _boot(ctx, work, run, cpus, meters)
            try:
                return _served_pass(server.url, plan[index], ctx.refs,
                                    server, meters)[0]
            finally:
                server.stop()
                shutil.rmtree(work, ignore_errors=True)

        run.passes = _timed_passes(ctx.seconds, one_pass, limit=len(plan))
        run.peak_rss_mb = peak_rss_mb()
        return run

    plan = served.schedule(pool, ctx.seed, passes=1)[0]
    server = _boot(ctx, ctx.work / "serve", run, cpus, meters)
    try:
        timed, sessions = _served_pass(server.url, plan, ctx.refs, server)
        registry = _registry(ServiceClient(server.url).metrics())
    finally:
        server.stop()

    with ledger.Boundaries() as bounds:
        with serve_background(_service_config(ctx.work / "store-w")) as bg:
            reference, ref_sessions = _served_pass(bg.url, plan, ctx.refs)
        served.wait_server_threads()
    with ledger.Boundaries(), ledger.Profiler(threads=True) as prof:
        with serve_background(_service_config(ctx.work / "store-t")) as bg:
            traced, _ = _served_pass(bg.url, plan, ctx.refs)
        served.wait_server_threads()
    run.passes = [timed, reference, traced]

    def count(name: str) -> float:
        return registry.get(name, {}).get("value", 0)

    def p50(name: str) -> float:
        return registry.get(name, {}).get("p50", 0.0)

    totals = _sim_totals([s["metrics"] for s in ref_sessions
                          if s["ok"] and not s["cached"]])
    ok = [s for s in sessions if s["ok"]]
    run.layers = {
        **ledger.boundary_metrics(bounds),
        **totals,
        "service.submit_p50_ms": median(s["submit_s"] for s in ok) * 1000,
        "service.first_frame_p50_ms":
            median(s["first_frame_s"] for s in ok) * 1000,
        "service.session_wait_p50_s": p50("service.session_wait_s"),
        "service.session_exec_p50_s": p50("service.session_exec_s"),
        "service.cache_hit_ratio":
            count("service.cache_hits") / max(1, count("service.submitted")),
        "service.rejected": (count("service.rejected_quota")
                             + count("service.rejected_admission")
                             + count("service.shed_health")),
        "store.puts_per_session": bounds.puts / reference.attempted,
        **ledger.rollup(prof.stats(), ctx.src),
        "trace.overhead_ratio": traced.wall / reference.wall,
    }
    return run


WORKLOADS = {
    "paper-warm": paper_warm,
    "table1-cold": table1_cold,
    "served-mix": served_mix,
}
