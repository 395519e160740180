"""The per-layer host-time ledger: file -> layer map, profiler rollup,
and timers wrapped around the coarse layer boundaries.

Nothing here is imported by the timed runs' hot paths.  A traced run
(``run.py --trace 1``) uses two instruments, both from the standard
library and both installed from the benchmark's own files:

* :class:`Boundaries` wraps the calls that cross a layer edge
  (``WorkloadSpec.build``, ``Session.prepare``/``run``, snapshot
  capture/restore, ``LocalDirStore.put``/``get``) with wall-clock timers
  and counters.  The wrappers are cheap, so the pass that carries them
  doubles as the untraced reference for the tracing overhead.
* :class:`Profiler` runs ``cProfile`` and :func:`rollup` folds its
  table by source file into the layers below.
  Its call counts are exact, so the counters it yields must repeat to
  the digit on deterministic work.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from cells import STRATEGIES

#: Source file (relative to ``src/repro``) -> layer.  The longest
#: matching prefix wins.  A ``layer.sub`` value is rolled up into
#: ``layer`` and, for the machine, also reported on its own.  Every
#: module under ``src/repro`` must match an entry (``test_perfbench``
#: enforces it), so new code cannot land in ``layer.other_self_s``.
LAYER_MAP = {
    "apps/": "apps",
    "tasks/": "balancers",
    "experiments/common.py": "apps",
    "machine/": "machine.kernel",
    "machine/event.py": "machine.event",
    "machine/node.py": "machine.node",
    "machine/network.py": "machine.network",
    "machine/message.py": "machine.network",
    "machine/collectives.py": "machine.network",
    "machine/topology.py": "machine.topology",
    "shard/": "machine.kernel",
    "faults/": "machine.faults",
    "membership/": "machine.faults",
    "balancers/": "balancers",
    "session.py": "balancers",
    "core/": "core",
    "optimal/": "core",
    "snapshot.py": "snapshot",
    "runner/prefix.py": "snapshot",
    "runner/": "runner",
    "experiments/": "runner",
    "metrics/": "runner",
    "obs/": "runner",
    "__init__.py": "runner",
    "__main__.py": "runner",
    "obs/metrics.py": "service",
    "service/": "service",
    "loadtest/": "service",
    "faults/service_chaos.py": "service",
    "store.py": "store",
    "service/journal.py": "store",
}

#: The named layers, in report order.
LAYERS = ("apps", "machine", "balancers", "core", "snapshot", "runner",
          "service", "store")

#: Machine sub-buckets reported on their own (``machine.heap`` is the
#: heap's C calls plus the ``__lt__`` comparisons they make).
MACHINE_PARTS = ("event", "heap", "node", "network", "topology")

_HEAP_BUILTINS = ("heappush", "heappop", "heapify", "heappushpop",
                  "heapreplace")


def layer_of(relpath: str) -> str | None:
    """The layer of one module path relative to ``src/repro`` (``/``
    separators), or None when no entry matches."""
    best = None
    for prefix in LAYER_MAP:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            if best is None or len(prefix) > len(best):
                best = prefix
    return LAYER_MAP[best] if best is not None else None


class _FileLayers:
    """Memoized absolute-filename -> layer lookup for one source tree."""

    def __init__(self, src_root: Path) -> None:
        self.root = str(src_root.resolve() / "repro") + os.sep
        self._memo: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        hit = self._memo.get(filename, "")
        if hit != "":
            return hit
        layer = None
        if filename.startswith(self.root):
            rel = filename[len(self.root):].replace(os.sep, "/")
            layer = layer_of(rel) or "unmapped"
        self._memo[filename] = layer
        return layer


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
#: Name prefix of the benchmark's client threads, which the profiler
#: leaves out.
CLIENT_THREAD_PREFIX = "perfbench-"

class Profiler:
    """``cProfile`` over the calling thread, and with ``threads`` also
    over every thread started while it is active, except the benchmark's
    own clients (named with :data:`CLIENT_THREAD_PREFIX`).

    On Python < 3.12 cProfile hooks one thread, so a
    ``threading.setprofile`` hook enables a profile in each new thread;
    3.12+ profiles every thread from one object.  Threads share the GIL,
    so with ``threads`` the clock is each thread's CPU time: a layer's
    self time is then what it computed, not the time it spent waiting
    for the lock, a socket or an fsync.  A single thread keeps the
    cheaper default clock.
    """

    def __init__(self, threads: bool = False) -> None:
        self.threads = threads
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _new(self) -> cProfile.Profile:
        prof = (cProfile.Profile(time.thread_time_ns, 1e-9) if self.threads
                else cProfile.Profile())
        with self._lock:
            self.profiles.append(prof)
        return prof

    def _thread_hook(self, frame, event, arg):
        sys.setprofile(None)
        if not threading.current_thread().name.startswith(
                CLIENT_THREAD_PREFIX):
            self._new().enable()

    def __enter__(self) -> "Profiler":
        if self.threads and sys.version_info < (3, 12):
            threading.setprofile(self._thread_hook)
        self._new().enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiles[0].disable()
        if self.threads and sys.version_info < (3, 12):
            threading.setprofile(None)

    def stats(self) -> pstats.Stats:
        """Merged table of every profiled thread.  Call only after the
        profiled threads have ended."""
        merged = pstats.Stats(self.profiles[0])
        for prof in self.profiles[1:]:
            merged.add(prof)
        return merged


def rollup(stats: pstats.Stats, src_root: Path) -> dict:
    """Fold a profile into per-layer self seconds and exact counters.

    Self time of a ``src/repro`` function goes to its file's layer.  Self
    time of a builtin or standard-library function goes to the layers of
    its direct callers, split by what each caller edge measured; what no
    ``src/repro`` caller claims (the benchmark's own code, the asyncio
    loop, ...) is ``layer.other_self_s``.
    """
    file_layer = _FileLayers(src_root)
    self_s: dict[str, float] = defaultdict(float)
    counts = {
        "machine.event_lt_calls": 0,
        "machine.heap_ops": 0,
        "machine.topology.distance_calls": 0,
        "machine.topology.coords_calls": 0,
        "machine.node.exec_cpu_calls": 0,
    }
    named_calls = {
        ("machine.event", "__lt__"): "machine.event_lt_calls",
        ("machine.topology", "distance"): "machine.topology.distance_calls",
        ("machine.topology", "coords"): "machine.topology.coords_calls",
        ("machine.node", "exec_cpu"): "machine.node.exec_cpu_calls",
    }
    for (filename, _line, name), (_cc, nc, tt, _ct, callers) in \
            stats.stats.items():
        layer = file_layer(filename)
        if layer is not None:
            counter = named_calls.get((layer, name))
            if counter is not None:
                counts[counter] += nc
            if layer == "machine.event" and name == "__lt__":
                layer = "machine.heap"
            self_s[layer] += tt
            continue
        heap = filename == "~" and any(
            f"_heapq.{op}" in name for op in _HEAP_BUILTINS)
        claimed = 0.0
        for (cfile, _cline, _cname), edge in callers.items():
            clayer = file_layer(cfile)
            if clayer is None:
                continue
            edge_nc, edge_tt = edge[0], edge[2]
            if heap and clayer.startswith("machine."):
                counts["machine.heap_ops"] += edge_nc
                clayer = "machine.heap"
            self_s[clayer] += edge_tt
            claimed += edge_tt
        self_s["other"] += max(0.0, tt - claimed)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer)
    for part in MACHINE_PARTS:
        out[f"machine.{part}.self_s"] = self_s.get(f"machine.{part}", 0.0)
    out["layer.other_self_s"] = self_s.get("other", 0.0) + self_s.get(
        "unmapped", 0.0)
    out.update(counts)
    return out


# ----------------------------------------------------------------------
# boundary timers
# ----------------------------------------------------------------------
class Boundaries:
    """Wall-clock timers and counters on the coarse layer boundaries.

    Used as a context manager: the originals are restored on exit.
    Thread-safe, so an in-process server's worker threads may cross the
    boundaries concurrently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.build_s = 0.0
        self.builds: list[str] = []
        self.prepare_s = 0.0
        self.run_s = 0.0
        self.events = 0
        self.cell_s: dict[str, list[float]] = defaultdict(list)
        self.capture_s = 0.0
        self.captures = 0
        self.snapshot_bytes = 0
        self.restore_s = 0.0
        self.restores = 0
        self.put_s = 0.0
        self.puts = 0
        self.put_bytes = 0
        self.get_s = 0.0
        self.gets = 0

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "Boundaries":
        import repro.experiments.common as common
        import repro.snapshot as snapshot
        import repro.store as store
        from repro.session import Session

        def workloads(original):
            from dataclasses import replace

            def wrapped(*args, **kwargs):
                return [replace(spec, build=self._timed_build(spec))
                        for spec in original(*args, **kwargs)]
            return wrapped

        def prepare(original):
            def wrapped(sess, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(sess, *args, **kwargs)
                finally:
                    self._add("prepare_s", time.perf_counter() - t0)
            return wrapped

        def run(original):
            def wrapped(sess, *args, **kwargs):
                e0 = sess.progress()[0]
                t0 = time.perf_counter()
                metrics = original(sess, *args, **kwargs)
                dt = time.perf_counter() - t0
                with self._lock:
                    self.run_s += dt
                    self.events += sess.progress()[0] - e0
                    if not args and not kwargs:
                        self.cell_s[sess.strategy.name].append(dt)
                return metrics
            return wrapped

        def capture(original):
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                snap = original(*args, **kwargs)
                dt = time.perf_counter() - t0
                with self._lock:
                    self.capture_s += dt
                    self.captures += 1
                    self.snapshot_bytes += len(snap.payload)
                return snap
            return wrapped

        def restore(original):
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    with self._lock:
                        self.restore_s += time.perf_counter() - t0
                        self.restores += 1
            return wrapped

        def put(original):
            def wrapped(st, ns, key, data):
                t0 = time.perf_counter()
                try:
                    return original(st, ns, key, data)
                finally:
                    with self._lock:
                        self.put_s += time.perf_counter() - t0
                        self.puts += 1
                        self.put_bytes += len(data)
            return wrapped

        def get(original):
            def wrapped(st, ns, key):
                t0 = time.perf_counter()
                try:
                    return original(st, ns, key)
                finally:
                    with self._lock:
                        self.get_s += time.perf_counter() - t0
                        self.gets += 1
            return wrapped

        import repro.session as session_mod

        self._patch(common, "workloads", workloads)
        self._patch(Session, "prepare", prepare)
        self._patch(Session, "run", run)
        self._patch(snapshot, "capture", capture)
        self._patch(session_mod, "capture", capture)
        self._patch(snapshot, "restore", restore)
        self._patch(store.LocalDirStore, "put", put)
        self._patch(store.LocalDirStore, "get", get)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _add(self, attr: str, value: float) -> None:
        with self._lock:
            setattr(self, attr, getattr(self, attr) + value)

    def _timed_build(self, spec):
        """``spec.build`` timed, counting the calls that generated a trace
        (wrote a new entry to the trace cache) rather than loaded one."""
        from repro.apps import trace_cache_dir

        build = spec.build

        def timed(num_nodes):
            cached = len(os.listdir(trace_cache_dir()))
            t0 = time.perf_counter()
            try:
                return build(num_nodes)
            finally:
                dt = time.perf_counter() - t0
                if len(os.listdir(trace_cache_dir())) > cached:
                    with self._lock:
                        self.build_s += dt
                        self.builds.append(f"{spec.key}@{num_nodes}")
        return timed


def boundary_metrics(b: Boundaries) -> dict:
    """The per-layer metrics the boundary timers measured."""
    from statistics import median

    per_strategy: dict[str, list[float]] = defaultdict(list)
    for name, times in b.cell_s.items():
        per_strategy[name.split("-")[0]].extend(times)
    out = {
        "apps.build_s": b.build_s,
        "apps.builds": len(b.builds),
        "apps.build_useful_ratio":
            len(set(b.builds)) / len(b.builds) if b.builds else 0.0,
        "balancers.prepare_s": b.prepare_s,
        "machine.events": b.events,
        "machine.host_ns_per_event":
            b.run_s * 1e9 / b.events if b.events else 0.0,
        "snapshot.capture_s": b.capture_s,
        "snapshot.restore_s": b.restore_s,
        "snapshot.bytes": b.snapshot_bytes,
        "store.puts": b.puts,
        "store.put_s": b.put_s,
        "store.bytes_written": b.put_bytes,
        "store.gets": b.gets,
        "store.get_s": b.get_s,
    }
    for strategy in STRATEGIES:
        times = per_strategy.get(strategy)
        out[f"balancers.cell_s.{strategy}"] = median(times) if times else 0.0
    return out
