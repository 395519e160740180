"""The served-mix driver: a ``repro serve`` process and a closed loop of
client threads that wait on the WebSocket for each result.

The clients use only the public :class:`~repro.service.ServiceClient`:
``submit`` then ``stream`` until the ``result`` frame.  They never use
``ServiceClient.wait``, whose 50 ms status poll would round every
latency up to a 50 ms step.

Run as a script, this file is the server process itself::

    python3 perfbench/served.py LOG CPU [serve options...]

It is ``python -m repro serve [serve options...]`` (the same CLI entry
point, in its own process) pinned to CPU number ``CPU``, with the
server's output sent to ``LOG`` and one addition: each line written to
its stdin is answered on its stdout with the CPU seconds the process has
used so far, so that the benchmark can charge each pass the server's CPU
time.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Quota far above what two closed-loop clients can offer, so that a
#: refusal (429/503) means a service fault, not the default
#: 120-token/2-per-second bucket running dry after a few seconds.
QUOTA_TOKENS = 1_000_000
QUOTA_REFILL = 100_000

CLIENTS = 2
#: per client and pass: this many distinct cells, plus REPEATS
#: re-submissions of cells the same client already finished (result-
#: cache reads) -- one submit in four is a repeat
DISTINCT = 60
REPEATS = 20

TENANT = "perfbench"


def schedule(pool: list, seed: int, passes: int) -> list:
    """Per pass, per client, the seeded list of requests to submit.

    Distinct cells are drawn without replacement from ``pool``, so every
    first submission is a result-cache miss on a fresh store; each
    repeat names a cell the same client finished earlier in the pass,
    so it is a hit.  Every pass takes the same number of cells of each
    workload and strategy, so passes of any seed do the same amount of
    work.
    """
    rng = random.Random(seed)
    kinds: dict = {}
    for req in pool:
        kinds.setdefault((req.workload, req.strategy), []).append(req)
    for reqs in kinds.values():
        rng.shuffle(reqs)
    per_kind = CLIENTS * DISTINCT // len(kinds)
    passes = min([passes] + [len(r) // per_kind for r in kinds.values()])
    plan = []
    for p in range(passes):
        cells = [req for reqs in kinds.values()
                 for req in reqs[p * per_kind:(p + 1) * per_kind]]
        rng.shuffle(cells)
        clients = []
        for c in range(CLIENTS):
            distinct = iter(cells[c * DISTINCT:(c + 1) * DISTINCT])
            slots = DISTINCT + REPEATS
            repeat_at = set(rng.sample(range(1, slots), REPEATS))
            ops, done = [], []
            for i in range(slots):
                if i in repeat_at:
                    ops.append(rng.choice(done))
                else:
                    req = next(distinct)
                    done.append(req)
                    ops.append(req)
            clients.append(ops)
        plan.append(clients)
    return plan


class ServerProcess:
    """The server on an ephemeral port and a fresh store, pinned to
    ``cpu``."""

    def __init__(self, src: Path, work: Path, env: dict, cpu: int) -> None:
        self.src = src
        self.work = work
        self.env = env
        self.cpu_number = cpu
        self.proc = None
        self.url = ""

    def start(self) -> "ServerProcess":
        from repro.service import ServiceClient

        self.work.mkdir(parents=True, exist_ok=True)
        port_file = self.work / "port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ, **self.env)
        env["PYTHONPATH"] = str(self.src)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             str(self.work / "server.log"), str(self.cpu_number),
             "--port", "0",
             "--port-file", str(port_file),
             "--store-root", str(self.work / "store"),
             "--quota-tokens", str(QUOTA_TOKENS),
             "--quota-refill", str(QUOTA_REFILL)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while not port_file.exists():
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError(
                        "repro serve did not start; see "
                        f"{self.work / 'server.log'}")
                time.sleep(0.005)
            host, port = port_file.read_text().split()
            self.url = f"http://{host}:{port}"
            ServiceClient(self.url, tenant=TENANT).healthz()
        except BaseException:
            self.stop()
            raise
        return self

    def cpu(self) -> float:
        """CPU seconds the server process has used so far."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def stop(self) -> None:
        """Interrupt the server (it shuts down cleanly on SIGINT) and
        wait for it; kill it if it has not ended within 15 s."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None


def _one_session(client, req, refs) -> dict:
    """Submit one cell and wait for its WebSocket ``result`` frame."""
    from repro.service import ServiceClientError

    out = {"ok": False, "refused": False, "mismatch": False}
    t0 = time.perf_counter()
    try:
        doc = client.submit(req)
        out["submit_s"] = time.perf_counter() - t0
        events = doc.get("events_processed", 0)
        result = None
        for frame in client.stream(doc["id"], timeout=60, reconnect=False):
            if "first_frame_s" not in out:
                out["first_frame_s"] = time.perf_counter() - t0
            kind = frame.get("type")
            if kind == "hello":
                events = max(events, frame["status"]["events_processed"])
            elif kind == "progress":
                events = max(events, frame["events_processed"])
            elif kind == "result":
                result = frame
        out["latency_s"] = time.perf_counter() - t0
    except ServiceClientError as exc:
        out["refused"] = exc.status in (429, 503)
        out["error"] = str(exc)
        return out
    except (OSError, ValueError, KeyError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    if result is None:
        out["error"] = "stream ended without a result frame"
        return out
    out["cached"] = bool(doc.get("from_cache"))
    out["events"] = 0 if out["cached"] else events
    out["metrics"] = result["metrics"]
    out["mismatch"] = not refs.check(
        req.label(), result["metrics"],
        None if out["cached"] else events)
    out["ok"] = not out["mismatch"]
    return out


def run_pass(url: str, clients: list, refs) -> dict:
    """Drive one pass: one thread per client, each submitting its list
    back to back.  Returns the pass wall time and every session record."""
    from ledger import CLIENT_THREAD_PREFIX
    from repro.service import ServiceClient

    records: list[list[dict]] = [[] for _ in clients]
    start = threading.Barrier(len(clients) + 1)

    def work(c: int) -> None:
        client = ServiceClient(url, tenant=TENANT, timeout=60)
        start.wait()
        for req in clients[c]:
            records[c].append(_one_session(client, req, refs))

    threads = [threading.Thread(target=work, args=(c,),
                                name=f"{CLIENT_THREAD_PREFIX}client-{c}")
               for c in range(len(clients))]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return {"wall": wall, "sessions": [r for rs in records for r in rs]}


def wait_server_threads(timeout: float = 15.0) -> None:
    """Wait until an in-process server's threads have ended."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(t.name.startswith("repro-serve")
                   for t in threading.enumerate()):
            return
        time.sleep(0.01)


def _serve(argv: list) -> int:
    log, cpu, *options = argv
    os.sched_setaffinity(0, {int(cpu)})
    reply = os.dup(1)
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 1)
    os.dup2(fd, 2)
    os.close(fd)

    def answer() -> None:
        # Raw reads: a daemon thread blocked in sys.stdin would hold its
        # lock when the interpreter shuts down.
        while os.read(0, 1):
            os.write(reply, f"{time.process_time()!r}\n".encode())

    threading.Thread(target=answer, name="cpu-time", daemon=True).start()
    from repro.__main__ import main

    return main(["serve", *options])


if __name__ == "__main__":
    sys.exit(_serve(sys.argv[1:]))
