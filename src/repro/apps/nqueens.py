"""Exhaustive N-Queens search — the paper's first test application.

"The exhaustive search of the N-queens problem has an irregular and
dynamic structure.  The number of tasks generated and the computation
amount in each task are unpredictable."

The parallel decomposition is the classic prefix split (Feeley-style):
the search tree is expanded breadth-first down to ``split_depth``; every
consistent placement of the first ``split_depth`` queens becomes an
independent *solver task* that exhausts its subtree sequentially.  The
interior prefix nodes are cheap *expander tasks* whose children are the
next level — so tasks really are generated dynamically, level by level,
exactly the structure the balancers see on the real machine.

Work units are **search-tree node visits** of the real backtracking
solver (bitmask representation: one bit per attacked column/diagonal).
The default ``sec_per_unit`` of 2 microseconds/visit calibrates total
sequential time to the same ballpark as the paper's i860 Paragon runs
(15-Queens: a few hundred seconds sequential; see EXPERIMENTS.md).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace

__all__ = ["QueensConfig", "nqueens_trace", "solve_queens", "count_solutions"]

#: seconds of simulated CPU per search-tree node visit
SEC_PER_VISIT = 2e-6

#: prefix subtrees counted together in one numpy pass of the trace
#: builder; bounds the widest level's arrays (and so the memory peak)
_BATCH = 32


@dataclass(frozen=True)
class QueensConfig:
    """Parameters of one N-Queens workload."""

    n: int = 13
    split_depth: int = 4

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > 62:
            raise ValueError("n must be <= 62 (int64 bitmasks)")
        if not 0 <= self.split_depth <= self.n:
            raise ValueError("split_depth must be in [0, n]")


def solve_queens(n: int, cols: int = 0, d1: int = 0, d2: int = 0) -> tuple[int, int]:
    """Count solutions and node visits of the subtree rooted at a partial
    placement (bitmask state).  Returns ``(solutions, visits)``."""
    full = (1 << n) - 1
    sols = 0
    visits = 0

    def rec(c: int, l: int, r: int) -> None:
        nonlocal sols, visits
        visits += 1
        if c == full:
            sols += 1
            return
        free = full & ~(c | l | r)
        while free:
            bit = free & -free
            free ^= bit
            rec(c | bit, ((l | bit) << 1) & full, (r | bit) >> 1)

    rec(cols, d1, d2)
    return sols, visits


def count_solutions(n: int) -> int:
    """Total solutions of the n-queens problem (reference oracle)."""
    return solve_queens(n)[0]


def _mirror(n: int, state: tuple[int, int, int]) -> tuple[int, int, int]:
    """The column-reflected state: reflection swaps the two diagonals."""
    cols, left, right = state

    def rev(x: int) -> int:
        return int(format(x, f"0{n}b")[::-1], 2)

    return rev(cols), rev(right), rev(left)


def _count_subtrees(n: int, states: Iterable[tuple[int, int, int]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``solve_queens(n, *state)`` for every state: the arrays of
    solutions and of visits, in input order.

    A state and its mirror image root congruent subtrees, so each mirror
    pair is searched once.  The distinct subtrees are then expanded
    level by level in numpy, ``_BATCH`` roots at a time: each level is
    one array of live states with the index of the root it descends
    from, and the per-root visit and solution counts are bincounts of
    that index.
    """
    slot: dict[tuple[int, int, int], int] = {}
    roots: list[tuple[int, int, int]] = []
    which = []
    for st in states:
        i = slot.get(st)
        if i is None:
            i = slot.get(_mirror(n, st))
            if i is None:
                i = slot[st] = len(roots)
                roots.append(st)
        which.append(i)
    del slot

    full = (1 << n) - 1
    sols = np.zeros(len(roots), dtype=np.int64)
    visits = np.zeros(len(roots), dtype=np.int64)
    for lo in range(0, len(roots), _BATCH):
        batch = np.array(roots[lo:lo + _BATCH], dtype=np.int64).reshape(-1, 3)
        m = batch.shape[0]
        cols, left, right = batch[:, 0], batch[:, 1], batch[:, 2]
        owner = np.arange(m)
        while owner.size:
            visits[lo:lo + m] += np.bincount(owner, minlength=m)
            done = cols == full
            if done.any():
                sols[lo:lo + m] += np.bincount(owner[done], minlength=m)
            # children: peel the lowest free bit off every state that
            # still has one, until none has
            free = full & ~(cols | left | right)
            kids_c, kids_l, kids_r, kids_o = [], [], [], []
            while True:
                live = free != 0
                if not live.all():
                    free, cols, left, right, owner = (
                        free[live], cols[live], left[live], right[live],
                        owner[live])
                if not free.size:
                    break
                bit = free & -free
                free ^= bit
                kids_c.append(cols | bit)
                kids_l.append(((left | bit) << 1) & full)
                kids_r.append((right | bit) >> 1)
                kids_o.append(owner)
            if not kids_o:
                break
            cols = np.concatenate(kids_c)
            left = np.concatenate(kids_l)
            right = np.concatenate(kids_r)
            owner = np.concatenate(kids_o)
    which = np.array(which, dtype=np.int64)
    return sols[which], visits[which]


def _build(config: QueensConfig) -> WorkloadTrace:
    n = config.n
    full = (1 << n) - 1
    tasks: list[TraceTask] = []

    # Expand the prefix tree breadth-first.  Each frontier entry is
    # (task_id, cols, d1, d2); ids are assigned in BFS order so parents
    # precede children.
    root_id = 0
    tasks.append(None)  # type: ignore[arg-type]  # placeholder, fixed below
    frontier = [(root_id, 0, 0, 0)]
    next_id = 1
    for depth in range(config.split_depth):
        new_frontier = []
        for (tid, c, l, r) in frontier:
            free = full & ~(c | l | r)
            child_ids = []
            states = []
            while free:
                bit = free & -free
                free ^= bit
                child_ids.append(next_id)
                states.append(
                    (next_id, c | bit, ((l | bit) << 1) & full, (r | bit) >> 1)
                )
                next_id += 1
            # expander work: generating the children (1 visit + 1/child)
            tasks[tid] = TraceTask(
                tid, work=1.0 + len(child_ids), children=tuple(child_ids),
                label=f"expand-d{depth}",
            )
            for st in states:
                tasks.append(None)  # type: ignore[arg-type]
            new_frontier.extend(states)
        frontier = new_frontier

    sols, visits = _count_subtrees(n, (st[1:] for st in frontier))
    for (tid, _c, _l, _r), work in zip(frontier, visits.tolist()):
        tasks[tid] = TraceTask(tid, work=float(work), label="solve")
    solutions = int(sols.sum())

    trace = WorkloadTrace(
        f"{n}-queens",
        tasks,
        sec_per_unit=SEC_PER_VISIT,
        description=(
            f"exhaustive {n}-queens, prefix split at depth "
            f"{config.split_depth}; {solutions} solutions"
        ),
    )
    return trace


def nqueens_trace(n: int = 13, split_depth: int = 4, use_cache: bool = True) -> WorkloadTrace:
    """Workload trace for exhaustive N-Queens (disk-cached by default)."""
    config = QueensConfig(n=n, split_depth=split_depth)
    params = {"n": n, "split_depth": split_depth, "v": 1}
    if not use_cache:
        return _build(config)
    return cached_trace("nqueens", params, lambda: _build(config))
