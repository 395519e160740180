"""Parallel IDA* search on the 15-puzzle — the paper's second application.

"Iterative deepening A* (IDA*) search is a good example of parallel
search techniques.  The sample problem is the 15-puzzle with three
different configurations.  The grain size may vary substantially, since
it dynamically depends on the currently estimated cost.  Also,
synchronization at each iteration reduces the effective parallelism."

Structure of the generated trace (one *wave* per IDA* iteration):

* a **driver task**, pinned to rank 0, re-expands the search root for
  the iteration.  It is sequential and pinned: this is the per-
  iteration synchronization bottleneck the paper blames for IDA*'s low
  efficiencies.  The next iteration's driver is a cross-wave child of
  the current one, so iterations are separated by a global barrier.
* **dynamically split search tasks**: a task owns a subtree of the
  cost-bounded (``f = g + h <= threshold``) search tree.  If the
  subtree is larger than ``split_budget`` node visits, the task acts as
  an *expander* — it spawns one child task per successor and does only
  the expansion work itself; otherwise it searches its subtree to
  exhaustion.  This is the recursive, on-demand task generation a real
  parallel IDA* uses ("the number of tasks generated ... are
  unpredictable"), and it bounds the task grain near ``split_budget``
  regardless of how lopsided the search tree is.

The search is *real*: thresholds, spawn structure and visit counts come
from actually running IDA* with the Manhattan heuristic.  Instances are
random-walk configurations (see DESIGN.md on the substitution for
Korf's instances); config #1 < #2 < #3 in difficulty, mirroring the
paper's three configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace
from .puzzle import SIDE, _GOAL_POS, _MOVES, manhattan, random_walk_instance

__all__ = ["IDAStarConfig", "PAPER_CONFIGS", "idastar_trace", "ida_star_sequential"]

#: seconds of simulated CPU per search node.  Calibrated so the three
#: configs' sequential times land in the paper's ballpark (about 7 s /
#: 32 s / 66 s; the paper's configs are roughly 10 s / 30 s / 150 s).
SEC_PER_VISIT = 6e-6

#: never split deeper than this many plies below the iteration root —
#: beyond it a subtree is searched in one task even if it exceeds the
#: budget (runaway fragmentation guard)
SPLIT_DEPTH_LIMIT = 28


@dataclass(frozen=True)
class IDAStarConfig:
    """One 15-puzzle workload (a random-walk instance + task grain)."""

    walk_steps: int
    seed: int
    #: subtree size (in node visits) above which a task splits
    split_budget: int = 400
    max_iterations: int = 40

    def __post_init__(self) -> None:
        if self.split_budget < 1:
            raise ValueError("split_budget must be >= 1")

    def board(self) -> tuple[int, ...]:
        return random_walk_instance(self.walk_steps, self.seed)


#: the three configurations standing in for the paper's config #1..#3
#: (instance difficulty approximately 1.1M / 5.4M / 11M search nodes,
#: solved at depth 46 / 44 / 50, each in 8 iterations)
PAPER_CONFIGS: dict[int, IDAStarConfig] = {
    1: IDAStarConfig(walk_steps=56, seed=23, split_budget=400),
    2: IDAStarConfig(walk_steps=64, seed=35, split_budget=400),
    3: IDAStarConfig(walk_steps=64, seed=5, split_budget=400),
}


def _steps(blank: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(dest, delta)`` for every move of the blank at ``blank``:
    ``delta[tile]`` is the change in the Manhattan distance when
    ``tile`` slides from cell ``dest`` into the blank."""
    br, bc = divmod(blank, SIDE)
    steps = []
    for dest in _MOVES[blank]:
        dr, dc = divmod(dest, SIDE)
        delta = [0]
        for tile in range(1, 16):
            gr, gc = _GOAL_POS[tile]
            delta.append(abs(br - gr) + abs(bc - gc) - abs(dr - gr) - abs(dc - gc))
        steps.append((dest, tuple(delta)))
    return tuple(steps)


#: the moves of the blank from each cell, in ``_MOVES`` order
_STEPS = tuple(_steps(blank) for blank in range(16))

#: ``min_exceed`` of a subtree in which the threshold cut off no move
_NO_EXCEED = 1 << 30


def _count(board: list[int], blank: int, g: int, h: int, threshold: int,
           prev_blank: int) -> tuple[int, int, bool]:
    """Cost-bounded DFS over ``board`` in place (restored on return).
    Returns ``(min_exceed, visits, found)``."""
    if h == 0:
        return threshold, 1, True
    visits = 1
    min_exceed = _NO_EXCEED
    g1 = g + 1
    for dest, delta in _STEPS[blank]:
        if dest == prev_blank:
            continue
        tile = board[dest]
        nh = h + delta[tile]
        nf = g1 + nh
        if nf > threshold:
            if nf < min_exceed:
                min_exceed = nf
            continue
        board[blank] = tile
        board[dest] = 0
        sub_exceed, sub_visits, found = _count(board, dest, g1, nh,
                                               threshold, blank)
        board[dest] = tile
        board[blank] = 0
        visits += sub_visits
        if found:
            return threshold, visits, True
        if sub_exceed < min_exceed:
            min_exceed = sub_exceed
    return min_exceed, visits, False


def _bounded_dfs(board: tuple[int, ...], g: int, h: int, threshold: int,
                 prev_blank: int) -> tuple[int, int, bool]:
    """Cost-bounded DFS.  Returns (min_exceed, visits, found).

    ``min_exceed`` is the smallest f that crossed the threshold (the
    next iteration's threshold candidate), or a large sentinel if the
    subtree was exhausted.
    """
    return _count(list(board), board.index(0), g, h, threshold, prev_blank)


def ida_star_sequential(board: tuple[int, ...], max_iterations: int = 60
                        ) -> tuple[int, float, int]:
    """Plain sequential IDA*.  Returns (solution_depth, visits, iterations).

    Reference implementation used by the tests to check that the
    parallel decomposition searches the same tree.
    """
    h0 = manhattan(board)
    threshold = h0
    visits = 0.0
    for it in range(1, max_iterations + 1):
        exceed, v, found = _bounded_dfs(board, 0, h0, threshold, -1)
        visits += v
        if found:
            return threshold, visits, it
        if exceed >= _NO_EXCEED:
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    raise RuntimeError("max_iterations exceeded")


def _walk(board: list[int], blank: int, g: int, h: int, threshold: int,
          prev_blank: int, depth_budget: int, split_budget: int) -> list:
    """Cost-bounded DFS over ``board`` in place that keeps per-child
    subtree sizes down to ``depth_budget`` plies (one pass; below the
    budget it is the plain counting DFS).

    Returns the node ``[visits, exceed, found, children]``; ``children``
    (the nodes of the successors searched, in move order) is None when
    the subtree fits in ``split_budget`` visits.
    """
    if h == 0:
        return [1, threshold, True, None]
    visits = 1
    exceed = _NO_EXCEED
    found = False
    children: list[list] = []
    g1 = g + 1
    for dest, delta in _STEPS[blank]:
        if dest == prev_blank:
            continue
        tile = board[dest]
        nh = h + delta[tile]
        nf = g1 + nh
        if nf > threshold:
            if nf < exceed:
                exceed = nf
            continue
        board[blank] = tile
        board[dest] = 0
        if depth_budget > 1:
            child = _walk(board, dest, g1, nh, threshold, blank,
                          depth_budget - 1, split_budget)
        else:
            sub_exceed, sub_visits, sub_found = _count(board, dest, g1, nh,
                                                       threshold, blank)
            child = [sub_visits, sub_exceed, sub_found, None]
        board[dest] = tile
        board[blank] = 0
        children.append(child)
        visits += child[0]
        if child[1] < exceed:
            exceed = child[1]
        if child[2]:
            found = True
            break
    # memory guard: a subtree at or below the split budget becomes one
    # task anyway, so its internal annotation is dead weight — dropping
    # it here keeps the retained skeleton at O(total_visits / budget)
    # nodes instead of O(total_visits)
    return [visits, exceed, found,
            None if visits <= split_budget else children]


def _build(config: IDAStarConfig) -> WorkloadTrace:
    board = config.board()
    cells = list(board)
    blank = board.index(0)
    h0 = manhattan(board)
    threshold = h0
    budget = config.split_budget
    tasks: list[TraceTask] = []
    prev_driver: Optional[int] = None
    found = False

    for wave in range(config.max_iterations):
        visits, exceed, found, children = _walk(
            cells, blank, 0, h0, threshold, -1, SPLIT_DEPTH_LIMIT, budget)

        driver_id = len(tasks)
        tasks.append(None)  # type: ignore[arg-type]  # placeholder

        def emit(node: list, wave: int) -> int:
            """Emit the task (sub)tree for a walked node; returns id."""
            tid = len(tasks)
            tasks.append(None)  # type: ignore[arg-type]
            visits, _, _, children = node
            if visits <= budget or not children:
                tasks[tid] = TraceTask(
                    tid, work=float(visits), wave=wave,
                    label="ida-search",
                )
            else:
                child_ids = tuple(emit(c, wave) for c in children)
                tasks[tid] = TraceTask(
                    tid, work=float(1 + len(child_ids)), wave=wave,
                    children=child_ids, label="ida-expand",
                )
            return tid

        # the driver owns the iteration root's expansion; its children
        # are the root's successors (or, for a tiny iteration, a single
        # search task covering the whole tree)
        if visits <= budget or not children:
            leaf_id = len(tasks)
            tasks.append(
                TraceTask(leaf_id, work=float(visits), wave=wave,
                          label="ida-search")
            )
            search_ids = (leaf_id,)
        else:
            search_ids = tuple(emit(c, wave) for c in children)
        tasks[driver_id] = TraceTask(
            driver_id,
            work=float(1 + len(search_ids)),
            wave=wave,
            children=search_ids,
            pinned=0,
            label=f"ida-driver-t{threshold}",
        )

        if prev_driver is not None:
            prev = tasks[prev_driver]
            tasks[prev_driver] = TraceTask(
                prev.id, prev.work, prev.wave,
                prev.children + (driver_id,), prev.pinned, prev.home,
                prev.data_bytes, prev.label,
            )
        prev_driver = driver_id
        if found:
            break
        if exceed >= _NO_EXCEED:
            raise RuntimeError("search space exhausted without a solution")
        threshold = exceed
    else:
        raise RuntimeError("max_iterations exceeded while building IDA* trace")

    return WorkloadTrace(
        f"ida-{config.walk_steps}-{config.seed}",
        tasks,
        sec_per_unit=SEC_PER_VISIT,
        description=(
            f"IDA* 15-puzzle, walk={config.walk_steps} seed={config.seed}, "
            f"h0={h0}, solved at threshold {threshold}, "
            f"{len(tasks)} tasks in {tasks[-1].wave + 1 if tasks else 0} "
            f"iterations, split budget {budget} visits"
        ),
    )


def idastar_trace(config: IDAStarConfig | int, use_cache: bool = True) -> WorkloadTrace:
    """Workload trace for parallel IDA* (config number 1-3 or explicit)."""
    if isinstance(config, int):
        config = PAPER_CONFIGS[config]
    params = {
        "walk": config.walk_steps,
        "seed": config.seed,
        "budget": config.split_budget,
        "v": 2,
    }
    if not use_cache:
        return _build(config)
    return cached_trace("idastar", params, lambda: _build(config))
