"""Synthetic GROMOS nonbonded workload — the paper's third application.

"GROMOS has a more predictable structure.  The number of processes is
known with the given input data, but the computation density in each
process varies.  Thus, a load balancing mechanism is necessary."

One task per charge group computes the nonbonded interactions of that
group: its work is the number of atom pairs within the cutoff radius
(computed for real with a cell list over the synthetic SOD molecule).
Tasks are **pre-placed block-wise by group index** — the SPMD geometric
decomposition a data-parallel GROMOS uses — so the initial placement is
count-balanced but *work*-imbalanced, exactly the situation where
incremental rescheduling of leftover tasks pays off.

``timesteps > 1`` produces a multi-wave trace where positions drift a
little between steps (each step's group task is the cross-wave child of
the same group's task in the previous step, so it starts on whatever
node last executed it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tasks.trace import TraceTask, WorkloadTrace
from .cache import cached_trace
from .molecule import Molecule, synthetic_sod

__all__ = ["GromosConfig", "gromos_trace", "pair_counts"]

#: seconds of simulated CPU per atom pair inside the cutoff.  Calibrated
#: so that the 8 A workload's sequential time lands near the paper's
#: (~57 s => ~11 ms per charge-group task on average).
SEC_PER_PAIR = 170e-6

#: largest (groups x atoms) distance block ``pair_counts`` builds at once
_BLOCK_PAIRS = 4096


@dataclass(frozen=True)
class GromosConfig:
    """One GROMOS workload: cutoff radius + machine pre-placement."""

    cutoff: float = 8.0  # Angstroms
    num_nodes: int = 32  # for the block pre-placement
    timesteps: int = 1
    n_atoms: int = 6968
    n_groups: int = 4986
    seed: int = 2026

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.timesteps < 1:
            raise ValueError("timesteps must be >= 1")
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")


def pair_counts(mol: Molecule, cutoff: float, periodic: bool = True) -> np.ndarray:
    """Atoms within ``cutoff`` of each charge-group centroid.

    This is the per-group nonbonded work measure: a group's interaction
    list length.  Computed with a uniform cell list (cell edge >=
    cutoff) — the same data structure an MD code uses.  With
    ``periodic`` (the default, as in a real solvated MD box) distances
    use the minimum-image convention, so there is no artificial density
    falloff at the box faces.

    The groups are visited cell by cell: the atoms of a cell's 27
    neighbour cells are gathered once, then tested against all of the
    cell's groups in (groups x atoms) blocks of at most ``_BLOCK_PAIRS``
    pairs, one 2-D array per axis.
    """
    centers = mol.group_centers()
    pos = mol.positions
    box = mol.box
    ncell = max(1, int(box / cutoff))
    if periodic and ncell < 3:
        ncell = 1  # degenerate box: brute force over everything
    cell_edge = box / ncell
    order, starts, ends = _cell_buckets(pos, cell_edge, ncell)
    atoms = pos[order].T.copy()  # (3, n_atoms) in cell order, per-axis rows
    group_order, gstarts, gends = _cell_buckets(centers, cell_edge, ncell)
    occupied = np.flatnonzero(gends > gstarts)

    counts = np.zeros(centers.shape[0], dtype=np.int64)
    c2 = cutoff * cutoff

    def squared(axis: int, coords: np.ndarray, block: np.ndarray) -> np.ndarray:
        """(groups x atoms) squared offsets along one axis."""
        d = coords[axis] - centers[block, axis, None]
        if periodic:
            d -= box * np.round(d / box)
        return d * d

    def cell_range(c: int) -> list[int]:
        if periodic:
            # wrapped, de-duplicated (ncell < 3 would otherwise visit a
            # cell more than once and double-count)
            return sorted({(c + d) % ncell for d in (-1, 0, 1)})
        return list(range(max(c - 1, 0), min(c + 2, ncell)))

    for key in occupied.tolist():
        cx, rest = divmod(key, ncell * ncell)
        cy, cz = divmod(rest, ncell)
        keys = [
            (x * ncell + y) * ncell + z
            for x in cell_range(cx)
            for y in cell_range(cy)
            for z in cell_range(cz)
        ]
        idx = np.concatenate([np.arange(starts[k], ends[k]) for k in keys])
        if not idx.size:
            continue
        near = atoms[:, idx]
        groups = group_order[gstarts[key]:gends[key]]
        step = max(1, _BLOCK_PAIRS // idx.size)
        for lo in range(0, groups.size, step):
            block = groups[lo:lo + step]
            r2 = (squared(0, near, block) + squared(1, near, block)
                  + squared(2, near, block))
            counts[block] = np.count_nonzero(r2 <= c2, axis=1)
    return counts


def _cell_buckets(points: np.ndarray, cell_edge: float, ncell: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``points`` by cell.  Returns ``(order, starts, ends)``: the
    points of cell key ``k`` are ``order[starts[k]:ends[k]]``."""
    cells = np.floor(points / cell_edge).astype(np.int64).clip(0, ncell - 1)
    keys = (cells[:, 0] * ncell + cells[:, 1]) * ncell + cells[:, 2]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    all_keys = np.arange(ncell ** 3)
    return (order, np.searchsorted(sorted_keys, all_keys),
            np.searchsorted(sorted_keys, all_keys, side="right"))


def _build(config: GromosConfig) -> WorkloadTrace:
    mol = synthetic_sod(config.n_atoms, config.n_groups, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    n_groups = config.n_groups
    n_nodes = config.num_nodes
    tasks: list[TraceTask] = []
    prev_wave_ids: list[int] = []
    for step in range(config.timesteps):
        if step > 0:
            mol = mol.perturb(sigma=0.15, rng=rng)
        counts = pair_counts(mol, config.cutoff)
        ids = list(range(len(tasks), len(tasks) + n_groups))
        for g in range(n_groups):
            home = g * n_nodes // n_groups if step == 0 else None
            tasks.append(
                TraceTask(
                    ids[g],
                    work=float(max(counts[g], 1)),
                    wave=step,
                    home=home,
                    data_bytes=2048,  # group coords + pair-list segment
                    label=f"group-{g}-step{step}",
                )
            )
        if prev_wave_ids:
            # chain each group to its previous-step task (location inherit)
            for g in range(n_groups):
                prev = tasks[prev_wave_ids[g]]
                tasks[prev_wave_ids[g]] = TraceTask(
                    prev.id, prev.work, prev.wave,
                    prev.children + (ids[g],), prev.pinned, prev.home,
                    prev.data_bytes, prev.label,
                )
        prev_wave_ids = ids

    return WorkloadTrace(
        f"gromos-{config.cutoff:g}A",
        tasks,
        sec_per_unit=SEC_PER_PAIR,
        description=(
            f"synthetic SOD ({config.n_atoms} atoms, {n_groups} charge "
            f"groups), cutoff {config.cutoff:g} A, "
            f"{config.timesteps} timestep(s), block pre-placement on "
            f"{n_nodes} nodes"
        ),
    )


def gromos_trace(
    cutoff: float = 8.0,
    num_nodes: int = 32,
    timesteps: int = 1,
    use_cache: bool = True,
    **kwargs,
) -> WorkloadTrace:
    """Workload trace for the synthetic GROMOS run (disk-cached)."""
    config = GromosConfig(cutoff=cutoff, num_nodes=num_nodes,
                          timesteps=timesteps, **kwargs)
    params = {
        "cutoff": config.cutoff,
        "nodes": config.num_nodes,
        "steps": config.timesteps,
        "atoms": config.n_atoms,
        "groups": config.n_groups,
        "seed": config.seed,
        "v": 1,
    }
    if not use_cache:
        return _build(config)
    return cached_trace("gromos", params, lambda: _build(config))
