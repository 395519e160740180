"""Trace identity: every Table-I trace is pinned to a fingerprint.

The trace builders are fast kernels (batched N-Queens counting, an
in-place IDA* walk, cell-blocked GROMOS pair counts) standing in for the
plain sequential searches; the fingerprints pin their output to what the
sequential versions produced, task for task.  Every trace is built with
``use_cache=False`` so that a cached pickle cannot stand in for a build.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import gromos_trace, idastar_trace, nqueens_trace
from repro.apps.gromos import pair_counts
from repro.apps.molecule import synthetic_sod
from repro.apps.nqueens import QueensConfig, _count_subtrees, _mirror, solve_queens
from repro.experiments.common import _gromos_kwargs, _ida_configs, _queens_sizes

FINGERPRINTS = {
    ("small", "queens-10"): "9dfe91dd1cb8bd64",
    ("small", "queens-11"): "1277b4d22616022c",
    ("small", "queens-12"): "964058040db2095e",
    ("small", "ida-1"): "4677d54184e23e4d",
    ("small", "ida-2"): "bd9af927dff2c037",
    ("small", "ida-3"): "b67e85245217c1a8",
    ("small", "gromos-8"): "632e51aadf7ca4c6",
    ("small", "gromos-12"): "071f11f080f19480",
    ("small", "gromos-16"): "80164cdffae73c16",
    ("paper", "queens-13"): "172bf84ce2678674",
    ("paper", "ida-1"): "c663f52f713ad0ca",
    ("paper", "gromos-8"): "46bc6c5c26e8b672",
}


def fingerprint(trace) -> str:
    rows = [
        (t.id, t.work, t.wave, t.children, t.pinned, t.home, t.data_bytes, t.label)
        for t in trace.tasks
    ]
    blob = repr((trace.name, trace.sec_per_unit, trace.description, rows))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build(scale: str, key: str):
    kind, num = key.split("-")
    if kind == "queens":
        depth = dict(_queens_sizes(scale))[int(num)]
        return nqueens_trace(int(num), depth, use_cache=False)
    if kind == "ida":
        return idastar_trace(_ida_configs(scale)[int(num)], use_cache=False)
    return gromos_trace(float(num), num_nodes=32, use_cache=False,
                        **_gromos_kwargs(scale))


@pytest.mark.parametrize("scale,key", sorted(FINGERPRINTS))
def test_trace_fingerprint(scale, key):
    assert fingerprint(build(scale, key)) == FINGERPRINTS[scale, key]


def _prefixes(n: int, depth: int) -> list[tuple[int, int, int]]:
    full = (1 << n) - 1
    states = [(0, 0, 0)]
    for _ in range(depth):
        nxt = []
        for cols, left, right in states:
            free = full & ~(cols | left | right)
            while free:
                bit = free & -free
                free ^= bit
                nxt.append((cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1))
        states = nxt
    return states


@pytest.mark.parametrize("n", range(1, 10))
def test_batched_queens_counter_matches_sequential_solver(n):
    for depth in range(n + 1):
        states = _prefixes(n, depth)
        sols, visits = _count_subtrees(n, states)
        assert list(zip(sols.tolist(), visits.tolist())) == [
            solve_queens(n, *st) for st in states
        ], (n, depth)


def _place(n: int, columns) -> tuple[int, int, int]:
    full = (1 << n) - 1
    cols = left = right = 0
    for col in columns:
        bit = 1 << col
        cols, left, right = cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1
    return cols, left, right


@pytest.mark.parametrize("n", [5, 8, 11])
def test_mirror_is_the_state_of_the_reflected_placement(n):
    rng = np.random.default_rng(n)
    for _ in range(50):
        columns = rng.permutation(n)[: rng.integers(0, n + 1)].tolist()
        reflected = [n - 1 - col for col in columns]
        assert _mirror(n, _place(n, columns)) == _place(n, reflected)


def test_queens_config_rejects_boards_wider_than_int64_masks():
    QueensConfig(n=62)
    with pytest.raises(ValueError):
        QueensConfig(n=63)


def brute_pair_counts(mol, cutoff: float, periodic: bool) -> np.ndarray:
    centers = mol.group_centers()
    out = np.zeros(centers.shape[0], dtype=np.int64)
    for g in range(centers.shape[0]):
        d = mol.positions - centers[g]
        if periodic:
            d -= mol.box * np.round(d / mol.box)
        out[g] = np.count_nonzero((d * d).sum(axis=1) <= cutoff * cutoff)
    return out


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("cutoff", [6.0, 9.0, 25.0, 40.0])
def test_pair_counts_match_brute_force(cutoff, periodic):
    # 25 and 40 A leave fewer than 3 cells per axis on the 64 A box
    mol = synthetic_sod(n_atoms=400, n_groups=120, seed=3)
    assert np.array_equal(pair_counts(mol, cutoff, periodic),
                          brute_pair_counts(mol, cutoff, periodic))


@pytest.mark.parametrize("periodic", [True, False])
def test_pair_counts_match_brute_force_with_atoms_on_the_box_faces(periodic):
    mol = synthetic_sod(n_atoms=400, n_groups=120, seed=4)
    moved = mol.perturb(sigma=6.0, rng=np.random.default_rng(0))
    on_faces = (moved.positions == 0.0) | (moved.positions == moved.box)
    assert on_faces.any()
    for cutoff in (8.0, 12.0):
        assert np.array_equal(pair_counts(moved, cutoff, periodic),
                              brute_pair_counts(moved, cutoff, periodic))
