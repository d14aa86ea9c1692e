"""Numeric kernels against naive oracles.

The kernels have a single numpy implementation.  The ``*_both_backends`` and
``*_across_backends`` test names come from a removed second (compiled)
implementation; they are kept so test ids stay comparable between runs.
"""

import numpy as np
import pytest

from abfuse import kernels, solver_ip

from conftest import SHARED_SEEDS, random_instance
from oracles import brute_force_optimal, count_conflicts


def test_pair_adjacency_csr():
    off, idx = kernels.pair_adjacency(4, [(0, 2), (2, 0), (1, 2), (2, 3)])
    assert off.tolist() == [0, 1, 2, 5, 6]
    assert idx.tolist() == [2, 2, 0, 1, 3, 2]
    off0, idx0 = kernels.pair_adjacency(3, [])
    assert off0.tolist() == [0, 0, 0, 0] and idx0.size == 0


def _random_arrays(seed):
    rng = np.random.default_rng(seed)
    C, N = rng.integers(2, 5), rng.integers(1, 7)
    pres = (rng.random((C, N)) < 0.4).astype(np.uint8)
    pairs = [(a, b) for a in range(C) for b in range(a + 1, C)
             if rng.random() < 0.5]
    return pres, pairs, rng


def _naive_conflicts(pres, pairs):
    return sum(int(pres[a, w] and pres[b, w])
               for a, b in pairs for w in range(pres.shape[1]))


@pytest.mark.parametrize("seed", range(40))
def test_count_conflicts_both_backends(seed):
    """The vectorised oracle agrees with the per-cell loop."""
    pres, pairs, _ = _random_arrays(seed)
    ic = np.asarray(pairs, np.int64).reshape(-1, 2)
    assert count_conflicts(pres, ic[:, 0], ic[:, 1]) == _naive_conflicts(pres, pairs)


@pytest.mark.parametrize("seed", range(40))
def test_union_stats_both_backends(seed):
    """Probing one class at distinct objects, some of which may already
    carry it, gives the counts of the naive union."""
    pres, pairs, rng = _random_arrays(seed)
    C, N = pres.shape
    off, idx = kernels.pair_adjacency(C, pairs)
    c = int(rng.integers(0, C))
    add_w = rng.permutation(N)[:int(rng.integers(0, N + 1))]

    union = pres.copy()
    union[c, add_w] = 1
    expect = (int(union.sum()), _naive_conflicts(union, pairs))

    base = (int(pres.sum()), _naive_conflicts(pres, pairs))
    before = pres.copy()
    assert kernels.union_stats(pres, base[0], base[1], c, add_w, off, idx) == expect
    np.testing.assert_array_equal(pres, before)  # the probe leaves pres alone


def test_union_stats_counts_duplicate_atoms_once():
    """An atom already present adds neither an atom nor a conflict."""
    pres = np.array([[1, 0, 0], [1, 1, 0], [0, 0, 0]], np.uint8)
    off, idx = kernels.pair_adjacency(3, [(0, 1), (1, 2)])
    # class 0 at objects 0 (present) and 1 (new, against class 1 there)
    assert kernels.union_stats(pres, 3, 1, 0, np.array([0, 1]), off, idx) == (4, 2)
    # only present atoms: the union is pres itself
    assert kernels.union_stats(pres, 3, 1, 1, np.array([1, 0]), off, idx) == (3, 1)
    # a class without exclusion neighbours never adds a conflict
    off0, idx0 = kernels.pair_adjacency(3, [(0, 1)])
    assert kernels.union_stats(pres, 3, 1, 2, np.array([0, 1, 2]), off0, idx0) == (6, 1)


def test_commit_atoms_writes_in_place():
    pres = np.zeros((2, 3), np.uint8)
    kernels.commit_atoms(pres, np.array([1, 0]), np.array([0, 2]))
    assert pres.tolist() == [[0, 0, 1], [1, 0, 0]]


@pytest.mark.parametrize("seed", SHARED_SEEDS[:60])
def test_solver_parity_across_backends(seed):
    """Branch & bound and the exhaustive reference agree on the whole
    solution, tie-break order included, not only on the objective."""
    obs, ic, delta, mode, directed = random_instance(seed)
    instance = solver_ip.build_instance(obs, ic, delta, mode, directed)
    bnb = solver_ip.solve(instance)
    ref = brute_force_optimal(instance)
    assert (bnb.status, bnb.objective) == (ref.status, ref.objective)
    assert bnb.elim == ref.elim
    assert bnb.assign == ref.assign
    assert bnb.con == ref.con
