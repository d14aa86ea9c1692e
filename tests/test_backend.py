"""Numeric kernels against naive oracles.

The kernels have one implementation, over per-class Python-int object
bitsets; the oracles count on dense 0/1 (class, object) arrays.  The
``*_both_backends`` and ``*_across_backends`` test names come from a removed
second (compiled) implementation; they are kept so test ids stay comparable
between runs.
"""

import numpy as np
import pytest

from abfuse import kernels, solver_ip
from abfuse.deduction import IntegrityConstraintSet
from abfuse.model_io import InputError

from conftest import SHARED_SEEDS, random_instance
from oracles import brute_force_optimal, count_conflicts


def test_index_pairs_and_neighbours():
    ic = IntegrityConstraintSet((("c", "a"), ("b", "c"), ("c", "d")))
    pairs = ic.index_pairs(("a", "b", "c", "d"))
    assert pairs == [(0, 2), (1, 2), (2, 3)]
    assert kernels.neighbours(pairs, 4) == [[2], [2], [0, 1, 3], [2]]
    empty = IntegrityConstraintSet(()).index_pairs(("a", "b", "c"))
    assert empty == []
    assert kernels.neighbours(empty, 3) == [[], [], []]
    # a pair naming a class outside the universe is an error: the CLI
    # drops such pairs from the domain when it loads the data
    with pytest.raises(InputError, match="outside the class universe"):
        IntegrityConstraintSet(ic.pairs + (("a", "z"),)).index_pairs(("a", "b", "c", "d"))


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


def _int(objects):
    """The objects as one int, bit w for object w."""
    return sum(1 << int(w) for w in set(np.asarray(objects).tolist()))


def _cover(pres):
    """Each class row of a dense (C, N) 0/1 array as an object bitset."""
    return [_int(np.flatnonzero(row)) for row in pres]


@pytest.mark.parametrize("seed", range(40))
def test_count_conflicts_both_backends(seed):
    """The vectorised oracle agrees with the per-cell loop."""
    pres, pairs, _ = _random_arrays(seed)
    ic = np.asarray(pairs, np.int64).reshape(-1, 2)
    assert count_conflicts(pres, ic[:, 0], ic[:, 1]) == _naive_conflicts(pres, pairs)


@pytest.mark.parametrize("seed", range(40))
def test_union_stats_both_backends(seed):
    """Probing one class at a set of objects, some of which may already
    carry it, gives the counts of the naive union."""
    pres, pairs, rng = _random_arrays(seed)
    C, N = pres.shape
    nbrs = kernels.neighbours(pairs, C)
    c = int(rng.integers(0, C))
    add_w = rng.permutation(N)[:int(rng.integers(0, N + 1))]

    union = pres.copy()
    union[c, add_w] = 1
    expect = (int(union.sum()), _naive_conflicts(union, pairs))

    base = (int(pres.sum()), _naive_conflicts(pres, pairs))
    cover = _cover(pres)
    assert kernels.union_stats(cover, base[0], base[1], c, _int(add_w), nbrs[c]) == expect
    assert cover == _cover(pres)  # the probe leaves the coverage alone


def test_union_stats_counts_duplicate_atoms_once():
    """An atom already present adds neither an atom nor a conflict."""
    cover = _cover(np.array([[1, 0, 0], [1, 1, 0], [0, 0, 0]], np.uint8))
    nbrs = kernels.neighbours([(0, 1), (1, 2)], 3)
    # class 0 at objects 0 (present) and 1 (new, against class 1 there)
    assert kernels.union_stats(cover, 3, 1, 0, _int([0, 1]), nbrs[0]) == (4, 2)
    # only present atoms: the union is the coverage itself
    assert kernels.union_stats(cover, 3, 1, 1, _int([1, 0]), nbrs[1]) == (3, 1)
    # a class without exclusion neighbours never adds a conflict
    nbrs0 = kernels.neighbours([(0, 1)], 3)
    assert kernels.union_stats(cover, 3, 1, 2, _int([0, 1, 2]), nbrs0[2]) == (6, 1)


def _bits(mask):
    """The set bits of an int, ascending."""
    return [w for w in range(mask.bit_length()) if mask >> w & 1]


@pytest.mark.parametrize("seed", range(40))
def test_search_start_root_totals(seed):
    """The search's root state equals a from-scratch count on a random
    packed instance."""
    rng = np.random.default_rng(seed)
    F, C, N = rng.integers(1, 4), rng.integers(2, 5), rng.integers(1, 8)
    pred = (rng.random((F, C, N)) < 0.4).astype(np.uint8)
    pairs = [(a, b) for a in range(C) for b in range(a + 1, C) if rng.random() < 0.5]
    start = kernels.search_start(
        [_int(np.flatnonzero(pred[f, c])) for f in range(F) for c in range(C)], C, pairs)

    covered = pred.any(axis=0)
    assert start.atoms == int(covered.sum())
    assert start.conflicts == _naive_conflicts(covered, pairs)
    assert start.max_deg == max(1, max(sum(c in p for p in pairs) for c in range(C)))
    variables = [(f, c) for f in range(F) for c in range(C) if pred[f, c].any()]
    assert list(zip(start.var_f, start.var_cls)) == variables
    assert [_bits(m) for m in start.var_mask] == [
        np.flatnonzero(pred[f, c]).tolist() for f, c in variables]
    assert [_bits(m) for m in start.cover] == [np.flatnonzero(row).tolist() for row in covered]
    support = [int(pred[f, c].sum()) for f, c in variables]
    assert start.order == sorted(range(len(variables)), key=lambda v: -support[v])


def test_commit_atoms_writes_in_place():
    """Committing one class at a set of objects leaves the coverage of the
    naive union, in the same list."""
    for seed in range(20):
        pres, _, rng = _random_arrays(seed)
        C, N = pres.shape
        c = int(rng.integers(0, C))
        add_w = rng.permutation(N)[:int(rng.integers(0, N + 1))]
        union = pres.copy()
        union[c, add_w] = 1
        cover = _cover(pres)
        kernels.commit_atoms(cover, c, _int(add_w))
        assert cover == _cover(union), seed


@pytest.mark.parametrize("seed", SHARED_SEEDS[:60])
def test_solver_parity_across_backends(seed):
    """Branch & bound and the exhaustive reference agree on the whole
    solution, tie-break order included, not only on the objective."""
    obs, ic, delta, mode, directed = random_instance(seed)
    instance = solver_ip.build_instance(obs, ic, delta, mode, directed)
    bnb = solver_ip.solve(instance)
    ref = brute_force_optimal(instance)
    assert (bnb.status, bnb.objective) == (ref.status, ref.objective)
    assert (bnb.eliminated, bnb.covered) == (ref.eliminated, ref.covered)
