"""Numeric kernels of the greedy search and the exact solver, in numpy and
plain Python.

``python3 perfbench/run.py`` times them inside whole CLI runs (``--trace 1``
reports them per layer); ``tests/test_backend.py`` checks them against
naive oracles.

Array conventions (shared with the solvers):

* ``pres``: uint8 array of shape ``(C, N)``; presence of assignment atoms.
* ``pred``: uint8 array of shape ``(F, C, N)``; model ``f`` predicts class
  ``c`` for object ``w``.
* Mutual-exclusion pairs come as class indices: the (2, K) array of
  :meth:`abfuse.deduction.IntegrityConstraintSet.index_pairs`, or each
  class's neighbour list from :func:`neighbours`.
"""

from typing import NamedTuple

import numpy as np


def neighbours(pairs, n_classes):
    """Each class's exclusion neighbours, ascending, as int64 arrays, from
    the (2, K) class index pairs ``pairs``."""
    a, b = pairs
    return [np.sort(np.concatenate((b[a == c], a[b == c]))) for c in range(n_classes)]


# ---------------------------------------------------------------------------
# union statistics for the greedy search


def union_stats(pres, base_atoms, base_conf, c, add_w, nbrs):
    """Atom count and conflict count of ``pres`` extended with class ``c``
    at the distinct objects ``add_w``.

    ``base_atoms``/``base_conf`` are the counts of ``pres`` itself and
    ``nbrs`` is class ``c``'s entry of :func:`neighbours`; objects that
    already carry ``c`` add nothing.  The added atoms share one class, so
    every new conflict pairs one of them with a neighbour class's atom
    already in ``pres``: the probe reads only those rows at the new objects.
    ``pres`` is left unchanged.  Returns ``(atoms, conflicts)`` of the union.
    """
    new = add_w[pres[c, add_w] == 0]
    conflicts = int(np.count_nonzero(pres[nbrs[:, None], new]))
    return int(base_atoms) + new.size, int(base_conf) + conflicts


def commit_atoms(pres, add_c, add_w):
    """Write the given atoms into ``pres`` in place."""
    pres[add_c, add_w] = 1


# ---------------------------------------------------------------------------
# branch & bound over eliminated (model, class) pairs

# The search fixes one binary per branchable (model, class) pair: 0 keeps the
# pair, 1 eliminates it and with it every assignment atom it alone supports.
# State is maintained incrementally, in Python lists (one element read or
# written per step, which lists do far faster than numpy scalars):
#   cnt[c][w]   surviving supporter count of atom (c, w), undecided pairs kept
#   ncov[w]     number of classes with cnt > 0 at object w
#   atoms       total covered (c, w) cells
#   conflicts   mutual-exclusion violations among covered cells
#   uncovered   variables' objects with ncov == 0
# An elimination saves the three totals before it changes them; its undo
# restores them and re-increments only the counts.
# Everything that does not depend on the budget (variables, the visit order,
# the initial counts and totals, the neighbour lists) is built once per
# instance by ``search_start`` and shared by the solves of every delta; each
# solve copies only the count rows it mutates.
# Every variable's objects are covered at the root (the variable itself
# supports them), so nothing starts uncovered.  Eliminations only shrink
# coverage, so an uncovered object can never recover deeper in the subtree
# (infeasibility prune), and the all-keep completion of a within-budget
# node dominates the rest of its subtree (fathom rule).  When over budget,
# every conflict removed costs at least one atom and one lost atom kills at
# most max_deg conflicts, giving the admissible bound
# atoms - ceil(excess / max_deg).
#
# Incumbent ordering: larger objective, then fewer eliminations, then the
# lexicographically smallest set of eliminated variable indices.  The fathom
# rule stays exact under all three levels: anything deeper than a fathomed
# node eliminates strictly more pairs, and an over-budget node needs at least
# one further elimination to become feasible, so the >= prune on elimination
# count never hides a tie-break winner.


class SearchStart(NamedTuple):
    """The search's state at the root, as Python lists, with the inputs that
    no solve changes.  Built once per instance by :func:`search_start`;
    :func:`bnb_search` copies ``cnt``'s mutated rows and ``ncov``.

    One branch variable per (model, class) pair with support, in
    (model, class) order; ``var_f``/``var_cls`` name its pair.  Pairs
    without support stay kept, which the fewer-eliminations preference
    wants anyway."""

    var_f: list             # model of each branch variable
    var_cls: list           # class of each branch variable
    order: list             # visit order of the variables
    var_objs: list          # each variable's objects, ascending
    cnt: list               # cnt[c][w] at the root
    ncov: list              # ncov[w] at the root
    nbrs: list              # each class's exclusion neighbours
    atoms: int
    conflicts: int
    max_deg: int


def search_start(pred, a, b) -> SearchStart:
    """The root state of the branch & bound over the packed predictions
    ``pred`` (F, C, N), with the exclusion pairs as aligned class index
    vectors ``a``, ``b``.  The visit order puts the most supported variable
    first, ties in variable order."""
    support = pred.sum(axis=2, dtype=np.int64)          # (F, C)
    var_f, var_cls = np.nonzero(support)
    var_support = support[var_f, var_cls]
    sup = pred.sum(axis=0, dtype=np.int64)              # supporters of (c, w)
    covered = sup > 0
    ncov = covered.sum(axis=0)
    nbrs = [n.tolist() for n in neighbours((a, b), pred.shape[1])]
    # nonzero walks (model, class, object) order: the variables' runs in turn
    objs = np.nonzero(pred)[2].tolist()
    ends = np.cumsum(var_support).tolist()
    return SearchStart(
        var_f.tolist(), var_cls.tolist(), np.argsort(-var_support, kind="stable").tolist(),
        [objs[i:j] for i, j in zip([0, *ends], ends)], sup.tolist(), ncov.tolist(), nbrs,
        int(ncov.sum()), int((covered[a] & covered[b]).sum()),
        max(1, max(map(len, nbrs), default=0)))


def bnb_search(start: SearchStart, budget):
    """Run the branch & bound from ``start`` within ``budget`` conflicts.

    Returns ``(found, best_obj, best_nelim, best_mask, nodes)`` where
    ``best_mask`` holds the elimination bit per branch variable.  ``found``
    is False when no elimination pattern covers every coverable object
    within the conflict budget.
    """
    var_cls, order, var_objs = start.var_cls, start.order, start.var_objs
    max_deg = start.max_deg
    atoms, conflicts, uncovered = start.atoms, start.conflicts, 0
    n_vars = len(var_cls)
    cnt = list(start.cnt)
    for c in set(var_cls):
        cnt[c] = cnt[c][:]
    ncov = start.ncov[:]
    # the count rows of each class's exclusion neighbours
    nbr_rows = [[cnt[j] for j in nbrs] for nbrs in start.nbrs]

    found = False
    best_obj = -1
    best_nelim = n_vars + 1
    best_mask = [0] * n_vars
    cur_mask = [0] * n_vars
    cur_nelim = 0
    nodes = 0

    # iterative DFS; phase 0 = arriving, 1 = keep branch done, 2 = elim done
    phase = [0] * (n_vars + 1)
    saved = [None] * n_vars     # the totals before each depth's elimination
    depth = 0
    while depth >= 0:
        p = phase[depth]
        if p == 0:
            nodes += 1
            done = False
            if uncovered > 0:
                done = True
            elif conflicts <= budget:
                # keeping every undecided pair is optimal within this subtree
                better = False
                if (not found) or atoms > best_obj:
                    better = True
                elif atoms == best_obj:
                    if cur_nelim < best_nelim:
                        better = True
                    elif cur_nelim == best_nelim:
                        # equal count: prefer eliminating earlier variables
                        for cur, best in zip(cur_mask, best_mask):
                            if cur != best:
                                better = cur == 1
                                break
                if better:
                    found = True
                    best_obj = atoms
                    best_nelim = cur_nelim
                    best_mask[:] = cur_mask
                done = True
            else:
                excess = conflicts - budget
                bound = atoms - (excess + max_deg - 1) // max_deg
                if found and (bound < best_obj or (
                        bound == best_obj and cur_nelim >= best_nelim)):
                    done = True
                elif depth == n_vars:
                    done = True
            if done:
                depth -= 1
                continue
            phase[depth] = 1
            depth += 1
            phase[depth] = 0
        elif p == 1:
            phase[depth] = 2
            saved[depth] = atoms, conflicts, uncovered
            v = order[depth]
            row = cnt[var_cls[v]]
            nbrs = nbr_rows[var_cls[v]]
            for w in var_objs[v]:
                k = row[w] - 1
                row[w] = k
                if k == 0:
                    atoms -= 1
                    for other in nbrs:
                        if other[w] > 0:
                            conflicts -= 1
                    k = ncov[w] - 1
                    ncov[w] = k
                    if k == 0:
                        uncovered += 1
            cur_mask[v] = 1
            cur_nelim += 1
            depth += 1
            phase[depth] = 0
        else:
            v = order[depth]
            row = cnt[var_cls[v]]
            for w in var_objs[v]:
                k = row[w]
                if k == 0:
                    ncov[w] += 1
                row[w] = k + 1
            atoms, conflicts, uncovered = saved[depth]
            cur_mask[v] = 0
            cur_nelim -= 1
            depth -= 1

    return found, best_obj, best_nelim, np.array(best_mask, dtype=np.int8), nodes
