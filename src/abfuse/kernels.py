"""Numeric kernels of the greedy search and the exact solver, in numpy and
plain Python.

``python3 perfbench/run.py`` times them inside whole CLI runs (``--trace 1``
reports them per layer); ``tests/test_backend.py`` checks them against
naive oracles.

Array conventions (shared with the solvers):

* ``pres``: uint8 array of shape ``(C, N)``; presence of assignment atoms.
* ``sup``: int64 array of shape ``(C, N)``; how many (model, class) pairs
  predict class ``c`` for object ``w``.
* Mutual-exclusion pairs come as a CSR-style adjacency ``(adj_off, adj_idx)``
  over class indices.
"""

import numpy as np


def _edges(adj_off, adj_idx):
    """Each mutual-exclusion pair once, as aligned class vectors ``a < b``."""
    a = np.repeat(np.arange(adj_off.shape[0] - 1), np.diff(adj_off))
    keep = a < adj_idx
    return a[keep], adj_idx[keep]


# ---------------------------------------------------------------------------
# union statistics for the greedy search


def union_stats(pres, base_atoms, base_conf, c, add_w, adj_off, adj_idx):
    """Atom count and conflict count of ``pres`` extended with class ``c``
    at the distinct objects ``add_w``.

    ``base_atoms``/``base_conf`` are the counts of ``pres`` itself; objects
    that already carry ``c`` add nothing.  The added atoms share one class,
    so every new conflict pairs one of them with a neighbour class's atom
    already in ``pres``: the probe reads only those rows at the new objects.
    ``pres`` is left unchanged.  Returns ``(atoms, conflicts)`` of the union.
    """
    new = add_w[pres[c, add_w] == 0]
    nbrs = adj_idx[adj_off[c]:adj_off[c + 1]]
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
#   uncovered   coverable objects with ncov == 0
# A variable's objects are listed the first time it is branched on, so a
# search that ends at the root pays only for the initial counts.  Everything
# that does not depend on the budget (variables, their objects, the visit
# order, the supporter counts, the adjacency) is packed once by
# ``solver_ip.build_instance`` and shared by the solves of every delta.
# Eliminations only shrink coverage, so an uncovered object can never recover
# deeper in the subtree (infeasibility prune), and the all-keep completion of
# a within-budget node dominates the rest of its subtree (fathom rule).  When
# over budget, every conflict removed costs at least one atom and one lost
# atom kills at most max_deg conflicts, giving the admissible bound
# atoms - ceil(excess / max_deg).
#
# Incumbent ordering: larger objective, then fewer eliminations, then the
# lexicographically smallest set of eliminated variable indices.  The fathom
# rule stays exact under all three levels: anything deeper than a fathomed
# node eliminates strictly more pairs, and an over-budget node needs at least
# one further elimination to become feasible, so the >= prune on elimination
# count never hides a tie-break winner.


def bnb_search(var_cls, var_obj_off, var_obj_idx, order, sup,
               adj_off, adj_idx, coverable, budget, max_deg):
    """Run the branch & bound.

    Returns ``(found, best_obj, best_nelim, best_mask, nodes)`` where
    ``best_mask`` holds the elimination bit per branch variable.  ``found``
    is False when no elimination pattern covers every coverable object
    within the conflict budget.
    """
    n_vars = var_cls.shape[0]
    max_deg = max(1, max_deg)

    covered = sup > 0
    ncov = covered.sum(axis=0)
    atoms = int(ncov.sum())
    pa, pb = _edges(adj_off, adj_idx)
    conflicts = int((covered[pa] & covered[pb]).sum())
    uncovered = int(((coverable != 0) & (ncov == 0)).sum())

    cnt = sup.tolist()
    ncov = ncov.tolist()
    coverable = (coverable != 0).tolist()
    var_cls = var_cls.tolist()
    order = order.tolist()
    offs = var_obj_off.tolist()
    # the count rows of each class's exclusion neighbours
    nbr_rows = [[cnt[j] for j in adj_idx[adj_off[c]:adj_off[c + 1]].tolist()]
                for c in range(len(cnt))]
    var_objs = [None] * n_vars

    found = False
    best_obj = -1
    best_nelim = n_vars + 1
    best_mask = [0] * n_vars
    cur_mask = [0] * n_vars
    cur_nelim = 0
    nodes = 0

    # iterative DFS; phase 0 = arriving, 1 = keep branch done, 2 = elim done
    phase = [0] * (n_vars + 1)
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
            v = order[depth]
            objs = var_objs[v]
            if objs is None:
                objs = var_objs[v] = var_obj_idx[offs[v]:offs[v + 1]].tolist()
            row = cnt[var_cls[v]]
            nbrs = nbr_rows[var_cls[v]]
            for w in objs:
                k = row[w] - 1
                row[w] = k
                if k == 0:
                    atoms -= 1
                    for other in nbrs:
                        if other[w] > 0:
                            conflicts -= 1
                    k = ncov[w] - 1
                    ncov[w] = k
                    if k == 0 and coverable[w]:
                        uncovered += 1
            cur_mask[v] = 1
            cur_nelim += 1
            depth += 1
            phase[depth] = 0
        else:
            v = order[depth]
            row = cnt[var_cls[v]]
            nbrs = nbr_rows[var_cls[v]]
            for w in var_objs[v]:
                k = row[w]
                if k == 0:
                    atoms += 1
                    for other in nbrs:
                        if other[w] > 0:
                            conflicts += 1
                    if ncov[w] == 0 and coverable[w]:
                        uncovered -= 1
                    ncov[w] += 1
                row[w] = k + 1
            cur_mask[v] = 0
            cur_nelim -= 1
            depth -= 1

    return found, best_obj, best_nelim, np.array(best_mask, dtype=np.int8), nodes


# ---------------------------------------------------------------------------
# packing helpers


def pair_adjacency(n_classes, pairs):
    """CSR adjacency over class indices from index pair tuples."""
    neigh = [set() for _ in range(n_classes)]
    for a, b in pairs:
        neigh[a].add(b)
        neigh[b].add(a)
    off = np.cumsum([0] + [len(ns) for ns in neigh], dtype=np.int64)
    return off, np.array([j for ns in neigh for j in sorted(ns)], dtype=np.int64)
