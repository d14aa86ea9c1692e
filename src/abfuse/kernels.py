"""Numeric kernels of the greedy search and the exact solver, in numpy.

``python3 perfbench/run.py`` times them inside whole CLI runs (``--trace 1``
reports them per layer); ``tests/test_backend.py`` checks them against
naive oracles.

Array conventions (shared with the solvers):

* ``pred``: uint8 array of shape ``(F, C, N)``; ``pred[f, c, w] == 1`` when
  model ``f`` predicted class ``c`` for object ``w``.
* ``pres``: uint8 array of shape ``(C, N)``; presence of assignment atoms.
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


def union_stats(pres, base_atoms, base_conf, add_c, add_w, adj_off, adj_idx):
    """Atom count and conflict count of ``pres`` extended with the given atoms.

    ``base_atoms``/``base_conf`` are the counts of ``pres`` itself; atoms
    already present or listed twice count once.  ``pres`` is left unchanged.
    Returns ``(atoms, conflicts)`` of the union.
    """
    new = np.zeros(pres.shape, dtype=bool)
    new[add_c, add_w] = True
    new &= pres == 0
    union = new | (pres != 0)
    a, b = _edges(adj_off, adj_idx)
    added = union[a] & union[b] & (new[a] | new[b])
    return int(base_atoms) + int(new.sum()), int(base_conf) + int(added.sum())


def commit_atoms(pres, add_c, add_w):
    """Write the given atoms into ``pres`` in place."""
    pres[add_c, add_w] = 1


# ---------------------------------------------------------------------------
# branch & bound over eliminated (model, class) pairs

# The search fixes one binary per branchable (model, class) pair: 0 keeps the
# pair, 1 eliminates it and with it every assignment atom it alone supports.
# State is maintained incrementally:
#   cnt[c, w]   surviving supporter count of atom (c, w), undecided pairs kept
#   ncov[w]     number of classes with cnt > 0 at object w
#   atoms       total covered (c, w) cells
#   conflicts   mutual-exclusion violations among covered cells
#   uncovered   coverable objects with ncov == 0
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
    cnt = sup.astype(np.int64)

    covered = cnt > 0
    ncov = covered.sum(axis=0)
    atoms = int(ncov.sum())
    pa, pb = _edges(adj_off, adj_idx)
    conflicts = int((covered[pa] & covered[pb]).sum())
    uncovered = int(((coverable == 1) & (ncov == 0)).sum())

    found = False
    best_obj = -1
    best_nelim = n_vars + 1
    best_mask = np.zeros(n_vars, np.int8)
    cur_mask = np.zeros(n_vars, np.int8)
    cur_nelim = 0
    nodes = 0

    # iterative DFS; phase 0 = arriving, 1 = keep branch done, 2 = elim done
    phase = np.zeros(n_vars + 1, np.int8)
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
                        differ = np.flatnonzero(cur_mask != best_mask)
                        better = differ.size > 0 and cur_mask[differ[0]] == 1
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
            c = var_cls[v]
            for k in range(var_obj_off[v], var_obj_off[v + 1]):
                w = var_obj_idx[k]
                cnt[c, w] -= 1
                if cnt[c, w] == 0:
                    atoms -= 1
                    for a in range(adj_off[c], adj_off[c + 1]):
                        j = adj_idx[a]
                        if cnt[j, w] > 0:
                            conflicts -= 1
                    ncov[w] -= 1
                    if ncov[w] == 0 and coverable[w] == 1:
                        uncovered += 1
            cur_mask[v] = 1
            cur_nelim += 1
            depth += 1
            phase[depth] = 0
        else:
            v = order[depth]
            c = var_cls[v]
            for k in range(var_obj_off[v], var_obj_off[v + 1]):
                w = var_obj_idx[k]
                if cnt[c, w] == 0:
                    atoms += 1
                    for a in range(adj_off[c], adj_off[c + 1]):
                        j = adj_idx[a]
                        if cnt[j, w] > 0:
                            conflicts += 1
                    if ncov[w] == 0 and coverable[w] == 1:
                        uncovered -= 1
                    ncov[w] += 1
                cnt[c, w] += 1
            cur_mask[v] = 0
            cur_nelim -= 1
            depth -= 1

    return found, best_obj, best_nelim, best_mask, nodes


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
