"""Hot numeric kernels.

Each public helper here dispatches to either a numba-compiled loop kernel or
a plain numpy implementation, decided per call by :func:`abfuse.backend.use_numba`.
The compiled and plain paths are checked against each other in the test
suite; ``python3 perfbench/run.py`` times the kernels inside whole CLI runs
(``--trace 1`` reports them per layer).

Array conventions (shared with the solvers):

* ``pred``: uint8 array of shape ``(F, C, N)``; ``pred[f, c, w] == 1`` when
  model ``f`` predicted class ``c`` for object ``w``.
* ``pres``: uint8 array of shape ``(C, N)``; presence of assignment atoms.
* Mutual-exclusion pairs come either as two aligned index vectors
  ``(ic_a, ic_b)`` or as a CSR-style adjacency ``(adj_off, adj_idx)`` over
  class indices.
"""

import numpy as np

from .backend import njit, use_numba


# ---------------------------------------------------------------------------
# conflict counting


def _count_conflicts_loop(pres, ic_a, ic_b):
    n_pairs = ic_a.shape[0]
    n_obj = pres.shape[1]
    total = 0
    for k in range(n_pairs):
        a = ic_a[k]
        b = ic_b[k]
        for w in range(n_obj):
            if pres[a, w] != 0 and pres[b, w] != 0:
                total += 1
    return total


_count_conflicts_jit = njit(cache=True)(_count_conflicts_loop)


def count_conflicts(pres, ic_a, ic_b):
    """Number of (object, pair) mutual-exclusion violations in ``pres``."""
    if ic_a.shape[0] == 0:
        return 0
    if use_numba():
        return int(_count_conflicts_jit(pres, ic_a, ic_b))
    occ = pres != 0
    return int(np.logical_and(occ[ic_a], occ[ic_b]).sum())


# ---------------------------------------------------------------------------
# union statistics for the greedy search

# ``pres`` uses 0 = absent, 1 = committed; the probe temporarily marks cells
# with 2 so overlapping candidate atoms interact exactly once.


def _union_stats_loop(pres, base_atoms, base_conf, add_c, add_w, adj_off, adj_idx):
    added = 0
    conf = base_conf
    n = add_c.shape[0]
    for i in range(n):
        c = add_c[i]
        w = add_w[i]
        if pres[c, w] == 0:
            added += 1
            for a in range(adj_off[c], adj_off[c + 1]):
                j = adj_idx[a]
                if pres[j, w] != 0:
                    conf += 1
            pres[c, w] = 2
    for i in range(n):
        c = add_c[i]
        w = add_w[i]
        if pres[c, w] == 2:
            pres[c, w] = 0
    return base_atoms + added, conf


_union_stats_jit = njit(cache=True)(_union_stats_loop)


def union_stats(pres, base_atoms, base_conf, add_c, add_w, adj_off, adj_idx):
    """Atom count and conflict count of ``pres`` extended with the given atoms.

    ``pres`` is left unchanged.  Returns ``(atoms, conflicts)`` of the union.
    """
    if add_c.shape[0] == 0:
        return int(base_atoms), int(base_conf)
    fn = _union_stats_jit if use_numba() else _union_stats_loop
    atoms, conf = fn(pres, base_atoms, base_conf, add_c, add_w, adj_off, adj_idx)
    return int(atoms), int(conf)


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


def _bnb_search(var_cls, var_obj_off, var_obj_idx, order, cnt,
                adj_off, adj_idx, coverable, budget, max_deg):
    n_vars = var_cls.shape[0]
    n_classes, n_objects = cnt.shape

    ncov = np.zeros(n_objects, np.int64)
    atoms = 0
    for w in range(n_objects):
        nc = 0
        for c in range(n_classes):
            if cnt[c, w] > 0:
                nc += 1
        ncov[w] = nc
        atoms += nc

    conflicts = 0
    for w in range(n_objects):
        for c in range(n_classes):
            if cnt[c, w] > 0:
                for a in range(adj_off[c], adj_off[c + 1]):
                    j = adj_idx[a]
                    if j > c and cnt[j, w] > 0:
                        conflicts += 1

    uncovered = 0
    for w in range(n_objects):
        if coverable[w] == 1 and ncov[w] == 0:
            uncovered += 1

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
                        for i in range(n_vars):
                            if cur_mask[i] != best_mask[i]:
                                better = cur_mask[i] == 1
                                break
                if better:
                    found = True
                    best_obj = atoms
                    best_nelim = cur_nelim
                    for i in range(n_vars):
                        best_mask[i] = cur_mask[i]
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


_bnb_search_jit = njit(cache=True)(_bnb_search)


def bnb_search(var_cls, var_obj_off, var_obj_idx, order, sup,
               adj_off, adj_idx, coverable, budget, max_deg):
    """Run the branch & bound.

    Returns ``(found, best_obj, best_nelim, best_mask, nodes)`` where
    ``best_mask`` holds the elimination bit per branch variable.  ``found``
    is False when no elimination pattern covers every coverable object
    within the conflict budget.
    """
    cnt = sup.astype(np.int64).copy()
    fn = _bnb_search_jit if use_numba() else _bnb_search
    found, best_obj, best_nelim, best_mask, nodes = fn(
        var_cls, var_obj_off, var_obj_idx, order, cnt,
        adj_off, adj_idx, coverable, budget, max(1, max_deg))
    return bool(found), int(best_obj), int(best_nelim), best_mask, int(nodes)


# ---------------------------------------------------------------------------
# packing helpers


def pair_adjacency(n_classes, pairs):
    """CSR adjacency over class indices from index pair tuples."""
    neigh = [[] for _ in range(n_classes)]
    for a, b in pairs:
        neigh[a].append(b)
        neigh[b].append(a)
    off = np.zeros(n_classes + 1, np.int64)
    idx = []
    for c in range(n_classes):
        ns = sorted(set(neigh[c]))
        idx.extend(ns)
        off[c + 1] = off[c] + len(ns)
    return off, np.asarray(idx, np.int64) if idx else np.zeros(0, np.int64)
