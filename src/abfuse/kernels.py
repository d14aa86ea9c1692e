"""Numeric kernels of the greedy search and the exact solver, in plain
Python.

``python3 perfbench/run.py`` times them inside whole CLI runs (``--trace 1``
reports them per layer); ``tests/test_backend.py`` checks them against
naive oracles.

Both searches hold the same state: a set of objects is one Python int, bit
``w`` for object ``w``, and ``cover[c]`` is the set of objects that carry
class ``c``.  Mutual-exclusion pairs come as class indices: the ``(i, j)``
list of :meth:`abfuse.deduction.IntegrityConstraintSet.index_pairs`, or
each class's neighbour list from :func:`neighbours`.
"""

import sys
from typing import NamedTuple


def neighbours(pairs, n_classes):
    """Each class's exclusion neighbours, ascending, as int lists, from the
    ``(i, j)`` class index pairs ``pairs``."""
    return [sorted([b for a, b in pairs if a == c] + [a for a, b in pairs if b == c])
            for c in range(n_classes)]


# ---------------------------------------------------------------------------
# union statistics for the greedy search


def union_stats(cover, base_atoms, base_conf, c, add, nbrs):
    """Atom count and conflict count of ``cover`` extended with class ``c``
    at the objects ``add``.

    ``base_atoms``/``base_conf`` are the counts of ``cover`` itself and
    ``nbrs`` is class ``c``'s entry of :func:`neighbours`; objects that
    already carry ``c`` add nothing.  The added atoms share one class, so
    every new conflict pairs one of them with a neighbour class's atom
    already in ``cover``.  ``cover`` is left unchanged.  Returns ``(atoms,
    conflicts)`` of the union.
    """
    new = add & ~cover[c]
    conflicts = sum((new & cover[j]).bit_count() for j in nbrs)
    return base_atoms + new.bit_count(), base_conf + conflicts


def commit_atoms(cover, c, add):
    """Add class ``c`` at the objects ``add`` to ``cover`` in place."""
    cover[c] |= add


# ---------------------------------------------------------------------------
# branch & bound over eliminated (model, class) pairs

# The search fixes one binary per branchable (model, class) pair: 0 keeps the
# pair, 1 eliminates it and with it every assignment atom it alone supports.
# ``visit(depth, atoms, conflicts, nelim)`` is one node: decisions fixed for
# the variables before ``order[depth]``, ``atoms`` covered (c, w) cells,
# ``conflicts`` mutual-exclusion violations among them and ``nelim``
# eliminations.  The shared ``cover[c]`` holds the objects that class c's
# undecided or kept pairs predict c for.  A node tries the keep branch
# first, then eliminates ``order[depth]``: that recomputes cover[c] as the OR
# of c's kept pairs' masks; each lost object costs one atom, and one conflict
# per neighbour class covering it.  The call restores cover[c] when the
# child returns.
# Everything that does not depend on the budget is built once per instance
# by ``search_start`` and shared by the solves of every delta.
# Every variable's objects are covered at the root (the variable itself
# supports them), so nothing starts uncovered.  Eliminations only shrink
# coverage, so an object that an elimination leaves with no class can never
# recover deeper in the subtree: that child counts as one node and closes
# (infeasibility prune).  The all-keep completion of a within-budget
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
    """The search's state at the root, as Python ints and lists, with the
    inputs that no solve changes.  Built once per instance by
    :func:`search_start`; :func:`bnb_search` copies ``cover``.

    One branch variable per (model, class) pair with support, in
    (model, class) order; ``var_f``/``var_cls`` name its pair.  Pairs
    without support stay kept, which the fewer-eliminations preference
    wants anyway."""

    var_f: list             # model of each branch variable
    var_cls: list           # class of each branch variable
    order: list             # visit order of the variables
    var_mask: list          # each variable's objects, as a bitmask
    cover: list             # each class's covered objects at the root
    nbrs: list              # each class's exclusion neighbours
    atoms: int
    conflicts: int
    max_deg: int


def search_start(masks, n_classes, pairs) -> SearchStart:
    """The root state of the branch & bound over the objects
    ``masks[f * n_classes + c]`` that model ``f`` predicts class ``c`` for,
    with the exclusion ``pairs`` as class indices.  The visit order puts the
    most supported variable first, ties in variable order."""
    var = [k for k, m in enumerate(masks) if m]
    support = [masks[k].bit_count() for k in var]
    cover = [0] * n_classes
    for k in var:
        cover[k % n_classes] |= masks[k]
    nbrs = neighbours(pairs, n_classes)
    return SearchStart(
        [k // n_classes for k in var], [k % n_classes for k in var],
        sorted(range(len(var)), key=lambda v: -support[v]),
        [masks[k] for k in var], cover, nbrs,
        sum(c.bit_count() for c in cover),
        sum((cover[a] & cover[b]).bit_count() for a, b in pairs),
        max(1, max(map(len, nbrs), default=0)))


def bnb_search(start: SearchStart, budget):
    """Run the branch & bound from ``start`` within ``budget`` conflicts.

    Returns ``(found, best_obj, best_nelim, best_mask, nodes)`` where
    ``best_mask`` lists the elimination bit of each branch variable.  ``found``
    is False when no elimination pattern covers every coverable object
    within the conflict budget.
    """
    var_cls, order, var_mask, nbrs = start.var_cls, start.order, start.var_mask, start.nbrs
    max_deg, n_vars = start.max_deg, len(var_cls)
    cover = start.cover[:]
    cls_vars = [[] for _ in cover]
    for v, c in enumerate(var_cls):
        cls_vars[c].append(v)
    cur_mask = [0] * n_vars
    found, best_obj, best_nelim, best_mask, nodes = False, -1, n_vars + 1, [0] * n_vars, 0

    def visit(depth, atoms, conflicts, nelim):
        nonlocal found, best_obj, best_nelim, nodes
        nodes += 1
        if conflicts <= budget:
            # keeping every undecided pair is optimal within this subtree; on
            # equal counts the list order prefers eliminating earlier variables
            if not found or atoms > best_obj or atoms == best_obj and (
                    nelim < best_nelim or nelim == best_nelim and cur_mask > best_mask):
                found, best_obj, best_nelim = True, atoms, nelim
                best_mask[:] = cur_mask
            return
        bound = atoms - (conflicts - budget + max_deg - 1) // max_deg
        if depth == n_vars or found and (
                bound < best_obj or bound == best_obj and nelim >= best_nelim):
            return
        visit(depth + 1, atoms, conflicts, nelim)         # keep order[depth]
        v = order[depth]
        c = var_cls[v]
        old = cover[c]
        cur_mask[v] = 1
        new = 0
        for u in cls_vars[c]:
            if not cur_mask[u]:
                new |= var_mask[u]
        cover[c] = new
        lost = old ^ new        # new is a subset of old
        if lost:
            atoms -= lost.bit_count()
            for j in nbrs[c]:
                conflicts -= (lost & cover[j]).bit_count()
            for other in cover:
                lost &= ~other  # keep the objects left with no class
        if lost:
            nodes += 1          # an infeasible child: counted and closed
        else:
            visit(depth + 1, atoms, conflicts, nelim + 1)
        cover[c] = old
        cur_mask[v] = 0

    # the first dive is n_vars + 1 calls deep; from Python 3.11 they use no C stack
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n_vars + 1)
    try:
        visit(0, start.atoms, start.conflicts, 0)
    finally:
        sys.setrecursionlimit(limit)
    return found, best_obj, best_nelim, best_mask, nodes
