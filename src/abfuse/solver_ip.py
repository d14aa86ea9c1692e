"""Exact acceptance-set optimization.

The decision variables are elimination bits, one per (model, class) pair.
Keeping a pair accepts all of that model's surviving predictions for that
class.  An object gets an assignment atom for class ``c`` exactly when some
kept pair predicts ``c`` for it.  The solver maximizes the number of
assignment atoms subject to (a) every object that any kept-or-undecided pair
could cover must end up covered, and (b) at most ``delta_budget`` ground
rules of the mutual-exclusion constraints may be violated.  Among optimal
solutions the one with fewer eliminations is preferred, then the one whose
eliminated pairs come lexicographically first in (model, class) order.

``solve`` runs an in-house branch & bound (see :mod:`abfuse.kernels`);
``audit_solution`` re-verifies any solution against the constraint system
built from first principles.  The tests hold an exhaustive reference solver
for tiny instances and a MILP statement solved by HiGHS for larger ones
(``tests/oracles.py``).
"""

from typing import Tuple

import numpy as np

from . import kernels
from .deduction import IntegrityConstraintSet, count_violations, violation_budget
from .model_io import InputError, ObservationSet

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


class IpInstance:
    """An observation set packed for the search: ``pred`` is uint8 (F, C, N)
    over ``models``, ``classes`` and ``objects``, ``delta_budget`` the
    integer budget of ``delta`` and ``start`` the search's root state."""

    def __init__(self, objects: Tuple[str, ...], models: Tuple[str, ...],
                 classes: Tuple[str, ...], pred: np.ndarray, ic: IntegrityConstraintSet,
                 delta: float, delta_budget: int, normalizer_mode: str,
                 directed_ground_rules: bool, start: kernels.SearchStart):
        self.objects, self.models, self.classes, self.pred, self.ic = (
            objects, models, classes, pred, ic)
        self.delta, self.delta_budget, self.start = delta, delta_budget, start
        self.normalizer_mode, self.directed_ground_rules = normalizer_mode, directed_ground_rules

    def with_delta(self, delta: float) -> "IpInstance":
        """The same instance at another ``delta``, sharing every array."""
        budget = violation_budget(delta, len(self.objects), self.ic, self.normalizer_mode,
                                  self.directed_ground_rules)
        return IpInstance(self.objects, self.models, self.classes, self.pred, self.ic, delta,
                          budget, self.normalizer_mode, self.directed_ground_rules, self.start)


class IpSolution:
    """A solution as arrays over the instance's models, classes and objects.

    ``eliminated[f, c]`` (int8) is the elimination bit of each (model, class)
    pair and ``covered[c, w]`` (bool) says whether object ``w`` gets class
    ``c``.  An infeasible solution eliminates every pair and covers nothing.
    """

    def __init__(self, status: str, objective: int, nodes: int, eliminated: np.ndarray,
                 covered: np.ndarray, instance: IpInstance):
        self.status, self.objective, self.nodes = status, objective, nodes
        self.eliminated, self.covered, self.instance = eliminated, covered, instance

    def n_violations(self) -> int:
        return count_violations(self.covered, self.instance.classes, self.instance.ic)


def build_instance(obs: ObservationSet,
                   ic: IntegrityConstraintSet,
                   delta: float,
                   normalizer_mode: str = "per_object",
                   directed_ground_rules: bool = False) -> IpInstance:
    """Pack an observation set into dense arrays plus the integer budget.

    Only ``delta`` and ``delta_budget`` depend on ``delta``; a caller solving
    one observation set at several deltas packs once and calls
    :meth:`IpInstance.with_delta`.
    """
    if not (0.0 <= delta <= 1.0):
        raise InputError(f"delta must be in [0, 1]: {delta!r}")

    objects, models, classes = obs.objects, obs.models, obs.classes
    pred = np.zeros((len(models), len(classes), len(objects)), dtype=np.uint8)
    pred[obs.model, obs.cls, obs.obj] = 1
    budget = violation_budget(delta, len(objects), ic,
                              normalizer_mode, directed_ground_rules)
    return IpInstance(objects, models, classes, pred, ic, delta, budget,
                      normalizer_mode, directed_ground_rules,
                      kernels.search_start(pred, *ic.index_pairs(classes)))


def _solution_from_elim(inst: IpInstance, elim_fc: np.ndarray,
                        status: str, nodes: int) -> IpSolution:
    """The solution implied by elimination bits: a class is assigned to an
    object when some kept pair predicts it."""
    covered = (inst.pred.astype(bool) & (elim_fc == 0)[:, :, None]).any(axis=0)
    return IpSolution(status, int(covered.sum()), nodes, elim_fc, covered, inst)


def _infeasible(inst: IpInstance, nodes: int) -> IpSolution:
    F, C, N = inst.pred.shape
    return IpSolution(STATUS_INFEASIBLE, -1, nodes, np.ones((F, C), dtype=np.int8),
                      np.zeros((C, N), dtype=bool), inst)


def solve(instance: IpInstance) -> IpSolution:
    """Optimal solution, or a solution with infeasible status when the
    coverage and budget constraints cannot be met simultaneously."""
    F, C, N = instance.pred.shape
    start = instance.start
    found, best_obj, _, best_mask, nodes = kernels.bnb_search(start, instance.delta_budget)

    if not found:
        return _infeasible(instance, nodes)

    elim_fc = np.zeros((F, C), dtype=np.int8)
    elim_fc[start.var_f, start.var_cls] = best_mask
    sol = _solution_from_elim(instance, elim_fc, STATUS_OPTIMAL, nodes)
    if sol.objective != best_obj:
        raise AssertionError(
            f"search bookkeeping out of sync: {sol.objective} != {best_obj}")
    return sol


def audit_solution(instance: IpInstance, sol: IpSolution) -> list:
    """Re-check a solution against the constraint system.

    Reads only ``instance.pred`` and the solution's ``eliminated`` and
    ``covered`` arrays, not the search's bookkeeping; returns a list of
    findings (empty means clean).  A prediction is considered exactly when
    its (model, class) pair is kept.
    """
    if sol.status != STATUS_OPTIMAL:
        return ["solution is not optimal-status; nothing to audit"]
    F, C, N = instance.pred.shape
    elim, covered = np.asarray(sol.eliminated), np.asarray(sol.covered)
    if elim.shape != (F, C):
        return [f"eliminated has shape {elim.shape}, not {(F, C)}"]
    if covered.dtype != bool or covered.shape != (C, N):
        return [f"covered is a {covered.dtype} {covered.shape} array, not a bool {(C, N)} one"]
    if not np.isin(elim, (0, 1)).all():
        return [f"elimination bits are not all 0 or 1: {np.unique(elim).tolist()}"]

    classes, objects, pred = instance.classes, instance.objects, instance.pred.astype(bool)
    supported = (pred & (elim == 0)[:, :, None]).any(axis=0)
    problems = [f"covered[{classes[c]!r}, {objects[w]!r}] = 0 below a considered prediction"
                for c, w in zip(*np.nonzero(supported & ~covered))]
    problems += [f"covered[{classes[c]!r}, {objects[w]!r}] = 1 exceeds its support 0"
                 for c, w in zip(*np.nonzero(covered & ~supported))]
    problems += [f"coverable object {objects[w]!r} has no assignment"
                 for w in np.flatnonzero(pred.any(axis=(0, 1)) & ~covered.any(axis=0))]

    # a pair naming a class outside the instance is never violated
    n_violations = sum(int((covered[classes.index(a)] & covered[classes.index(b)]).sum())
                       for a, b in instance.ic.pairs if a in classes and b in classes)
    if n_violations > instance.delta_budget:
        problems.append(f"violation count {n_violations} exceeds budget {instance.delta_budget}")
    if sol.objective != int(covered.sum()):
        problems.append(f"objective {sol.objective} != assigned atom count {int(covered.sum())}")
    return problems
