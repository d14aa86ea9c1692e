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
for tiny instances (``tests/oracles.py``).
"""

from functools import cached_property
from typing import Dict, Tuple

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

    @property
    def shape(self) -> Tuple[int, int, int]:
        return self.pred.shape

    @property
    def coverable(self) -> np.ndarray:
        """uint8 (N,): 1 where some pair predicts the object."""
        return self.pred.any(axis=(0, 1)).astype(np.uint8)

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
    ``elim``, ``assign`` and ``con`` are the same variables as dictionaries,
    built on first access for audits and tests.
    """

    def __init__(self, status: str, objective: int, nodes: int, eliminated: np.ndarray,
                 covered: np.ndarray, instance: IpInstance):
        self.status, self.objective, self.nodes = status, objective, nodes
        self.eliminated, self.covered, self.instance = eliminated, covered, instance

    def n_violations(self) -> int:
        return count_violations(self.covered, self.instance.classes, self.instance.ic)

    @cached_property
    def elim(self) -> Dict[Tuple[str, str], int]:
        inst = self.instance
        return {(m, c): v for m, row in zip(inst.models, self.eliminated.tolist())
                for c, v in zip(inst.classes, row)}

    @cached_property
    def assign(self) -> Dict[Tuple[str, str], int]:
        inst = self.instance
        return {(c, w): int(v) for c, row in zip(inst.classes, self.covered.tolist())
                for w, v in zip(inst.objects, row)}

    @cached_property
    def con(self) -> Dict[Tuple[str, Tuple[str, str]], int]:
        inst = self.instance
        out = {}
        for (a, b), ia, ib in zip(inst.ic.pairs, *inst.ic.index_pairs(inst.classes).tolist()):
            both = (self.covered[ia] & self.covered[ib]).tolist()
            out.update(((w, (a, b)), int(v)) for w, v in zip(inst.objects, both))
        return out


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
    ic.check_within(obs.classes)

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
    F, C, N = inst.shape
    return IpSolution(STATUS_INFEASIBLE, -1, nodes, np.ones((F, C), dtype=np.int8),
                      np.zeros((C, N), dtype=bool), inst)


def solve(instance: IpInstance) -> IpSolution:
    """Optimal solution, or a solution with infeasible status when the
    coverage and budget constraints cannot be met simultaneously."""
    F, C, N = instance.shape
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

    Uses only the solution's variable dictionaries plus the instance data;
    returns a list of violation descriptions (empty means clean).  The
    consideration variables are reconstructed canonically: a prediction is
    considered exactly when its (model, class) pair is kept.
    """
    problems = []
    if sol.status != STATUS_OPTIMAL:
        return ["solution is not optimal-status; nothing to audit"]

    for dic, name in ((sol.elim, "elim"), (sol.assign, "assign"), (sol.con, "con")):
        for k, v in dic.items():
            if v not in (0, 1):
                problems.append(f"{name}[{k}] = {v} is not binary")

    oi = {o: i for i, o in enumerate(instance.objects)}
    mi = {m: i for i, m in enumerate(instance.models)}
    ci = {c: i for i, c in enumerate(instance.classes)}
    pred = instance.pred

    for f in instance.models:
        for c in instance.classes:
            if (f, c) not in sol.elim:
                problems.append(f"missing elim[({f!r}, {c!r})]")
    for c in instance.classes:
        for w in instance.objects:
            if (c, w) not in sol.assign:
                problems.append(f"missing assign[({c!r}, {w!r})]")
    if problems:
        return problems

    # consideration: x[w, f, c] = pred * (1 - elim); bounded by acceptance
    x = {}
    for f in instance.models:
        for c in instance.classes:
            e = sol.elim[(f, c)]
            for w in instance.objects:
                p = int(pred[mi[f], ci[c], oi[w]])
                xv = p * (1 - e)
                x[(w, f, c)] = xv
                if xv > 1 - e:
                    problems.append(f"x[{w},{f},{c}]={xv} exceeds kept bound 1-elim={1 - e}")

    for c in instance.classes:
        for w in instance.objects:
            a = sol.assign[(c, w)]
            support = [x[(w, f, c)] for f in instance.models
                       if pred[mi[f], ci[c], oi[w]]]
            if support and a < max(support):
                problems.append(f"assign[({c!r},{w!r})]={a} below a considered prediction")
            if a > sum(support):
                problems.append(f"assign[({c!r},{w!r})]={a} exceeds its support {sum(support)}")

    total_con = 0
    for a_cls, b_cls in instance.ic.pairs:
        for w in instance.objects:
            key = (w, (a_cls, b_cls))
            if key not in sol.con:
                problems.append(f"missing con[{key}]")
                continue
            cv = sol.con[key]
            lhs = sol.assign[(a_cls, w)] + sol.assign[(b_cls, w)] - 1
            if cv < lhs:
                problems.append(f"con[{key}]={cv} below assign overlap {lhs}")
            total_con += cv

    coverable = instance.coverable
    for w in instance.objects:
        if coverable[oi[w]]:
            if sum(sol.assign[(c, w)] for c in instance.classes) < 1:
                problems.append(f"coverable object {w!r} has no assignment")

    if total_con > instance.delta_budget:
        problems.append(f"violation count {total_con} exceeds budget {instance.delta_budget}")

    if sol.objective != sum(sol.assign.values()):
        problems.append(f"objective {sol.objective} != assigned atom count {sum(sol.assign.values())}")
    return problems
