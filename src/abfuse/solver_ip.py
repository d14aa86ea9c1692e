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

from . import kernels
from .deduction import IntegrityConstraintSet, count_violations, violation_budget
from .model_io import ObservationSet, flags

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"


class IpInstance:
    """An observation set packed for the search over ``models``, ``classes``
    and ``objects``: ``start``, the search's root state, holds each supported
    (model, class) pair's objects; ``delta_budget`` is computed from ``delta``."""

    def __init__(self, objects: Tuple[str, ...], models: Tuple[str, ...],
                 classes: Tuple[str, ...], ic: IntegrityConstraintSet, delta: float,
                 normalizer_mode: str, directed_ground_rules: bool, start: kernels.SearchStart):
        self.objects, self.models, self.classes, self.ic = objects, models, classes, ic
        self.delta, self.start = delta, start
        self.normalizer_mode, self.directed_ground_rules = normalizer_mode, directed_ground_rules
        self.delta_budget = violation_budget(delta, len(objects), ic, normalizer_mode,
                                             directed_ground_rules)

    def with_delta(self, delta: float) -> "IpInstance":
        """The same instance at another ``delta``, sharing its root state."""
        return IpInstance(self.objects, self.models, self.classes, self.ic, delta,
                          self.normalizer_mode, self.directed_ground_rules, self.start)

    @property
    def pred(self):
        """uint8 (F, C, N): whether model ``f`` predicts class ``c`` for object
        ``w``, rebuilt from ``start``; no solve reads it, so it imports numpy."""
        import numpy as np

        pred = np.zeros((len(self.models), len(self.classes), len(self.objects)), np.uint8)
        for f, c, m in zip(self.start.var_f, self.start.var_cls, self.start.var_mask):
            pred[f, c] = np.frombuffer(flags(m, len(self.objects)), np.uint8)
        return pred


class IpSolution:
    """A solution over the instance's models, classes and objects:
    ``eliminated[f][c]`` (0 or 1) is the elimination bit of each (model,
    class) pair and ``covered[c]`` the int bitset of the objects that get
    class ``c``.  An infeasible solution eliminates every pair and covers
    nothing."""

    def __init__(self, status: str, objective: int, nodes: int, eliminated: list,
                 covered: list, instance: IpInstance):
        self.status, self.objective, self.nodes = status, objective, nodes
        self.eliminated, self.covered, self.instance = eliminated, covered, instance

    def n_violations(self) -> int:
        return count_violations(self.covered, self.instance.classes, self.instance.ic)


def build_instance(obs: ObservationSet,
                   ic: IntegrityConstraintSet,
                   delta: float,
                   normalizer_mode: str = "per_object",
                   directed_ground_rules: bool = False) -> IpInstance:
    """Pack an observation set into per-pair object bitsets, the search's
    root state, at ``delta``.

    The root state does not depend on ``delta``; a caller solving one
    observation set at several deltas packs once and calls
    :meth:`IpInstance.with_delta`.
    """
    return IpInstance(obs.objects, obs.models, obs.classes, ic, delta, normalizer_mode,
                      directed_ground_rules, kernels.search_start(
                          obs.pair_masks, len(obs.classes), ic.index_pairs(obs.classes)))


def solve(instance: IpInstance) -> IpSolution:
    """Optimal solution, or a solution with infeasible status when the
    coverage and budget constraints cannot be met simultaneously.  A class
    is assigned to an object when some kept pair predicts it."""
    start, n_classes = instance.start, len(instance.classes)
    found, best_obj, _, best_mask, nodes = kernels.bnb_search(start, instance.delta_budget)

    if not found:
        return IpSolution(STATUS_INFEASIBLE, -1, nodes, [[1] * n_classes for _ in instance.models],
                          [0] * n_classes, instance)

    elim, covered = [[0] * n_classes for _ in instance.models], [0] * n_classes
    for f, c, m, bit in zip(start.var_f, start.var_cls, start.var_mask, best_mask):
        elim[f][c] = bit
        if not bit:
            covered[c] |= m
    objective = sum(b.bit_count() for b in covered)
    if objective != best_obj:
        raise AssertionError(f"search bookkeeping out of sync: {objective} != {best_obj}")
    return IpSolution(STATUS_OPTIMAL, objective, nodes, elim, covered, instance)


def audit_solution(instance: IpInstance, sol: IpSolution) -> list:
    """Re-check a solution against the constraint system.

    Reads only ``instance.pred`` and the solution's ``eliminated`` and
    ``covered``, not the search's bookkeeping; returns a list of findings
    (empty means clean).  A prediction is considered exactly when its
    (model, class) pair is kept.  Like ``pred``, it imports numpy itself.
    """
    import numpy as np

    if sol.status != STATUS_OPTIMAL:
        return ["solution is not optimal-status; nothing to audit"]
    pred = instance.pred.astype(bool)
    F, C, N = pred.shape
    elim = np.asarray(sol.eliminated)
    if elim.shape != (F, C):
        return [f"eliminated has shape {elim.shape}, not {(F, C)}"]
    if not (len(sol.covered) == C and all(type(b) is int and 0 <= b < 1 << N
                                          for b in sol.covered)):
        return [f"covered is not {C} int bitsets of {N} objects"]
    if not np.isin(elim, (0, 1)).all():
        return [f"elimination bits are not all 0 or 1: {np.unique(elim).tolist()}"]

    covered = np.frombuffer(b"".join(flags(b, N) for b in sol.covered), bool).reshape(C, N)
    classes, objects = instance.classes, instance.objects
    supported = (pred & (elim == 0)[:, :, None]).any(axis=0)
    problems = [f"covered[{classes[c]!r}, {objects[w]!r}] = 0 below a considered prediction"
                for c, w in zip(*np.nonzero(supported & ~covered))]
    problems += [f"covered[{classes[c]!r}, {objects[w]!r}] = 1 exceeds its support 0"
                 for c, w in zip(*np.nonzero(covered & ~supported))]
    problems += [f"coverable object {objects[w]!r} has no assignment"
                 for w in np.flatnonzero(pred.any(axis=(0, 1)) & ~covered.any(axis=0))]

    n_violations = sum(int((covered[a] & covered[b]).sum())
                       for a, b in instance.ic.index_pairs(classes))
    if n_violations > instance.delta_budget:
        problems.append(f"violation count {n_violations} exceeds budget {instance.delta_budget}")
    if sol.objective != int(covered.sum()):
        problems.append(f"objective {sol.objective} != assigned atom count {int(covered.sum())}")
    return problems
