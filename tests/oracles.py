"""Independent restatements of production computations, used as oracles.

Each helper recomputes from first principles what the pipeline computes
incrementally or in bulk, so tests can compare the two.
"""

from typing import Dict, Iterable, Mapping

import numpy as np

from abfuse import solver_ip
from abfuse.deduction import IntegrityConstraintSet, count_inc
from abfuse.edr import (Condition, ErrorRule, RuleSet, _learn_pair,
                        generate_candidates)
from abfuse.model_io import InputError, Observation, ObservationSet


# ------------------------------------------------ per-entry rule evaluation
# The production filter evaluates rules as masks over ``ObservationSet.view``
# (``abfuse.edr.split_flagged``); these helpers evaluate them one entry at a
# time from the entry's siblings, straight from the rule definitions.


def sibling_index(obs: ObservationSet) -> Dict[str, Dict[str, Observation]]:
    """object_id -> {model_id -> entry}."""
    out: Dict[str, Dict[str, Observation]] = {}
    for e in obs.entries:
        out.setdefault(e.object_id, {})[e.model_id] = e
    return out


def fires(cond: Condition, entry: Observation,
          siblings: Mapping[str, Observation]) -> bool:
    """Whether ``cond`` fires on one entry; ``siblings`` maps model -> entry
    for the same object."""
    if cond.kind == "disagree_with":
        other = siblings.get(cond.model)
        return other is not None and other.class_id != entry.class_id
    if cond.kind == "confidence_below":
        return entry.confidence < cond.threshold
    if cond.kind == "class_is":
        return any(s.class_id == cond.class_id for m, s in siblings.items()
                   if m != entry.model_id)
    return all(fires(p, entry, siblings) for p in cond.parts)


def flags(rule: ErrorRule, entry: Observation,
          siblings: Mapping[str, Observation]) -> bool:
    return any(fires(c, entry, siblings) for c in rule.conditions)


def learn_ruleset_reference(train: ObservationSet, gt_labels: Mapping[str, str],
                            epsilon_grid) -> RuleSet:
    """``learn_ruleset`` with each candidate's firing pattern evaluated entry
    by entry (entries in sorted order) instead of as masks."""
    candidates = generate_candidates(train)
    siblings = sibling_index(train)
    grid = tuple(sorted(set(float(e) for e in epsilon_grid)))
    ruleset = RuleSet(grid)
    for f in sorted(train.models):
        for c in sorted(train.classes):
            pool = candidates[(f, c)]
            entries = sorted(e for e in train.entries
                             if (e.model_id, e.class_id) == (f, c))
            correct = np.array([gt_labels[e.object_id] == c for e in entries], dtype=bool)
            fired = np.array([[fires(cond, e, siblings[e.object_id]) for e in entries]
                              for cond in pool], dtype=bool).reshape(len(pool), len(entries))
            chosen: list = []
            for eps in grid:
                chosen = _learn_pair(correct, fired, eps, chosen)
                ruleset.rules[(f, c, eps)] = ErrorRule(
                    f, c, tuple(pool[i] for i in chosen))
    return ruleset


def count_conflicts(pres, ic_a, ic_b):
    """Number of (object, pair) mutual-exclusion violations in ``pres``."""
    occ = pres != 0
    return int(np.logical_and(occ[ic_a], occ[ic_b]).sum())


def get_filtered_preds(model_id: str, class_id: str, epsilon: float,
                       p_raw: ObservationSet, ruleset: RuleSet) -> frozenset:
    """Model's predictions of one class surviving the epsilon-budget rule."""
    siblings = sibling_index(p_raw)
    rule = ruleset.rule_for(model_id, class_id, epsilon)
    return frozenset(e for e in p_raw.entries
                     if (e.model_id, e.class_id) == (model_id, class_id)
                     and not flags(rule, e, siblings[e.object_id]))


def calc_incon(entries: Iterable[Observation],
               ic: IntegrityConstraintSet,
               normalizer_mode: str = "per_object",
               *,
               n_objects: int,
               directed_ground_rules: bool = False) -> float:
    """Inconsistency of a selection, measured on its distinct atoms."""
    atoms = {(e.class_id, e.object_id) for e in entries}
    return count_inc(atoms, ic, normalizer_mode,
                     n_objects=n_objects,
                     directed_ground_rules=directed_ground_rules)


def flag_rate_on_correct(train: ObservationSet,
                         gt_labels: Mapping[str, str],
                         ruleset: RuleSet,
                         epsilon: float,
                         model_id: str,
                         class_id: str) -> float:
    """Share of correct training predictions of (model, class) flagged at epsilon."""
    siblings = sibling_index(train)
    rule = ruleset.rule_for(model_id, class_id, epsilon)
    n_correct = 0
    n_flagged = 0
    for e in train.entries:
        if e.model_id != model_id or e.class_id != class_id:
            continue
        if gt_labels.get(e.object_id) == class_id:
            n_correct += 1
            if flags(rule, e, siblings[e.object_id]):
                n_flagged += 1
    return n_flagged / n_correct if n_correct else 0.0


def brute_force_optimal(instance: solver_ip.IpInstance,
                        max_pairs: int = 12) -> solver_ip.IpSolution:
    """Exhaustive reference solver for tiny instances.

    Enumerates every elimination pattern over all (model, class) pairs and
    evaluates it with plain numpy, independent of the search kernels.  Ties
    prefer fewer eliminations, then the lexicographically smallest set of
    eliminated pairs in (model, class) order.
    """
    F, C, N = instance.shape
    n = F * C
    if n > max_pairs:
        raise InputError(f"brute force limited to {max_pairs} pairs, got {n}")

    pred = instance.pred.astype(bool)
    coverable = instance.coverable.astype(bool)
    pairs_idx = solver_ip._ic_index_pairs(instance)

    best = None  # (objective, n_elim, bits_tuple)
    for mask in range(1 << n):
        bits = [(mask >> k) & 1 for k in range(n)]
        elim_fc = np.array(bits, dtype=bool).reshape(F, C)
        covered = np.logical_and(pred, ~elim_fc[:, :, None]).any(axis=0)
        if not covered.any(axis=0)[coverable].all():
            continue
        viol = sum(int(np.logical_and(covered[a], covered[b]).sum())
                   for a, b in pairs_idx)
        if viol > instance.delta_budget:
            continue
        elim_idx = tuple(k for k in range(n) if bits[k])
        key = (-int(covered.sum()), len(elim_idx), elim_idx)
        if best is None or key < best:
            best = key
    if best is None:
        return solver_ip._infeasible(instance, 0)
    elim_fc = np.zeros(n, dtype=np.int8)
    elim_fc[list(best[2])] = 1
    return solver_ip._solution_from_elim(instance, elim_fc.reshape(F, C),
                                          solver_ip.STATUS_OPTIMAL, 0)
