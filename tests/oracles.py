"""Independent restatements of production computations, used as oracles.

Each helper recomputes from first principles what the pipeline computes
incrementally or in bulk, so tests can compare the two.
"""

from typing import Iterable, Mapping

import numpy as np

from abfuse.deduction import IntegrityConstraintSet, count_inc
from abfuse.edr import RuleSet, sibling_index
from abfuse.model_io import Observation, ObservationSet


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
                     and not rule.flags(e, siblings[e.object_id]))


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
            if rule.flags(e, siblings[e.object_id]):
                n_flagged += 1
    return n_flagged / n_correct if n_correct else 0.0
