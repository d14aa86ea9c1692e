"""Greedy acceptance-set search.

Visits (model, class) pairs in a fixed order.  For each pair it tries every
filter strength ``epsilon`` in the configured set, asking: if this model's
surviving predictions of this class were added to the running selection,
would the violated ground rules stay within
:func:`abfuse.deduction.violation_budget` and would the number of distinct
assignment atoms strictly grow?  The strongest-growing feasible
epsilon wins, smallest epsilon on ties; pairs that cannot grow the selection
are skipped.  Accepted predictions are never removed, so every intermediate
selection already satisfies the budget.
"""

import json
import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import kernels
from .deduction import IntegrityConstraintSet, inc_from_count, violation_budget
from .edr import RuleSet, sibling_index, split_flagged
from .model_io import InputError, ObservationSet


@dataclass(frozen=True)
class HsConfig:
    delta: float
    epsilon_set: Tuple[float, ...]
    pair_order: Optional[Tuple[Tuple[str, str], ...]] = None
    shuffle_seed: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.delta <= 1.0):
            raise InputError(f"delta must be in [0, 1]: {self.delta!r}")
        eps = tuple(sorted(set(float(e) for e in self.epsilon_set)))
        if not eps:
            raise InputError("epsilon_set must be non-empty")
        object.__setattr__(self, "epsilon_set", eps)


@dataclass(frozen=True)
class SelectionStep:
    model_id: str
    class_id: str
    chosen_epsilon: Optional[float]
    s_size_after: int
    incon_after: float


@dataclass(frozen=True)
class SelectionTrace:
    steps: Tuple[SelectionStep, ...]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.steps:
                fh.write(json.dumps({
                    "model_id": s.model_id,
                    "class_id": s.class_id,
                    "chosen_epsilon": s.chosen_epsilon,
                    "s_size_after": s.s_size_after,
                }) + "\n")


@dataclass(frozen=True)
class HsResult:
    selected: frozenset            # Observation entries
    trace: SelectionTrace
    n_atoms: int
    inconsistency: float

    def atoms(self) -> frozenset:
        return frozenset((e.class_id, e.object_id) for e in self.selected)


def _pair_order(p_raw: ObservationSet, config: HsConfig) -> list:
    if config.pair_order is not None:
        order = [tuple(p) for p in config.pair_order]
        universe = {(f, c) for f in p_raw.models for c in p_raw.classes}
        for p in order:
            if p not in universe:
                raise InputError(f"pair {p!r} outside the model/class universe")
        if len(set(order)) != len(order):
            raise InputError("pair_order contains duplicates")
        return order
    order = [(f, c) for f in sorted(p_raw.models) for c in sorted(p_raw.classes)]
    if config.shuffle_seed is not None:
        random.Random(config.shuffle_seed).shuffle(order)
    return order


def heuristic_search(p_raw: ObservationSet,
                     config: HsConfig,
                     ruleset: RuleSet,
                     ic: IntegrityConstraintSet,
                     normalizer_mode: str = "per_object",
                     directed_ground_rules: bool = False) -> HsResult:
    for a, b in ic.pairs:
        if a not in p_raw.classes or b not in p_raw.classes:
            raise InputError(f"exclusion pair ({a!r}, {b!r}) outside the class universe")

    objects = sorted(p_raw.objects)
    classes = sorted(p_raw.classes)
    oi = {o: i for i, o in enumerate(objects)}
    ci = {c: i for i, c in enumerate(classes)}
    n_objects = len(objects)
    budget = violation_budget(config.delta, n_objects, ic,
                              normalizer_mode, directed_ground_rules)

    def inconsistency(n_conf: int) -> float:
        return inc_from_count(n_conf, n_objects, ic, normalizer_mode,
                              directed_ground_rules)

    adj_off, adj_idx = kernels.pair_adjacency(
        len(classes), [(ci[a], ci[b]) for a, b in ic.pairs])
    pres = np.zeros((len(classes), n_objects), dtype=np.uint8)
    atoms = 0
    conflicts = 0

    # surviving entries per (model, class, epsilon)
    siblings = sibling_index(p_raw)
    survivors: dict = {}
    for eps in config.epsilon_set:
        kept, _ = split_flagged(p_raw.entries, ruleset, eps, siblings)
        for e in kept:
            survivors.setdefault((e.model_id, e.class_id, eps), []).append(e)

    # each pair is visited once, so a pair's entries are never already
    # selected and its atoms (one class, distinct objects) never repeat
    selected: list = []
    steps = []
    for f, c in _pair_order(p_raw, config):
        best = None  # (atoms, conflicts, eps, preds, add_c, add_w)
        for eps in config.epsilon_set:
            preds = survivors.get((f, c, eps))
            if not preds:
                continue
            add_c = np.full(len(preds), ci[c], dtype=np.int64)
            add_w = np.array([oi[e.object_id] for e in preds], dtype=np.int64)
            cand_atoms, cand_conf = kernels.union_stats(
                pres, atoms, conflicts, add_c, add_w, adj_off, adj_idx)
            if cand_atoms <= atoms or cand_conf > budget:
                continue
            if best is None or cand_atoms > best[0]:
                best = (cand_atoms, cand_conf, eps, preds, add_c, add_w)
        chosen: Optional[float] = None
        if best is not None:
            atoms, conflicts, chosen, preds, add_c, add_w = best
            kernels.commit_atoms(pres, add_c, add_w)
            selected.extend(preds)
        steps.append(SelectionStep(f, c, chosen, atoms, inconsistency(conflicts)))

    return HsResult(frozenset(selected), SelectionTrace(tuple(steps)),
                    atoms, inconsistency(conflicts))
