"""Greedy acceptance-set search.

Visits the (model, class) pairs in (model, class) order.  For each pair it tries every
filter strength ``epsilon`` in the configured set, asking: if this model's
surviving predictions of this class were added to the running selection,
would the violated ground rules stay within
:func:`abfuse.deduction.violation_budget` and would the number of distinct
assignment atoms strictly grow?  The strongest-growing feasible
epsilon wins, smallest epsilon on ties; pairs that cannot grow the selection
are skipped.  Accepted predictions are never removed, so every intermediate
selection already satisfies the budget.
"""

from itertools import product
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .deduction import IntegrityConstraintSet, inc_from_count, violation_budget
from .edr import RuleSet, split_flagged
from .model_io import InputError, ObservationSet, write_jsonl


class HsConfig:
    """The budget ``delta`` and the filter strengths, held sorted and
    deduplicated in ``epsilon_set``."""

    def __init__(self, delta: float, epsilon_set: Sequence[float]):
        if not (0.0 <= delta <= 1.0):
            raise InputError(f"delta must be in [0, 1]: {delta!r}")
        self.delta = delta
        self.epsilon_set = tuple(sorted(set(float(e) for e in epsilon_set)))
        if not self.epsilon_set:
            raise InputError("epsilon_set must be non-empty")


class SelectionStep(NamedTuple):
    model_id: str
    class_id: str
    chosen_epsilon: Optional[float]
    s_size_after: int
    incon_after: float


class SelectionTrace(NamedTuple):
    steps: Tuple[SelectionStep, ...]

    def write(self, path: str) -> None:
        write_jsonl(path, ({"model_id": s.model_id, "class_id": s.class_id,
                            "chosen_epsilon": s.chosen_epsilon,
                            "s_size_after": s.s_size_after} for s in self.steps))


class HsResult:
    """The accepted predictions as ascending int64 ``rows`` of the searched
    set ``obs``."""

    def __init__(self, obs: ObservationSet, rows: np.ndarray, trace: SelectionTrace,
                 n_atoms: int, inconsistency: float):
        self.obs, self.rows, self.trace = obs, rows, trace
        self.n_atoms, self.inconsistency = n_atoms, inconsistency

    def atoms(self) -> frozenset:
        c, w = np.nonzero(self.obs.coverage(self.rows))
        return frozenset(zip(map(self.obs.classes.__getitem__, c.tolist()),
                             map(self.obs.objects.__getitem__, w.tolist())))


def heuristic_search(p_raw: ObservationSet,
                     config: HsConfig,
                     ruleset: RuleSet,
                     ic: IntegrityConstraintSet,
                     normalizer_mode: str = "per_object",
                     directed_ground_rules: bool = False,
                     flagged: Optional[Mapping[float, np.ndarray]] = None) -> HsResult:
    """``flagged`` maps each epsilon of ``config`` to its :func:`split_flagged`
    mask, for a caller that already has them; missing ones are computed."""
    ic.check_within(p_raw.classes)

    n_objects = len(p_raw.objects)
    budget = violation_budget(config.delta, n_objects, ic,
                              normalizer_mode, directed_ground_rules)

    def inconsistency(n_conf: int) -> float:
        return inc_from_count(n_conf, n_objects, ic, normalizer_mode,
                              directed_ground_rules)

    nbrs = kernels.neighbours(ic.index_pairs(p_raw.classes), len(p_raw.classes))
    pres = np.zeros((len(p_raw.classes), n_objects), dtype=np.uint8)
    atoms = 0
    conflicts = 0

    # rows surviving the rules per epsilon, with the positions where each
    # (model, class) pair's run of rows starts among them
    flagged = flagged or {}
    survivors = []
    for eps in config.epsilon_set:
        rows = np.flatnonzero(~(flagged[eps] if eps in flagged
                                else split_flagged(p_raw, ruleset, eps)))
        survivors.append((eps, rows, p_raw.obj[rows],
                          np.searchsorted(rows, p_raw.pair_start).tolist()))

    # each pair is visited once, so a pair's entries are never already
    # selected and its atoms (one class, distinct objects) never repeat;
    # ``p`` is the pair's index into ``cut``
    selected = [np.zeros(0, dtype=np.int64)]
    steps = []
    n_classes = len(p_raw.classes)
    for p, (m, k) in enumerate(product(p_raw.models, p_raw.classes)):
        c = p % n_classes
        best = None  # (atoms, conflicts, eps, survivor rows, their objects)
        for eps, rows, objs, cut in survivors:
            lo, hi = cut[p], cut[p + 1]
            if lo == hi:
                continue
            cand_atoms, cand_conf = kernels.union_stats(
                pres, atoms, conflicts, c, objs[lo:hi], nbrs[c])
            if cand_atoms <= atoms or cand_conf > budget:
                continue
            if best is None or cand_atoms > best[0]:
                best = (cand_atoms, cand_conf, eps, rows[lo:hi], objs[lo:hi])
        chosen: Optional[float] = None
        if best is not None:
            atoms, conflicts, chosen, idx, add_w = best
            kernels.commit_atoms(pres, c, add_w)
            selected.append(idx)
        steps.append(SelectionStep(m, k, chosen, atoms, inconsistency(conflicts)))

    return HsResult(p_raw, np.sort(np.concatenate(selected)), SelectionTrace(tuple(steps)),
                    atoms, inconsistency(conflicts))
