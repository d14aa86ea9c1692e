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

The caller filters: each epsilon comes with its :func:`abfuse.edr.apply_rules`
survivors.  The selection is held as the exact search holds its coverage, one
object bitset per class (:mod:`abfuse.kernels`), and so is each pair's run.
"""

from itertools import product
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

from . import kernels
from .deduction import IntegrityConstraintSet, inc_from_count, violation_budget
from .model_io import ObservationSet, members, unit_grid, write_jsonl


class HsConfig:
    """The budget ``delta``, range-checked by :func:`violation_budget` when a
    search starts, and the filter strengths, held sorted and deduplicated in
    ``epsilon_set``."""

    def __init__(self, delta: float, epsilon_set: Sequence[float]):
        self.delta = delta
        self.epsilon_set = unit_grid(epsilon_set, "epsilon set")


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
    """The accepted predictions as ascending ``rows`` of the searched set
    ``obs``, and ``cover``, their coverage; ``budget`` is the violation
    count the search kept within."""

    def __init__(self, obs: ObservationSet, rows: list, cover: list, trace: SelectionTrace,
                 n_atoms: int, inconsistency: float, budget: int):
        self.obs, self.rows, self.cover, self.trace = obs, rows, cover, trace
        self.n_atoms, self.inconsistency, self.budget = n_atoms, inconsistency, budget

    def atoms(self) -> frozenset:
        return frozenset((k, self.obs.objects[w]) for k, b in zip(self.obs.classes, self.cover)
                         for w in members(b))


def heuristic_search(p_raw: ObservationSet,
                     config: HsConfig,
                     survivors: Mapping[float, tuple],
                     ic: IntegrityConstraintSet,
                     normalizer_mode: str = "per_object",
                     directed_ground_rules: bool = False) -> HsResult:
    """``survivors`` maps each epsilon of ``config`` to its filter of
    ``p_raw``, ``(kept, flagged, rows)`` as :func:`abfuse.edr.apply_rules`
    returns it."""
    n_objects, n_classes = len(p_raw.objects), len(p_raw.classes)
    budget = violation_budget(config.delta, n_objects, ic,
                              normalizer_mode, directed_ground_rules)

    def inconsistency(n_conf: int) -> float:
        return inc_from_count(n_conf, n_objects, ic, normalizer_mode,
                              directed_ground_rules)

    nbrs = kernels.neighbours(ic.index_pairs(p_raw.classes), n_classes)
    cover = [0] * n_classes
    atoms = conflicts = 0

    # ``p`` indexes a pair's mask and its run of rows
    accepted = []
    steps = []
    for p, (m, k) in enumerate(product(p_raw.models, p_raw.classes)):
        c = p % n_classes
        best = None  # (atoms, conflicts, eps, its surviving set and back-map)
        for eps in config.epsilon_set:
            kept, _, rows = survivors[eps]
            add = kept.pair_masks[p]
            if not add:
                continue
            cand_atoms, cand_conf = kernels.union_stats(
                cover, atoms, conflicts, c, add, nbrs[c])
            if cand_atoms <= atoms or cand_conf > budget:
                continue
            if best is None or cand_atoms > best[0]:
                best = (cand_atoms, cand_conf, eps, kept, rows)
        chosen: Optional[float] = None
        if best is not None:
            atoms, conflicts, chosen, kept, rows = best
            kernels.commit_atoms(cover, c, kept.pair_masks[p])
            accepted += rows[kept.pair_start[p]:kept.pair_start[p + 1]]
        steps.append(SelectionStep(m, k, chosen, atoms, inconsistency(conflicts)))

    return HsResult(p_raw, accepted, cover, SelectionTrace(tuple(steps)),
                    atoms, inconsistency(conflicts), budget)
