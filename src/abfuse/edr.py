"""Error-detection rules.

A rule is attached to one (model, class) pair and is a tuple of conditions,
read as a disjunction: any firing condition flags that model's prediction of
that class as an error.  Rules are learned per target false-rate budget
``epsilon``: greedy selection keeps adding the condition with the highest
standalone precision (share of the entries it flags that are actually
wrong) as long as the cumulative share of *correct* predictions flagged
stays within ``epsilon`` and at least one new wrong prediction gets caught.

Learning over an ascending epsilon grid is warm-started: the rule for a
larger budget extends the rule for the smaller one, so the set of flagged
predictions only grows with epsilon.

A rule is evaluated, once folded (:func:`_fold`), as a row bitset over
an :class:`ObservationSet`, in one pass over one (model, class) pair's
rows; the learner evaluates each candidate as a one-condition rule, and
:func:`apply_rules`, the one filter both searches take, every pair's rule.
"""

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .model_io import (InputError, ObservationSet, Truth, flags, members, pack, read_jsonl,
                       unit_grid, write_jsonl)

DEFAULT_EPSILON_GRID = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

_QUANTILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

_EPS = 1e-12


class Condition:
    """``disagree_with`` fires where ``model`` predicts another class for the
    object; ``confidence_below`` where the confidence is below ``threshold``."""

    def __init__(self, kind: str, model: Optional[str] = None,
                 threshold: Optional[float] = None):
        if kind == "disagree_with":
            if not model:
                raise InputError("disagree_with needs a model id")
        elif kind == "confidence_below":
            if threshold is None or not (0.0 <= threshold <= 1.0):
                raise InputError(f"confidence_below needs a threshold in [0, 1]: {threshold!r}")
        else:
            raise InputError(f"unknown condition kind {kind!r}")
        self.kind, self.model, self.threshold = kind, model, threshold

    def __eq__(self, other) -> bool:
        return isinstance(other, Condition) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((self.kind, self.model, self.threshold))

    def to_json(self) -> dict:
        if self.kind == "disagree_with":
            return {"kind": self.kind, "model": self.model}
        return {"kind": self.kind, "threshold": self.threshold}

    @classmethod
    def from_json(cls, raw: Mapping) -> "Condition":
        if not isinstance(raw, Mapping):
            raise InputError(f"condition must be a JSON object: {raw!r}")
        kind = raw.get("kind")
        if kind == "disagree_with":
            return cls(kind, model=str(raw["model"]))
        if kind == "confidence_below":
            return cls(kind, threshold=float(raw["threshold"]))
        raise InputError(f"unknown condition kind {kind!r}")


class RuleSet:
    """Learned rules on a fixed grid: ``rules`` maps each (model, class, epsilon)
    key to its rule, a tuple of conditions; a key it lacks has the empty rule."""

    def __init__(self, epsilon_grid: Sequence[float],
                 rules: Optional[Dict[Tuple[str, str, float], Tuple[Condition, ...]]] = None):
        self.epsilon_grid = unit_grid(epsilon_grid, "epsilon grid")
        self.rules = {} if rules is None else rules

    def _grid_value(self, epsilon: float) -> float:
        for e in self.epsilon_grid:
            if abs(e - epsilon) <= _EPS:
                return e
        raise InputError(f"epsilon {epsilon!r} not on the learned grid {self.epsilon_grid}")

    def rule_for(self, model_id: str, class_id: str, epsilon: float) -> Tuple[Condition, ...]:
        return self.rules.get((model_id, class_id, self._grid_value(epsilon)), ())

    def save(self, path: str) -> None:
        write_jsonl(path, ({"model_id": m, "class_id": c, "epsilon": e,
                            "conditions": [cond.to_json() for cond in self.rules[(m, c, e)]]}
                           for m, c, e in sorted(self.rules)))

    @classmethod
    def load(cls, path: str) -> "RuleSet":
        rules: dict = {}
        grid = set()
        for lineno, rec in read_jsonl(path):
            try:
                m = str(rec["model_id"])
                c = str(rec["class_id"])
                (e,) = unit_grid((rec["epsilon"],), "epsilon")
                conds = tuple(Condition.from_json(p) for p in rec["conditions"])
            # OverflowError: an integer too large for a float; InputError,
            # an epsilon out of [0, 1], is a ValueError
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: bad rule record: {exc}") from exc
            key = (m, c, e)
            if key in rules:
                raise InputError(f"{path}:{lineno}: duplicate rule for {key}")
            rules[key] = conds
            grid.add(e)
        if not grid:
            raise InputError(f"{path}: no rules found")
        return cls(grid, rules)


def _fold(conditions: Sequence[Condition]) -> tuple:
    """``(threshold, models)``: a rule's conditions as one confidence test
    against the largest ``confidence_below`` threshold (``-inf`` without
    one) and the set of its ``disagree_with`` models."""
    threshold, models = -math.inf, []
    for cond in conditions:
        if cond.kind == "disagree_with":
            models.append(cond.model)
        elif cond.threshold > threshold:
            threshold = cond.threshold
    return threshold, frozenset(models)


def _rule_mask(obs: ObservationSet, f: int, c: int, threshold: float,
               models: frozenset) -> int:
    """The rows of model ``f``'s predictions of class ``c`` that the folded
    rule ``(threshold, models)`` flags, as a row bitset of ``obs``: the
    confidence is below ``threshold``, or one of ``models`` predicts
    another class for the object."""
    rows = obs.pair_rows(f, c)
    other, n = 0, len(obs.classes)
    for m in models:
        if m in obs.models:
            g = obs.models.index(m) * n
            # a model predicts one class per object, so the sum of its masks is their union
            other |= sum(obs.pair_masks[g:g + n]) & ~obs.pair_masks[g + c]
    elsewhere = flags(other, len(obs.objects))
    return pack([x < threshold or elsewhere[w]
                 for x, w in zip(obs.confidence[rows], obs.obj[rows])]) << rows.start


def _linear_quantiles(values: Sequence[float], qs: Sequence[float]) -> list:
    """``np.quantile(values, qs)`` with numpy's default 'linear' rule, bit
    for bit, for finite ``values`` and ``qs`` in [0, 1]: the same virtual
    index, neighbours and two-sided interpolation on a sorted copy, one
    float operation for each of numpy's."""
    s = sorted(values)
    out = []
    for q in qs:
        virtual = (len(s) - 1) * q
        # the last value past the end, as numpy does
        lo = -1 if virtual >= len(s) - 1 else math.floor(virtual)
        gamma = virtual - lo
        a, b = s[lo], s[-1 if lo == -1 else lo + 1]
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


def generate_candidates(train: ObservationSet) -> Dict[Tuple[str, str], Tuple[Condition, ...]]:
    """Deterministic candidate pool per (model, class).

    Disagreement conditions against every other model (model-id order), then
    confidence thresholds at the ``_QUANTILES`` of the model's training
    confidences (ascending, deduplicated).
    """
    thresholds: Dict[str, Tuple[float, ...]] = {}
    start, n_classes = train.pair_start, len(train.classes)
    for f, m in enumerate(train.models):
        confs = train.confidence[start[f * n_classes]:start[(f + 1) * n_classes]]
        thresholds[m] = tuple(sorted(set(round(q, 9) for q in _linear_quantiles(
            confs, _QUANTILES)))) if confs else ()

    out: Dict[Tuple[str, str], Tuple[Condition, ...]] = {}
    for f in train.models:
        pool = [Condition("disagree_with", model=g) for g in train.models if g != f]
        pool.extend(Condition("confidence_below", threshold=t) for t in thresholds[f])
        for c in train.classes:
            out[(f, c)] = tuple(pool)
    return out


def _learn_pair(correct: int, fired: list, grid: Sequence[float]) -> list:
    """Greedy condition selection for one (model, class) pair, for each
    budget of the ascending ``grid``.

    ``fired[i]`` is the set of entries candidate ``i`` fires on and
    ``correct`` the set of correct entries, as row bitsets.  Candidates are
    ranked by standalone precision -- the share of the entries a candidate
    flags that are actually wrong -- which is a fixed per-candidate
    quantity; only the budget headroom and the requirement to catch
    something new change as conditions accumulate.  Each step weighs every
    candidate and takes the first maximum, so ties go to the earlier
    candidate in pool order.  Each budget extends the selection of the one
    before it; returns the selected candidate indices per budget.
    """
    hit_wrong = [m & ~correct for m in fired]
    hit_correct = [m & correct for m in fired]
    # the floor of 1 only meets candidates that never fire, never admissible
    precision = [w.bit_count() / max(m.bit_count(), 1) for w, m in zip(hit_wrong, fired)]
    n_correct = correct.bit_count()
    chosen: list = []
    flagged = 0
    out = []
    for epsilon in grid:
        limit = epsilon * n_correct + _EPS
        while True:
            # a chosen candidate catches no new wrong entry, so is not admissible
            base, best, top = (flagged & correct).bit_count(), None, -1.0
            for i, p in enumerate(precision):
                if (p > top and hit_wrong[i] & ~flagged
                        and base + (hit_correct[i] & ~flagged).bit_count() <= limit):
                    best, top = i, p
            if best is None:
                break
            chosen.append(best)
            flagged |= fired[best]
        out.append(list(chosen))
    return out


def learn_ruleset(train: ObservationSet,
                  gt_labels: Mapping[str, str],
                  epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID,
                  candidates: Optional[Mapping[Tuple[str, str], Tuple[Condition, ...]]] = None
                  ) -> RuleSet:
    """Learn rules for every (model, class) pair across the epsilon grid.

    Each candidate's firing pattern comes from the same masks
    :func:`apply_rules` evaluates.
    """
    for w in sorted(set(train.obj)):
        if train.objects[w] not in gt_labels:
            raise InputError(f"training object {train.objects[w]!r} has no ground-truth label")
    if candidates is None:
        candidates = generate_candidates(train)
    ruleset = RuleSet(epsilon_grid)
    grid = ruleset.epsilon_grid
    labelled = [flags(b, len(train.objects))
                for b in Truth.of(gt_labels, train.objects, train.classes).bits]

    for f, m in enumerate(train.models):
        for c, k in enumerate(train.classes):
            pool = tuple(candidates.get((m, k), ()))
            rows = train.pair_rows(f, c)
            correct = pack(map(labelled[c].__getitem__, train.obj[rows])) << rows.start
            fired = [_rule_mask(train, f, c, *_fold((cond,))) for cond in pool]
            for eps, chosen in zip(grid, _learn_pair(correct, fired, grid)):
                ruleset.rules[(m, k, eps)] = tuple(pool[i] for i in chosen)
    return ruleset


def apply_rules(obs: ObservationSet,
                ruleset: RuleSet,
                epsilon: float) -> Tuple[ObservationSet, list, list]:
    """Filter ``obs`` with the rules learned for ``epsilon``: ``(kept,
    flagged, rows)``, the surviving set on the same universe, the ascending
    rows of ``obs`` flagged as errors (a condition of their pair's rule
    fires), and the row of ``obs`` behind each row of ``kept``."""
    flagged = 0
    for f, m in enumerate(obs.models):
        for c, k in enumerate(obs.classes):
            rows = obs.pair_rows(f, c)
            conditions = ruleset.rule_for(m, k, epsilon)
            if rows.stop == rows.start or not conditions:
                continue
            flagged |= _rule_mask(obs, f, c, *_fold(conditions))
    rows = members(((1 << len(obs.obj)) - 1) & ~flagged)
    return obs.subset(rows), members(flagged), rows
