"""Error-detection rules.

A rule is attached to one (model, class) pair and is a disjunction of
conditions; any firing condition flags that model's prediction of that class
as an error.  Rules are learned per target false-rate budget ``epsilon``:
greedy selection keeps adding the condition with the highest standalone
precision (share of the entries it flags that are actually wrong) as long as
the cumulative share of *correct* predictions flagged stays within
``epsilon`` and at least one new wrong prediction gets caught.

Learning over an ascending epsilon grid is warm-started: the rule for a
larger budget extends the rule for the smaller one, so the set of flagged
predictions only grows with epsilon.

Conditions are evaluated as boolean masks over the rows of an
:class:`ObservationSet`, one (model, class) pair at a time; learning and
filtering share that evaluator.
"""

from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model_io import InputError, ObservationSet, Truth, read_jsonl, write_jsonl

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


class ErrorRule(NamedTuple):
    model_id: str
    class_id: str
    conditions: Tuple[Condition, ...] = ()


class RuleSet:
    """Learned rules for every (model, class, epsilon) on a fixed grid."""

    def __init__(self, epsilon_grid: Sequence[float],
                 rules: Optional[Dict[Tuple[str, str, float], ErrorRule]] = None):
        grid = tuple(sorted(set(float(e) for e in epsilon_grid)))
        if not grid:
            raise InputError("epsilon grid must be non-empty")
        for e in grid:
            if not (0.0 <= e <= 1.0):
                raise InputError(f"epsilon out of [0, 1]: {e!r}")
        self.epsilon_grid = grid
        self.rules = {} if rules is None else rules

    def _grid_value(self, epsilon: float) -> float:
        for e in self.epsilon_grid:
            if abs(e - epsilon) <= _EPS:
                return e
        raise InputError(f"epsilon {epsilon!r} not on the learned grid {self.epsilon_grid}")

    def rule_for(self, model_id: str, class_id: str, epsilon: float) -> ErrorRule:
        e = self._grid_value(epsilon)
        return self.rules.get((model_id, class_id, e),
                              ErrorRule(model_id, class_id, ()))

    def save(self, path: str) -> None:
        write_jsonl(path, ({"model_id": m, "class_id": c, "epsilon": e,
                            "conditions": [cond.to_json() for cond in
                                           self.rules[(m, c, e)].conditions]}
                           for m, c, e in sorted(self.rules)))

    @classmethod
    def load(cls, path: str) -> "RuleSet":
        rules: dict = {}
        grid = set()
        for lineno, rec in read_jsonl(path):
            try:
                m = str(rec["model_id"])
                c = str(rec["class_id"])
                e = float(rec["epsilon"])
                conds = tuple(Condition.from_json(p) for p in rec["conditions"])
            # OverflowError: an integer too large for a float
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: bad rule record: {exc}") from exc
            key = (m, c, e)
            if key in rules:
                raise InputError(f"{path}:{lineno}: duplicate rule for {key}")
            rules[key] = ErrorRule(m, c, conds)
            grid.add(e)
        if not grid:
            raise InputError(f"{path}: no rules found")
        return cls(tuple(sorted(grid)), rules)


def _condition_mask(cond: Condition, obs: ObservationSet, rows: slice) -> np.ndarray:
    """Boolean mask of where ``cond`` fires on the rows ``rows`` of ``obs``,
    which all hold one (model, class) pair's predictions."""
    if cond.kind == "confidence_below":
        return obs.confidence[rows] < cond.threshold
    # disagree_with: the other model's prediction for the object, of another class
    obj = obs.obj[rows]
    if cond.model not in obs.models:
        return np.zeros(obj.shape, dtype=bool)
    other = obs.grid[obs.models.index(cond.model), obj]
    return (other != -1) & (other != obs.cls[rows])


def _linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """``np.quantile(values, qs)`` with numpy's default 'linear' rule, bit
    for bit, for finite ``values`` and ``qs`` in [0, 1]: the same virtual
    index, neighbours and two-sided interpolation on a sorted copy.
    ``np.quantile`` itself calls ``np.unique``, which imports ``numpy.ma``."""
    s = np.sort(values)
    virtual = (s.size - 1) * np.asarray(qs, dtype=np.float64)
    lo = np.floor(virtual)
    top = virtual >= s.size - 1
    lo[top] = -1                            # the last value, as numpy does
    gamma = virtual - lo
    i = lo.astype(np.intp)
    j = i + 1
    j[top] = -1
    a, b = s[i], s[j]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def generate_candidates(train: ObservationSet,
                        quantiles: Sequence[float] = _QUANTILES
                        ) -> Dict[Tuple[str, str], Tuple[Condition, ...]]:
    """Deterministic candidate pool per (model, class).

    Disagreement conditions against every other model (model-id order), then
    confidence thresholds at the given quantiles of the model's training
    confidences (ascending, deduplicated).
    """
    thresholds: Dict[str, Tuple[float, ...]] = {}
    for f, m in enumerate(train.models):
        confs = train.confidence[train.model == f]
        if confs.size:
            qs = _linear_quantiles(confs, quantiles)
            thresholds[m] = tuple(sorted(set(round(float(q), 9) for q in qs)))
        else:
            thresholds[m] = ()

    out: Dict[Tuple[str, str], Tuple[Condition, ...]] = {}
    for f in train.models:
        pool = [Condition("disagree_with", model=g) for g in train.models if g != f]
        pool.extend(Condition("confidence_below", threshold=t) for t in thresholds[f])
        for c in train.classes:
            out[(f, c)] = tuple(pool)
    return out


def _learn_pair(correct: np.ndarray,
                fired: np.ndarray,
                grid: Sequence[float]) -> list:
    """Greedy condition selection for one (model, class) pair, for each
    budget of the ascending ``grid``.

    ``fired[i, j]`` says whether candidate ``i`` fires on entry ``j``.
    Candidates are ranked by standalone precision -- the share of the
    entries a candidate flags that are actually wrong -- which is a fixed
    per-candidate quantity; only the budget headroom and the requirement to
    catch something new change as conditions accumulate.  Each step weighs
    every candidate at once and takes the first maximum, so ties go to the
    earlier candidate in pool order.  Each budget extends the selection of
    the one before it; returns the selected candidate indices per budget.
    """
    hit_wrong = fired & ~correct
    hit_correct = fired & correct
    # the floor of 1 only meets candidates that never fire, never admissible
    precision = hit_wrong.sum(axis=1) / np.maximum(fired.sum(axis=1), 1)
    n_correct = int(correct.sum())
    chosen: list = []
    flagged = np.zeros(fired.shape[1], dtype=bool)
    out = []
    for epsilon in grid:
        limit = epsilon * n_correct + _EPS
        while True:
            # a chosen candidate catches no new wrong entry, so is not admissible
            fresh = ~flagged
            admissible = (hit_wrong & fresh).any(axis=1) & (
                int((flagged & correct).sum()) + (hit_correct & fresh).sum(axis=1) <= limit)
            if not admissible.any():
                break
            best = int(np.argmax(np.where(admissible, precision, -1.0)))
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
    :func:`split_flagged` evaluates.
    """
    for w in np.flatnonzero(np.bincount(train.obj, minlength=len(train.objects))).tolist():
        if train.objects[w] not in gt_labels:
            raise InputError(f"training object {train.objects[w]!r} has no ground-truth label")
    if candidates is None:
        candidates = generate_candidates(train)
    ruleset = RuleSet(epsilon_grid)
    grid = ruleset.epsilon_grid
    truth = Truth.of(gt_labels, train.objects, train.classes).label

    for f, m in enumerate(train.models):
        for c, k in enumerate(train.classes):
            pool = tuple(candidates.get((m, k), ()))
            rows = train.pair_rows(f, c)
            fired = np.array([_condition_mask(cond, train, rows) for cond in pool],
                             dtype=bool).reshape(len(pool), rows.stop - rows.start)
            for eps, chosen in zip(grid, _learn_pair(truth[train.obj[rows]] == c, fired, grid)):
                ruleset.rules[(m, k, eps)] = ErrorRule(m, k, tuple(pool[i] for i in chosen))
    return ruleset


def split_flagged(obs: ObservationSet, ruleset: RuleSet, epsilon: float) -> np.ndarray:
    """Mask over the rows of ``obs``: True where the ``epsilon`` rule of the
    row's (model, class) pair flags the prediction as an error.

    A rule flags a prediction when any of its conditions fires.  This is the
    one rule filter; the learner shares its condition masks.
    """
    flagged = np.zeros(len(obs.obj), dtype=bool)
    for f, m in enumerate(obs.models):
        for c, k in enumerate(obs.classes):
            rows = obs.pair_rows(f, c)
            if rows.stop == rows.start:
                continue
            for cond in ruleset.rule_for(m, k, epsilon).conditions:
                flagged[rows] |= _condition_mask(cond, obs, rows)
    return flagged


def apply_rules(obs: ObservationSet,
                ruleset: RuleSet,
                epsilon: float) -> Tuple[ObservationSet, np.ndarray]:
    """Filter an observation set with the rules learned for ``epsilon``.

    Returns the surviving observations (same object/model/class universe)
    and the flagged rows, ascending row indices into ``obs`` (so
    ``obs.subset(flagged).entries`` are the flagged entries).
    """
    flagged = split_flagged(obs, ruleset, epsilon)
    return obs.subset(~flagged), np.flatnonzero(flagged)
