"""Independent restatements of production computations, used as oracles.

Each helper recomputes from first principles what the pipeline computes
incrementally or in bulk, so tests can compare the two.
"""

import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from abfuse import solver_ip
from abfuse.deduction import (NORMALIZER_MODES, DomainConfig, IntegrityConstraintSet,
                              find_violations, inc_from_count, violation_budget)
from abfuse.evaluation import Metrics
from abfuse.edr import _EPS, Condition, RuleSet, generate_candidates
from abfuse.model_io import (GROUND_TRUTH_LINE, PREDICTION_LINE, DetectionTable,
                             GroundTruthTable, InputError, Observation, ObservationSet,
                             index_of, json_boxes, json_numbers, json_strings, write_rows)
from abfuse.solver_hs import HsConfig, HsResult, SelectionStep


# ------------------------------------------------ observation sets, by entry
# Production lays every ``ObservationSet``'s rows out in (model, class,
# object) order as it builds them; tests state theirs as ``Observation``
# tuples or as index lists in any order.


def build_set(models, objects, classes, model, obj, klass, confidence) -> ObservationSet:
    """The set of rows given as index lists into the sorted universes, in
    any order."""
    n, c = len(objects), len(classes)
    order = sorted(range(len(obj)), key=[(f * c + k) * n + w for f, k, w in zip(
        model, klass, obj)].__getitem__)
    return ObservationSet(models, objects, classes, *(
        list(map(a.__getitem__, order)) for a in (model, obj, klass, confidence)))


def observation_set(entries: Iterable[Observation],
                    objects: Optional[Iterable[str]] = None,
                    models: Optional[Iterable[str]] = None,
                    classes: Optional[Iterable[str]] = None) -> ObservationSet:
    """The set of ``entries`` on universes widened to cover their ids;
    raises :class:`InputError` for two entries of one model for one
    object."""
    rows = list(frozenset(entries))

    def universe(given, field):
        return tuple(sorted(set(() if given is None else given).union(
            getattr(e, field) for e in rows)))

    models, objects, classes = (universe(models, "model_id"),
                                universe(objects, "object_id"),
                                universe(classes, "class_id"))
    obj = index_of(objects, (e.object_id for e in rows), "object")
    model = index_of(models, (e.model_id for e in rows), "model")
    klass = index_of(classes, (e.class_id for e in rows), "class")
    twice = sorted(k for k, n in Counter(zip(model, obj)).items() if n > 1)
    if twice:
        f, w = twice[0]
        raise InputError(f"model {models[f]!r} has two entries for object {objects[w]!r}")
    return build_set(models, objects, classes, model, obj, klass,
                     [float(e.confidence) for e in rows])


# ------------------------------------------------------- deductive closure
# The paper's closure semantics, stated per entry; the solvers compute the
# same atoms in bulk.


def neighbors(ic: IntegrityConstraintSet, class_id: str) -> frozenset:
    """Classes that ``ic`` excludes together with ``class_id``."""
    return frozenset(b if a == class_id else a for a, b in ic.pairs
                     if class_id in (a, b))


@dataclass(frozen=True)
class Hypothesis:
    """Accepted (model_id, class_id) pairs."""

    accepted: FrozenSet[Tuple[str, str]]

    @classmethod
    def full(cls, models: Iterable[str], classes: Iterable[str]) -> "Hypothesis":
        return cls(frozenset((f, c) for f in models for c in classes))

    @classmethod
    def of(cls, pairs: Iterable[Tuple[str, str]]) -> "Hypothesis":
        return cls(frozenset(pairs))

    def accepts(self, model_id: str, class_id: str) -> bool:
        return (model_id, class_id) in self.accepted

    def without(self, pairs: Iterable[Tuple[str, str]]) -> "Hypothesis":
        return Hypothesis(self.accepted - frozenset(pairs))


@dataclass(frozen=True)
class FixpointResult:
    assigned: FrozenSet[Tuple[str, str]]          # (class_id, object_id)
    errors: FrozenSet[Tuple[str, str, str]]       # (model_id, class_id, object_id)
    violations: FrozenSet[Tuple[str, Tuple[str, str]]]
    pred: int
    inc: float


def count_inc(assigned: Iterable[Tuple[str, str]],
              ic: IntegrityConstraintSet,
              normalizer_mode: str = "per_object",
              *,
              n_objects: int,
              directed_ground_rules: bool = False) -> float:
    """Normalized inconsistency of a set of assignment atoms (see
    :func:`inc_from_count`)."""
    if normalizer_mode not in NORMALIZER_MODES:
        raise InputError(f"unknown normalizer_mode {normalizer_mode!r}")
    if n_objects < 0:
        raise InputError("n_objects must be >= 0")
    return inc_from_count(len(find_violations(assigned, ic)), n_objects, ic,
                          normalizer_mode, directed_ground_rules)


def fixpoint(obs: ObservationSet,
             hypothesis: Hypothesis,
             ic: IntegrityConstraintSet,
             errors: Iterable[Tuple[str, str, str]] = (),
             normalizer_mode: str = "per_object",
             directed_ground_rules: bool = False) -> FixpointResult:
    """Close an observation set under a hypothesis.

    ``errors`` are externally supplied error atoms (model, class, object)
    whose predictions never contribute assignments even when their
    (model, class) pair is accepted.
    """
    known_errors = frozenset(errors)
    derived_errors = set(known_errors)
    assigned = set()
    for e in obs.entries:
        if not hypothesis.accepts(e.model_id, e.class_id):
            derived_errors.add((e.model_id, e.class_id, e.object_id))
            continue
        if (e.model_id, e.class_id, e.object_id) in known_errors:
            continue
        assigned.add((e.class_id, e.object_id))
    violations = find_violations(assigned, ic)
    inc = count_inc(assigned, ic, normalizer_mode,
                    n_objects=len(obs.objects),
                    directed_ground_rules=directed_ground_rules)
    return FixpointResult(frozenset(assigned), frozenset(derived_errors),
                          violations, len(assigned), inc)


# ------------------------------------------------ per-entry rule evaluation
# The production filter evaluates rules as masks over ``ObservationSet`` rows
# (``abfuse.edr.apply_rules``); these helpers evaluate them one entry at a
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
    return entry.confidence < cond.threshold


def flags(rule: Sequence[Condition], entry: Observation,
          siblings: Mapping[str, Observation]) -> bool:
    return any(fires(c, entry, siblings) for c in rule)


def learn_pair_loop(correct: np.ndarray, fired: np.ndarray, epsilon: float,
                    base) -> list:
    """``edr._learn_pair`` one candidate at a time: each step walks the pool
    in order and keeps a candidate only when its precision beats the best
    so far, so ties go to the earlier candidate."""
    n_correct = int(correct.sum())
    chosen = list(base)
    flagged = np.zeros(fired.shape[1], dtype=bool)
    for i in chosen:
        flagged |= fired[i]
    limit = epsilon * n_correct + _EPS

    totals = fired.sum(axis=1)
    wrongs = (fired & ~correct).sum(axis=1)

    while True:
        best = None
        flagged_correct = int((flagged & correct).sum())
        for i in range(fired.shape[0]):
            if i in chosen or totals[i] == 0:
                continue
            new = fired[i] & ~flagged
            if not (new & ~correct).any():
                continue
            dr = int((new & correct).sum())
            if n_correct > 0 and flagged_correct + dr > limit:
                continue
            prec = wrongs[i] / totals[i]
            if best is None or prec > best[0]:
                best = (prec, i)
        if best is None:
            return chosen
        chosen.append(best[1])
        flagged |= fired[best[1]]


def learn_ruleset_reference(train: ObservationSet, gt_labels: Mapping[str, str],
                            epsilon_grid) -> RuleSet:
    """``learn_ruleset`` with each candidate's firing pattern evaluated entry
    by entry (entries in sorted order) instead of as masks, and the greedy
    of :func:`learn_pair_loop`."""
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
                chosen = learn_pair_loop(correct, fired, eps, chosen)
                ruleset.rules[(f, c, eps)] = tuple(pool[i] for i in chosen)
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


def selected(res: HsResult) -> frozenset:
    """The :class:`Observation` entries a greedy result accepts."""
    return res.obs.subset(res.rows).entries


def hs_outcome(res: HsResult) -> tuple:
    """What a greedy result decides: accepted entries, trace and scores."""
    return selected(res), res.trace, res.n_atoms, res.inconsistency


def heuristic_search_reference(p_raw: ObservationSet, config: HsConfig,
                               ruleset: RuleSet, ic: IntegrityConstraintSet,
                               normalizer_mode: str = "per_object",
                               directed_ground_rules: bool = False
                               ) -> Tuple[list, Tuple[SelectionStep, ...], int, float]:
    """The greedy search of :mod:`abfuse.solver_hs`, stated per entry.

    Visits the (model, class) pairs in order; for each it tries every
    epsilon, adding that epsilon's surviving predictions of the pair to the
    selection's atom set, and keeps the candidate whose atom set grows most
    (smallest epsilon on ties) among those whose violated ground rules
    (:func:`find_violations`) stay within :func:`violation_budget`.
    Survivors come from the rules one entry at a time.  Returns the selected
    rows (ascending), the trace steps, the atom count and the Inc score.
    """
    n_objects = len(p_raw.objects)
    budget = violation_budget(config.delta, n_objects, ic, normalizer_mode,
                              directed_ground_rules)
    entries = [Observation(p_raw.objects[w], p_raw.models[f], p_raw.classes[c], conf)
               for w, f, c, conf in zip(p_raw.obj, p_raw.model, p_raw.cls, p_raw.confidence)]
    row_of = {e: r for r, e in enumerate(entries)}

    def inc(atoms):
        return inc_from_count(len(find_violations(atoms, ic)), n_objects, ic,
                              normalizer_mode, directed_ground_rules)

    order = [(f, c) for f in p_raw.models for c in p_raw.classes]

    selected: set = set()
    atoms: frozenset = frozenset()
    steps = []
    for f, c in order:
        best = None  # (atoms, epsilon, rows)
        for eps in config.epsilon_set:
            rows = {row_of[e] for e in get_filtered_preds(f, c, eps, p_raw, ruleset)}
            grown = atoms | {(entries[r].class_id, entries[r].object_id) for r in rows}
            if len(grown) <= len(atoms) or len(find_violations(grown, ic)) > budget:
                continue
            if best is None or len(grown) > len(best[0]):
                best = (grown, eps, rows)
        chosen = None
        if best is not None:
            atoms, chosen, rows = best
            selected |= rows
        steps.append(SelectionStep(f, c, chosen, len(atoms), inc(atoms)))
    return sorted(selected), tuple(steps), len(atoms), inc(atoms)


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


def fingerprint_reference(dataset) -> str:
    """sha256 of a sweep dataset, restated from its ``entries``: each
    entry's ids become indices into the sorted universes, the entries sort
    by (model, class, object) index, and every value is packed on its own,
    each index column as little-endian int64s and then the confidences as
    float64s, before the JSON array of the universes, labels and domain."""
    obs = dataset.observations
    at = [{u: i for i, u in enumerate(universe)}
          for universe in (obs.objects, obs.models, obs.classes)]
    rows = sorted((at[1][e.model_id], at[2][e.class_id], at[0][e.object_id], e.confidence)
                  for e in obs.entries)
    payload = b"".join(r[k].to_bytes(8, "little", signed=True) for k in (2, 0, 1) for r in rows)
    payload += b"".join(struct.pack("<d", r[3]) for r in rows)
    payload += json.dumps([len(rows), list(obs.objects), list(obs.models), list(obs.classes),
                           sorted(dataset.gt_labels.items()),
                           list(dataset.domain.classes),
                           [list(p) for p in dataset.domain.ic.pairs]],
                          separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def brute_force_optimal(instance: solver_ip.IpInstance,
                        max_pairs: int = 12) -> solver_ip.IpSolution:
    """Exhaustive reference solver for tiny instances.

    Enumerates every elimination pattern over all (model, class) pairs and
    evaluates it with plain numpy, independent of the search kernels.  Ties
    prefer fewer eliminations, then the lexicographically smallest set of
    eliminated pairs in (model, class) order.
    """
    F, C, N = instance.pred.shape
    n = F * C
    if n > max_pairs:
        raise InputError(f"brute force limited to {max_pairs} pairs, got {n}")

    pred = instance.pred.astype(bool)
    coverable = instance.pred.any(axis=(0, 1))
    pairs_idx = instance.ic.index_pairs(instance.classes)

    best = None  # ((-objective, n_elim, eliminated pairs), covered)
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
        if best is None or key < best[0]:
            best = key, covered
    if best is None:
        return solver_ip.IpSolution(solver_ip.STATUS_INFEASIBLE, -1, 0,
                                    [[1] * C for _ in range(F)], [0] * C, instance)
    (neg_objective, _, elim_idx), covered = best
    eliminated = [[int(f * C + c in elim_idx) for c in range(C)] for f in range(F)]
    cover = [sum(1 << int(w) for w in np.flatnonzero(row)) for row in covered]
    return solver_ip.IpSolution(solver_ip.STATUS_OPTIMAL, -neg_objective, 0, eliminated,
                                cover, instance)


def milp_optimum(instance: solver_ip.IpInstance) -> Optional[int]:
    """The optimal atom count of the instance's program, or None when it is
    infeasible, from HiGHS (``scipy.optimize.milp``) on a 0/1 linear program
    stated from ``pred`` and the budget alone.

    Variables: a keep bit per (model, class) pair; a cover bit per
    (class, object) cell, equal to the OR of the keep bits of the pairs
    predicting it; a violation bit per (exclusion pair, object), at least
    the sum of the pair's two cover bits minus one.  Maximize the cover
    bits subject to every coverable object having one and the violation
    bits summing to at most the budget.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    pred = instance.pred.astype(bool)
    F, C, N = pred.shape
    pairs = instance.ic.index_pairs(instance.classes)
    n_keep, n_cover = F * C, C * N
    n = n_keep + n_cover + len(pairs) * N

    def cover(c, w):
        return n_keep + c * N + w

    rows, lower, upper = [], [], []

    def constrain(terms, lo, hi):
        row = np.zeros(n)
        for i, coef in terms:
            row[i] += coef
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for c in range(C):
        for w in range(N):
            keeps = [f * C + c for f in range(F) if pred[f, c, w]]
            constrain([(cover(c, w), 1)] + [(k, -1) for k in keeps], -np.inf, 0)
            for k in keeps:
                constrain([(cover(c, w), 1), (k, -1)], 0, np.inf)
    for w in np.flatnonzero(pred.any(axis=(0, 1))).tolist():
        constrain([(cover(c, w), 1) for c in range(C)], 1, np.inf)
    violation = iter(range(n_keep + n_cover, n))
    for i, j in pairs:
        for w in range(N):
            constrain([(next(violation), 1), (cover(i, w), -1), (cover(j, w), -1)], -1, np.inf)
    constrain([(v, 1) for v in range(n_keep + n_cover, n)], -np.inf, instance.delta_budget)

    cost = np.zeros(n)
    cost[n_keep:n_keep + n_cover] = -1
    res = milp(cost, integrality=np.ones(n), bounds=Bounds(0, 1),
               constraints=LinearConstraint(np.array(rows), lower, upper))
    if res.status == 2:
        return None
    if res.status != 0:
        raise AssertionError(f"HiGHS ended with status {res.status}: {res.message}")
    return round(-res.fun)


# ------------------------------------------------- records and line reading
# The production loader reads each file into column tables and validates
# all rows at once (``abfuse.model_io.load_predictions``).  Tests state
# their scenes as validated ``Detection``/``GroundTruthObject`` records, and
# the readers below read a file one line at a time.


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box; corners must satisfy min < max on both axes."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            raise InputError(f"non-finite bbox coordinates: {vals}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError(f"degenerate bbox (zero or negative area): {vals}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def as_list(self) -> list:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True)
class Detection:
    image_id: str
    model_id: str
    class_id: str
    confidence: float
    bbox: BoundingBox

    def __post_init__(self):
        if not (isinstance(self.confidence, (int, float))
                and math.isfinite(self.confidence)
                and 0.0 <= self.confidence <= 1.0):
            raise InputError(f"confidence out of [0, 1]: {self.confidence!r}")


@dataclass(frozen=True)
class GroundTruthObject:
    image_id: str
    object_id: str
    class_id: str
    bbox: BoundingBox


def gt_table(gt: Iterable[GroundTruthObject]) -> GroundTruthTable:
    """The column table of ground-truth records."""
    gt = list(gt)
    return GroundTruthTable([g.image_id for g in gt], [g.object_id for g in gt],
                            [g.class_id for g in gt],
                            [tuple(map(float, g.bbox.as_list())) for g in gt])


def det_table(dets: Iterable[Detection]) -> DetectionTable:
    """The column table of detection records."""
    dets = list(dets)
    return DetectionTable([d.image_id for d in dets], [d.model_id for d in dets],
                          [d.class_id for d in dets], [float(d.confidence) for d in dets],
                          [tuple(map(float, d.bbox.as_list())) for d in dets])


def read_jsonl_reference(path: str) -> Iterable[tuple]:
    """Yield ``(line number, record)`` for each non-blank line of a JSONL
    file, one ``json.loads`` per line as the file streams; the first line
    that is not a JSON object raises."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            # JSONDecodeError, an int too long or nesting too deep
            except (ValueError, RecursionError) as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def read_columns_reference(path: str, id_fields: tuple, with_confidence: bool) -> tuple:
    """``abfuse.model_io._read_columns`` one record at a time: ``(lines,
    ids, confidences, boxes, error)``, stopping at the first record that
    cannot be parsed and returning its error."""
    lines, ids, confs, boxes = [], tuple([] for _ in id_fields), [], []
    try:
        for lineno, rec in read_jsonl_reference(path):
            try:
                row = [str(rec[f]) for f in id_fields]
                raw = rec["confidence"] if with_confidence else 0.0
                try:
                    conf = float(raw)
                except (TypeError, ValueError, OverflowError):
                    raise InputError(f"{path}:{lineno}: confidence must be a number: "
                                     f"{raw!r}") from None
                raw = rec["bbox"]
                if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
                    raise InputError(f"{path}:{lineno}: bbox must be "
                                     "[x_min, y_min, x_max, y_max]")
                boxes.append(tuple(map(float, raw)))
            except KeyError as exc:
                raise InputError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
            except InputError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            for col, v in zip(ids, row):
                col.append(v)
            confs.append(conf)
            lines.append(lineno)
    except InputError as exc:
        return lines, ids, confs, boxes, exc
    return lines, ids, confs, boxes, None


# ---------------------------------------------------------------- matching
# ``abfuse.model_io.match_detections`` sorts each image's detections into
# windows and walks the objects once; this states its contract one object
# at a time, over every detection.


def match_reference(gt, dets, threshold) -> set:
    """The ``(object_id, model_id, class_id, confidence)`` rows the two-stage
    matcher keeps for the records ``gt`` and ``dets``.

    Stage 1, per image and model, visits the objects in input order; each
    takes the model's most confident unused detection (the earlier row on
    ties) with IoU strictly above ``threshold``.  Stage 2 gives each object
    no model matched the unused detection of its image with the highest
    positive IoU, then the highest confidence, the smaller model id and the
    earlier row.  Zero-area boxes are for :func:`zero_area_rejected`."""
    def iou(a, b):
        ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
        iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
        if ix <= 0.0 or iy <= 0.0:
            return 0.0
        inter = ix * iy
        return inter / (a.area + b.area - inter)

    images = list(dict.fromkeys(g.image_id for g in gt))
    used, rows, covered = set(), set(), set()
    for img in images:
        for model in sorted({d.model_id for d in dets}):
            for g in (g for g in gt if g.image_id == img):
                pool = [(pos, d) for pos, d in enumerate(dets)
                        if pos not in used and d.image_id == img
                        and d.model_id == model
                        and iou(d.bbox, g.bbox) > threshold]
                if pool:
                    pos, d = min(pool, key=lambda pd: (-pd[1].confidence, pd[0]))
                    used.add(pos)
                    rows.add((g.object_id, model, d.class_id, d.confidence))
                    covered.add(g.object_id)
    for img in images:
        for g in (g for g in gt if g.image_id == img and g.object_id not in covered):
            pool = [(iou(d.bbox, g.bbox), pos, d) for pos, d in enumerate(dets)
                    if pos not in used and d.image_id == img]
            pool = [t for t in pool if t[0] > 0.0]
            if pool:
                v, pos, d = min(pool, key=lambda t: (-t[0], -t[2].confidence,
                                                     t[2].model_id, t[1]))
                used.add(pos)
                rows.add((g.object_id, d.model_id, d.class_id, d.confidence))
                covered.add(g.object_id)
    return rows


def zero_area_rejected(gt, dets) -> bool:
    """Whether the matcher raises ``IoU undefined for zero-area boxes``: a
    box whose area is 0.0 lies on an image that holds both an object and a
    detection.  A box on any other image is never compared, so it passes."""
    both = {g.image_id for g in gt} & {d.image_id for d in dets}
    return any(r.bbox.area <= 0.0 and r.image_id in both for r in (*gt, *dets))


# ---------------------------------------------------------- table writers
# ``synthgen.write_split`` encodes each object's image id and box once for
# all the files of a split; these write one table at a time, as the loaders
# return it, and are the reference its bytes are compared against.


def write_predictions(path: str, detections: DetectionTable) -> None:
    """The table as ``load_predictions`` reads it, each confidence rounded
    to six decimal places."""
    t = detections
    write_rows(path, PREDICTION_LINE,
               json_strings(t.image_id), json_strings(t.model_id), json_strings(t.class_id),
               json_numbers([round(v, 6) for v in t.confidence]),
               json_boxes(t.boxes))


def write_ground_truth(path: str, gt: GroundTruthTable) -> None:
    """The table as ``load_ground_truth`` reads it."""
    write_rows(path, GROUND_TRUTH_LINE,
               json_strings(gt.image_id), json_strings(gt.object_id), json_strings(gt.class_id),
               json_boxes(gt.boxes))


# ----------------------------------------------------------- tie-breaking


def candidates_from_atoms_reference(atoms: Iterable[Tuple[str, str]],
                                    obs: ObservationSet) -> list:
    """``tiebreak.candidates_from_atoms`` one entry at a time: each atom's
    strongest supporting entry, the smaller model id on confidence ties."""
    support: Dict[Tuple[str, str], Tuple] = {}
    for e in obs.entries:
        k = (e.class_id, e.object_id)
        cand = (-e.confidence, e.model_id)
        if k not in support or cand < support[k][0]:
            support[k] = (cand, e)
    out = []
    for cls, obj in atoms:
        hit = support.get((cls, obj))
        if hit is None:
            continue
        e = hit[1]
        out.append((obj, cls, e.model_id, e.confidence))
    return out


def apply_tiebreaker_reference(candidates: Iterable[Tuple[str, str, str, float]]
                               ) -> Dict[str, Tuple[str, str, float]]:
    """``tiebreak.apply_tiebreaker`` one candidate at a time: per object the
    minimum of (-confidence, model id, class id)."""
    best: Dict[str, Tuple] = {}
    for obj, cls, model, conf in candidates:
        key = (-float(conf), model, cls)
        if obj not in best or key < best[obj][0]:
            best[obj] = (key, cls, model, float(conf))
    return {obj: (cls, model, conf) for obj, (_, cls, model, conf) in best.items()}


# -------------------------------------------------------------- baselines


def majority_vote_reference(obs: ObservationSet) -> Dict[str, str]:
    """``baselines.majority_vote`` per entry, as {object_id: class_id}: most
    votes, then the class's best confidence, its best model id, class id."""
    per_object: dict = {}
    for e in obs.entries:
        per_object.setdefault(e.object_id, []).append(e)
    out = {}
    for obj, group in per_object.items():
        stats: dict = {}  # class -> [votes, best_conf, best_model]
        for e in group:
            st = stats.setdefault(e.class_id, [0, -1.0, ""])
            st[0] += 1
            if e.confidence > st[1] or (e.confidence == st[1] and e.model_id < st[2]):
                st[1] = e.confidence
                st[2] = e.model_id
        out[obj] = min(stats,
                       key=lambda c: (-stats[c][0], -stats[c][1], stats[c][2], c))
    return out


# ---------------------------------------------------------------- scoring


def labels_to_atoms(labels: Mapping[str, str]) -> frozenset:
    return frozenset((c, w) for w, c in labels.items())


def score_reference(atoms: Iterable[Tuple[str, str]],
                    gt_labels: Mapping[str, str],
                    *,
                    domain: Optional[DomainConfig] = None,
                    n_objects: Optional[int] = None) -> Metrics:
    """``evaluation.score`` on a set of ``(class_id, object_id)`` atoms, one
    atom and one label at a time."""
    if not gt_labels:
        raise InputError("ground truth is empty")
    atoms = set(atoms)
    n_objects = len(gt_labels) if n_objects is None else n_objects

    per_object: dict = {}
    for c, w in atoms:
        per_object.setdefault(w, set()).add(c)

    correct = sum(1 for c, w in atoms if gt_labels.get(w) == c)
    precision = correct / len(atoms) if atoms else 0.0
    hit = sum(1 for w, label in gt_labels.items() if label in per_object.get(w, ()))
    recall = hit / len(gt_labels)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    exact = sum(1 for w, label in gt_labels.items()
                if per_object.get(w) == {label})
    accuracy = exact / len(gt_labels)

    incon = 0.0
    violations = 0
    if domain is not None:
        violations = len(find_violations(atoms, domain.ic))
        incon = inc_from_count(violations, n_objects, domain.ic,
                               domain.normalizer_mode, domain.directed_ground_rules)
    return Metrics(precision, recall, f1, accuracy, incon, 0.0, n_objects, violations)
