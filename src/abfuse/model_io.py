"""Input data model: detection and ground-truth tables, observation sets.

File formats
------------
Prediction files are JSONL, one detection per line::

    {"image_id": "img0", "model_id": "m1", "class_id": "vehicles",
     "confidence": 0.93, "bbox": [x_min, y_min, x_max, y_max]}

Ground-truth files are JSONL, one object per line::

    {"image_id": "img0", "object_id": "o17", "class_id": "vehicles",
     "bbox": [x_min, y_min, x_max, y_max]}

A dataset manifest is a JSON document tying them together::

    {"models": ["m1", "m2"], "classes": ["vehicles", "nature"],
     "predictions": {"m1": "m1.jsonl", "m2": "m2.jsonl"},
     "ground_truth": "gt.jsonl"}

Relative paths are resolved against the manifest's directory.

Loading and matching
--------------------
Each file is read line by line, one ``json.loads`` per line, straight into
a column table (:class:`DetectionTable`, :class:`GroundTruthTable`): ids as
``str`` lists, confidences as ``float64``, boxes as a ``(K, 4)`` ``float64``
array.  All rows are then validated at once: finite corners, positive
width and height, confidence in [0, 1], the manifest's model id, a
declared class and unique object ids.  Every per-record error, found while
parsing or by those checks, names the first bad line as ``<path>:<line>:``.

:func:`match_detections` works on the tables.  Within each image it sorts
the detections by x_min and keeps a running max of x_max; an object's
candidates are the window of rows between the first whose running x_max
exceeds the object's x_min and the last whose x_min is below its x_max.
That window is an exact superset of the detections overlapping the object,
so IoU is computed only for pairs that can overlap.  It returns an
:class:`ObservationSet`: the matched predictions as ``int64`` model, object
and class indices into sorted id tuples, plus ``float64`` confidences.

:func:`write_predictions` and :func:`write_ground_truth` take the same
tables the loaders return.
"""

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed or inconsistent input data."""


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


def compute_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; always in [0, 1]."""
    if a.area <= 0.0 or b.area <= 0.0:
        raise InputError("IoU undefined for zero-area boxes")
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


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


def _boxes(rows) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(-1, 4)


@dataclass(frozen=True, eq=False)
class GroundTruthTable:
    """Ground-truth objects as columns, in input order."""

    image_id: list
    object_id: list
    class_id: list
    boxes: np.ndarray        # float64 (G, 4): x_min, y_min, x_max, y_max

    def __len__(self) -> int:
        return len(self.object_id)

    @classmethod
    def from_records(cls, gt: Iterable[GroundTruthObject]) -> "GroundTruthTable":
        gt = list(gt)
        return cls([g.image_id for g in gt], [g.object_id for g in gt],
                   [g.class_id for g in gt], _boxes([g.bbox.as_list() for g in gt]))


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detections as columns; a row's index is its input position."""

    image_id: list
    model_id: list
    class_id: list
    confidence: np.ndarray   # float64 (K,)
    boxes: np.ndarray        # float64 (K, 4): x_min, y_min, x_max, y_max

    def __len__(self) -> int:
        return len(self.model_id)

    @classmethod
    def from_records(cls, dets: Iterable[Detection]) -> "DetectionTable":
        dets = list(dets)
        return cls([d.image_id for d in dets], [d.model_id for d in dets],
                   [d.class_id for d in dets],
                   np.array([d.confidence for d in dets], dtype=np.float64),
                   _boxes([d.bbox.as_list() for d in dets]))

    @classmethod
    def concat(cls, tables: Sequence["DetectionTable"]) -> "DetectionTable":
        """The rows of ``tables``, one after another."""
        tables = list(tables) or [cls.from_records(())]
        ids = (list(chain.from_iterable(getattr(t, f) for t in tables))
               for f in ("image_id", "model_id", "class_id"))
        return cls(*ids, np.concatenate([t.confidence for t in tables]),
                   np.concatenate([t.boxes for t in tables]))


class Observation(NamedTuple):
    """One model's surviving prediction for one resolved object."""

    object_id: str
    model_id: str
    class_id: str
    confidence: float


def index_of(ids: Sequence[str], wanted: Iterable[str], what: str) -> np.ndarray:
    """Positions of ``wanted`` in ``ids`` as int64; an unknown id is an error."""
    pos = {v: i for i, v in enumerate(ids)}
    try:
        return np.fromiter((pos[v] for v in wanted), dtype=np.int64)
    except KeyError as exc:
        raise InputError(f"entry references unknown {what} {exc.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Predictions keyed to shared object identities, as arrays over sorted
    models, objects and classes.

    ``objects`` is the full object universe, including objects no model
    predicted anything for; those stay relevant as the normalization base
    for inconsistency scores.  Rows are ordered by (model, class, object)
    index, so each (model, class) pair's entries are one contiguous run of
    rows (:meth:`pair_rows`).  Two sets are equal when their universes and
    rows are.
    """

    models: tuple
    objects: tuple
    classes: tuple
    model: np.ndarray        # int64 (n,)
    obj: np.ndarray          # int64 (n,)
    cls: np.ndarray          # int64 (n,)
    confidence: np.ndarray   # float64 (n,)

    @classmethod
    def build(cls, models, objects, classes, model, obj, klass,
              confidence) -> "ObservationSet":
        """The set of rows given as index arrays into the sorted universes,
        in any order."""
        order = np.lexsort((obj, klass, model))
        return cls(models, objects, classes, model[order], obj[order],
                   klass[order], confidence[order])

    @classmethod
    def from_entries(cls, entries: Iterable[Observation],
                     objects: Optional[Iterable[str]] = None,
                     models: Optional[Iterable[str]] = None,
                     classes: Optional[Iterable[str]] = None) -> "ObservationSet":
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
        twice = np.flatnonzero(np.bincount(model * len(objects) + obj, minlength=1) > 1)
        if twice.size:
            f, w = divmod(int(twice[0]), len(objects))
            raise InputError(f"model {models[f]!r} has two entries for object {objects[w]!r}")
        return cls.build(models, objects, classes, model, obj, klass, np.fromiter(
            (e.confidence for e in rows), dtype=np.float64, count=len(rows)))

    @cached_property
    def entries(self) -> frozenset:
        """The :class:`Observation` of every row, built on first access."""
        ids = (np.array(u, dtype=object)[a] for u, a in (
            (self.objects, self.obj), (self.models, self.model), (self.classes, self.cls)))
        return frozenset(map(Observation, *ids, self.confidence.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationSet):
            return NotImplemented
        return ((self.models, self.objects, self.classes)
                == (other.models, other.objects, other.classes)
                and all(np.array_equal(getattr(self, k), getattr(other, k))
                        for k in ("model", "obj", "cls", "confidence")))

    @cached_property
    def grid(self) -> np.ndarray:
        """int64 (F, N): each model's class index per object, -1 for none."""
        grid = np.full((len(self.models), len(self.objects)), -1, dtype=np.int64)
        grid[self.model, self.obj] = self.cls
        return grid

    @cached_property
    def pair_start(self) -> list:
        """First row of each (model f, class c) pair at ``f * C + c``, then n."""
        key = self.model * len(self.classes) + self.cls
        return np.searchsorted(key, np.arange(len(self.models) * len(self.classes) + 1)).tolist()

    def pair_rows(self, f: int, c: int) -> slice:
        """Rows of model ``f``'s predictions of class ``c``."""
        k = f * len(self.classes) + c
        return slice(self.pair_start[k], self.pair_start[k + 1])

    def subset(self, keep: np.ndarray) -> "ObservationSet":
        """The rows ``keep`` selects (a mask, or ascending row indices), on
        the same universe."""
        return ObservationSet(self.models, self.objects, self.classes,
                              *(a[keep] for a in (self.model, self.obj, self.cls,
                                                  self.confidence)))

    def rows_within(self, cov: np.ndarray) -> np.ndarray:
        """Rows whose (class, object) cell is set in a bool (C, N) ``cov``."""
        return np.flatnonzero(cov[self.cls, self.obj])

    def coverage(self, rows=slice(None)) -> np.ndarray:
        """bool (C, N): whether one of ``rows`` gives object ``w`` class ``c``."""
        cov = np.zeros((len(self.classes), len(self.objects)), dtype=bool)
        cov[self.cls[rows], self.obj[rows]] = True
        return cov


@dataclass(frozen=True)
class CoverageReport:
    """Objects left without any matched prediction."""

    uncovered: tuple

    @property
    def n_uncovered(self) -> int:
        return len(self.uncovered)


def coverage_report(obs: ObservationSet) -> CoverageReport:
    bare = np.bincount(obs.obj, minlength=len(obs.objects)) == 0
    return CoverageReport(tuple(obs.objects[w] for w in np.flatnonzero(bare).tolist()))


def _area(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])


def _pair_iou(gts: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """IoU of row i of ``gts`` with row i of ``dets``, both ``(n, 4)``.

    Follows :func:`compute_iou` (detection first) operation for operation,
    so each value equals ``compute_iou(det, gt)`` exactly.
    """
    ix = np.minimum(dets[:, 2], gts[:, 2]) - np.maximum(dets[:, 0], gts[:, 0])
    iy = np.minimum(dets[:, 3], gts[:, 3]) - np.maximum(dets[:, 1], gts[:, 1])
    # disjoint pairs get inter = 0 and so IoU 0.0, as in compute_iou
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    return inter / (_area(dets) + _area(gts) - inter)


# Candidate pairs expanded at a time: bounds the scratch arrays when one
# wide detection stretches every later window of its image.
_PAIR_BLOCK = 1 << 16


def _overlaps(gb: np.ndarray, gimg: np.ndarray, db: np.ndarray,
              dimg: np.ndarray) -> tuple:
    """(object row, detection row, IoU) of every pair in one image with
    positive IoU.

    Detections are sorted by (image, x_min) with a running max of x_max per
    image.  An object spanning [gx0, gx1] takes the window of rows from the
    first whose running x_max exceeds gx0 up to the last whose x_min is
    below gx1: an exact superset of the detections overlapping it.  Each
    coordinate is replaced by its rank among all detections', offset by
    image, so one global ``searchsorted`` stays within the object's image
    and compares exactly.
    """
    live = np.flatnonzero(dimg >= 0)
    order = live[np.lexsort((db[live, 0], dimg[live]))]
    x0, x1 = db[order, 0], db[order, 2]
    x0_sorted, x1_sorted = np.sort(x0), np.sort(x1)
    stride = len(order) + 1
    img = dimg[order] * stride
    start_key = img + np.searchsorted(x0_sorted, x0, "left")
    end_key = np.maximum.accumulate(img + np.searchsorted(x1_sorted, x1, "left"))
    hi = np.searchsorted(start_key, gimg * stride + np.searchsorted(
        x0_sorted, gb[:, 2], "left"), "left")
    lo = np.searchsorted(end_key, gimg * stride + np.searchsorted(
        x1_sorted, gb[:, 0], "right"), "left")
    n = np.maximum(hi - lo, 0)
    ends = np.cumsum(n)
    cuts = np.searchsorted(ends, np.arange(_PAIR_BLOCK, ends[-1:].sum(), _PAIR_BLOCK))
    parts = []
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), len(gb)]):
        m = n[a:b]
        gi = np.repeat(np.arange(a, b), m)
        di = order[np.arange(len(gi)) + np.repeat(lo[a:b] - np.cumsum(m) + m, m)]
        iou = _pair_iou(gb[gi], db[di])
        hit = iou > 0.0
        parts.append((gi[hit], di[hit], iou[hit]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _repeats(ids: Sequence[str]) -> np.ndarray:
    """Mask of the rows whose id already appeared on an earlier row."""
    first: dict = {}
    return np.fromiter((first.setdefault(v, i) != i for i, v in enumerate(ids)),
                       dtype=bool, count=len(ids))


def match_detections(gt, detections, primary_iou: float = 0.90,
                     models: Optional[Iterable[str]] = None,
                     classes: Optional[Iterable[str]] = None) -> ObservationSet:
    """Resolve detections onto ground-truth object identities.

    ``gt`` and ``detections`` are a :class:`GroundTruthTable` and a
    :class:`DetectionTable`; sequences of records are converted first.

    Stage 1 runs independently per model: objects are visited in input
    order and each takes that model's highest-confidence unused detection
    (earlier row on ties) overlapping it with IoU strictly above
    ``primary_iou``.  Objects still untouched by every model afterwards get
    a second chance, in input order: the unused detection (any model) of
    the object's own image with the highest positive IoU, then the highest
    confidence, the smaller model id and the earlier row.  Each detection
    is consumed by at most one object, and each object keeps at most one
    entry per model.

    IoU is computed only for the pairs :func:`_overlaps` finds, and equals
    :func:`compute_iou` bit for bit.
    """
    if not (0.0 < primary_iou <= 1.0):
        raise InputError(f"primary_iou must be in (0, 1]: {primary_iou!r}")
    if not isinstance(gt, GroundTruthTable):
        gt = GroundTruthTable.from_records(gt)
    dets = (detections if isinstance(detections, DetectionTable)
            else DetectionTable.from_records(detections))
    dup = _repeats(gt.object_id)
    if dup.any():
        raise InputError(f"duplicate ground-truth object_id "
                         f"{gt.object_id[int(np.argmax(dup))]!r}")

    # images in first-appearance order; a detection elsewhere never matches
    image_code = {im: i for i, im in enumerate(dict.fromkeys(gt.image_id))}
    gimg = np.fromiter((image_code[im] for im in gt.image_id), np.int64, len(gt))
    dimg = np.fromiter((image_code.get(im, -1) for im in dets.image_id),
                       np.int64, len(dets))
    model_ids = sorted(set(dets.model_id))
    model_code = {m: i for i, m in enumerate(model_ids)}
    dmodel = np.fromiter((model_code[m] for m in dets.model_id), np.int64, len(dets))
    has_dets = np.bincount(dimg[dimg >= 0], minlength=len(image_code)) > 0
    if ((_area(gt.boxes[has_dets[gimg]]) <= 0.0).any()
            or (_area(dets.boxes[dimg >= 0]) <= 0.0).any()):
        raise InputError("IoU undefined for zero-area boxes")

    gi, di, iou = _overlaps(gt.boxes, gimg, dets.boxes, dimg)
    neg_conf = -dets.confidence

    # stage 1: per (model, object) the first unused detection in
    # (-confidence, row) order
    s1 = iou > primary_iou
    o1, d1 = gi[s1], di[s1]
    rank = np.lexsort((d1, neg_conf[d1], o1, dmodel[d1]))
    used = bytearray(len(dets))
    pairs, done = [], None
    for m, o, d in zip(dmodel[d1][rank].tolist(), o1[rank].tolist(), d1[rank].tolist()):
        if (m, o) != done and not used[d]:
            done, used[d] = (m, o), True
            pairs.append((o, d))

    # stage 2: objects no model matched, each taking its best unused pair
    matched = np.zeros(len(gt), dtype=bool)
    matched[[o for o, _ in pairs]] = True
    s2 = ~matched[gi]
    o2, d2, v2 = gi[s2], di[s2], iou[s2]
    rank = np.lexsort((d2, dmodel[d2], neg_conf[d2], -v2, o2))
    done = -1
    for o, d in zip(o2[rank].tolist(), d2[rank].tolist()):
        if o != done and not used[d]:
            done, used[d] = o, True
            pairs.append((o, d))

    # the set straight from the (object, detection) pairs
    o, d = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    objects = tuple(sorted(gt.object_id))
    all_models = tuple(sorted(set(model_ids if models is None else models).union(
        model_ids[k] for k in np.unique(dmodel[d]).tolist())))
    all_classes = tuple(sorted(set(() if classes is None else classes).union(
        dets.class_id, gt.class_id)))
    obj = index_of(objects, gt.object_id, "object")[o]
    model = index_of(all_models, model_ids, "model")[dmodel[d]]
    klass = index_of(all_classes, (dets.class_id[k] for k in d.tolist()), "class")
    return ObservationSet.build(all_models, objects, all_classes, model, obj, klass,
                                dets.confidence[d])


def ground_truth_labels(gt: GroundTruthTable) -> dict:
    return dict(zip(gt.object_id, gt.class_id))


# ---------------------------------------------------------------------------
# file I/O


def read_jsonl(path: str) -> Iterable[tuple]:
    """Yield ``(line number, record)`` for each non-blank line of a JSONL
    file whose records must all be JSON objects."""
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


def _read_columns(path: str, id_fields: tuple, with_confidence: bool) -> tuple:
    """Parse a JSONL file into ``(lines, ids, confidences, boxes, error)``:
    the line number of each row, one ``str`` list per id field, and
    ``float()`` of each confidence (0.0 without one) and box corner.

    Reading stops at the first record that cannot be parsed; its error is
    returned, not raised, so the caller can report an earlier bad row first.
    """
    lines, ids, confs, boxes = [], tuple([] for _ in id_fields), [], []
    try:
        for lineno, rec in read_jsonl(path):
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


def _check_rows(path: str, lines: list, error: Optional[InputError],
                checks: list) -> None:
    """Raise for the first bad line: the first row failing a check, unless
    the parse ``error`` came earlier.  ``checks`` holds ``(bad mask,
    message(row))`` pairs in the order one record is checked."""
    hits = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if hits:
        row, k = min(hits)
        raise InputError(f"{path}:{lines[row]}: {checks[k][1](row)}")
    if error is not None:
        raise error


def _box_checks(boxes: np.ndarray) -> list:
    def corners(r):
        return tuple(boxes[r].tolist())
    return [(~np.isfinite(boxes).all(axis=1),
             lambda r: f"non-finite bbox coordinates: {corners(r)}"),
            ((boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1]),
             lambda r: f"degenerate bbox (zero or negative area): {corners(r)}")]


def _outside(values: list, allowed) -> np.ndarray:
    """Mask of the ``values`` not in ``allowed``; none if that is None."""
    allowed = set(values if allowed is None else allowed)
    return np.array([v not in allowed for v in values], dtype=bool)


def load_predictions(path: str, model_id: Optional[str] = None,
                     classes: Optional[Iterable[str]] = None) -> DetectionTable:
    """Read a predictions file; every row must name ``model_id`` and one of
    ``classes`` when those are given."""
    lines, (image, model, klass), confs, boxes, error = _read_columns(
        path, ("image_id", "model_id", "class_id"), with_confidence=True)
    table = DetectionTable(image, model, klass, np.array(confs, dtype=np.float64),
                           _boxes(boxes))
    conf = table.confidence
    _check_rows(path, lines, error, _box_checks(table.boxes) + [
        (~((conf >= 0.0) & (conf <= 1.0)),
         lambda r: f"confidence out of [0, 1]: {conf[r].item()!r}"),
        (_outside(model, None if model_id is None else (model_id,)),
         lambda r: f"model_id {model[r]!r} does not match manifest entry {model_id!r}"),
        (_outside(klass, classes),
         lambda r: f"prediction for unknown class {klass[r]!r} (model {model[r]!r})")])
    return table


def load_ground_truth(path: str,
                      classes: Optional[Iterable[str]] = None) -> GroundTruthTable:
    """Read a ground-truth file; object ids must be unique and every class
    one of ``classes`` when given."""
    lines, (image, obj, klass), _, boxes, error = _read_columns(
        path, ("image_id", "object_id", "class_id"), with_confidence=False)
    table = GroundTruthTable(image, obj, klass, _boxes(boxes))
    _check_rows(path, lines, error, _box_checks(table.boxes) + [
        (_repeats(obj), lambda r: f"duplicate object_id {obj[r]!r}"),
        (_outside(klass, classes),
         lambda r: f"ground-truth object {obj[r]!r} has unknown class {klass[r]!r}")])
    return table


@dataclass(frozen=True)
class Dataset:
    models: tuple
    classes: tuple
    ground_truth: GroundTruthTable
    detections: DetectionTable
    manifest_path: str = ""

    def labels(self) -> dict:
        return ground_truth_labels(self.ground_truth)


def load_dataset(manifest_path: str) -> Dataset:
    """Load a manifest plus all files it references, one file at a time."""
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{manifest_path}: invalid JSON: {exc}") from exc

    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: expected a JSON object")
    for key in ("models", "classes", "predictions", "ground_truth"):
        if key not in manifest:
            raise InputError(f"{manifest_path}: missing field {key!r}")
    for key in ("models", "classes"):
        ids = manifest[key]
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise InputError(f"{manifest_path}: {key!r} must be a list of strings")
    models = manifest["models"]
    classes = manifest["classes"]
    if len(set(models)) != len(models):
        raise InputError(f"{manifest_path}: duplicate model ids")
    if len(set(classes)) != len(classes):
        raise InputError(f"{manifest_path}: duplicate class ids")

    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    preds_map = manifest["predictions"]
    if not (isinstance(preds_map, dict)
            and all(isinstance(p, str) for p in preds_map.values())):
        raise InputError(f"{manifest_path}: 'predictions' must map model ids to file paths")
    if not isinstance(manifest["ground_truth"], str):
        raise InputError(f"{manifest_path}: 'ground_truth' must be a file path")
    if set(preds_map) != set(models):
        raise InputError(f"{manifest_path}: prediction files must cover exactly the declared models")

    detections = DetectionTable.concat([
        load_predictions(resolve(preds_map[m]), model_id=m, classes=classes)
        for m in models])
    gt = load_ground_truth(resolve(manifest["ground_truth"]), classes=classes)
    return Dataset(tuple(models), tuple(classes), gt, detections,
                   manifest_path=os.path.abspath(manifest_path))


def observations_from_dataset(ds: Dataset, primary_iou: float = 0.90) -> ObservationSet:
    return match_detections(ds.ground_truth, ds.detections,
                            primary_iou=primary_iou,
                            models=ds.models, classes=ds.classes)


def write_predictions(path: str, detections: DetectionTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image, model, klass, conf, bbox in zip(
                detections.image_id, detections.model_id, detections.class_id,
                detections.confidence.tolist(), detections.boxes.tolist()):
            fh.write(json.dumps({
                "image_id": image,
                "model_id": model,
                "class_id": klass,
                "confidence": round(conf, 6),
                "bbox": bbox,
            }) + "\n")


def write_ground_truth(path: str, gt: GroundTruthTable) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image, obj, klass, bbox in zip(gt.image_id, gt.object_id, gt.class_id,
                                           gt.boxes.tolist()):
            fh.write(json.dumps({
                "image_id": image,
                "object_id": obj,
                "class_id": klass,
                "bbox": bbox,
            }) + "\n")


def write_manifest(path: str, models: Sequence[str], classes: Sequence[str],
                   predictions: Mapping[str, str], ground_truth: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "models": list(models),
            "classes": list(classes),
            "predictions": dict(predictions),
            "ground_truth": ground_truth,
        }, fh, indent=2)
        fh.write("\n")
