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
Each file is read whole and split into lines; a file that is not UTF-8 is
an error naming the line of the first bad byte.  Every stripped non-blank
line is decoded by one call of json's C scanner, which must end at the
line's end; the columns of a :class:`DetectionTable` or
:class:`GroundTruthTable` are then read from all records at once (ids as
``str`` lists, confidences as ``float64``, boxes as a ``(K, 4)`` ``float64``
array).  Ids are interned, so equal ids share one ``str`` object across
all files and the decoder's per-row copies go with the records.  All rows
are validated together: finite corners, positive width and height,
confidence in [0, 1], the manifest's model id, a declared class and unique
object ids.  Only when a bulk step fails are the lines re-parsed
with ``json.loads`` and the records checked one by one, to name the first
bad line as ``<path>:<line>:``.

:func:`match_detections` works on the tables.  Within each image it sorts
the detections by x_min and keeps a running max of x_max; an object's
candidates are the window of rows between the first whose running x_max
exceeds the object's x_min and the last whose x_min is below its x_max.
That window is an exact superset of the detections overlapping the object,
so IoU is computed only for pairs that can overlap.  It returns an
:class:`ObservationSet`: the matched predictions as ``int64`` model, object
and class indices into sorted id tuples, plus ``float64`` confidences.

Writing
-------
:func:`write_rows` writes a file of one line per row from columns of
already-encoded items: :func:`json_strings`, :func:`json_numbers` and
:func:`json_boxes` encode a whole column as ``json.dumps`` writes each
item.  ``synthgen.write_split`` lays prediction and ground-truth lines out
by ``PREDICTION_LINE`` and ``GROUND_TRUTH_LINE``; the sweep CSV and the
label files use their own templates.  Every other JSON or JSONL output
goes through :func:`write_json` or :func:`write_jsonl`.
"""

import json
import json.scanner
import os
import sys
from functools import cached_property
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed or inconsistent input data."""


# the classes of the default domain (``deduction.default_domain``) and of
# the generator's presets
DEFAULT_CLASSES = ("construction", "nature", "pedestrians", "vehicles")


def _boxes(rows) -> np.ndarray:
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


class GroundTruthTable:
    """Ground-truth objects as columns, in input order; ``boxes`` is float64
    (G, 4): x_min, y_min, x_max, y_max."""

    def __init__(self, image_id: list, object_id: list, class_id: list, boxes: np.ndarray):
        self.image_id, self.object_id, self.class_id, self.boxes = (
            image_id, object_id, class_id, boxes)

    def __len__(self) -> int:
        return len(self.object_id)


class DetectionTable:
    """Detections as columns; a row's index is its input position.
    ``confidence`` is float64 (K,), ``boxes`` float64 (K, 4)."""

    def __init__(self, image_id: list, model_id: list, class_id: list,
                 confidence: np.ndarray, boxes: np.ndarray):
        self.image_id, self.model_id, self.class_id = image_id, model_id, class_id
        self.confidence, self.boxes = confidence, boxes

    def __len__(self) -> int:
        return len(self.model_id)

    @classmethod
    def concat(cls, tables: Sequence["DetectionTable"]) -> "DetectionTable":
        """The rows of ``tables``, one after another."""
        tables = list(tables) or [cls([], [], [], np.zeros(0), np.zeros((0, 4)))]
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
        return np.fromiter(map(pos.__getitem__, wanted), dtype=np.int64)
    except KeyError as exc:
        raise InputError(f"entry references unknown {what} {exc.args[0]!r}") from None


class ObservationSet:
    """Predictions keyed to shared object identities, as arrays over sorted
    models, objects and classes.

    ``objects`` is the full object universe, including objects no model
    predicted anything for; those stay relevant as the normalization base
    for inconsistency scores.  Rows are ordered by (model, class, object)
    index, so each (model, class) pair's entries are one contiguous run of
    rows (:meth:`pair_rows`): int64 ``model``, ``obj`` and ``cls`` indices
    and float64 ``confidence``.  Two sets are equal when their universes
    and rows are.
    """

    def __init__(self, models: tuple, objects: tuple, classes: tuple, model: np.ndarray,
                 obj: np.ndarray, cls: np.ndarray, confidence: np.ndarray):
        self.models, self.objects, self.classes = models, objects, classes
        self.model, self.obj, self.cls, self.confidence = model, obj, cls, confidence

    @classmethod
    def build(cls, models, objects, classes, model, obj, klass,
              confidence) -> "ObservationSet":
        """The set of rows given as index arrays into the sorted universes,
        in any order."""
        order = np.lexsort((obj, klass, model))
        return cls(models, objects, classes, model[order], obj[order],
                   klass[order], confidence[order])

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


class CoverageReport(NamedTuple):
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
    """IoU of row i of ``gts`` with row i of ``dets``, both ``(n, 4)``: the
    scalar formula, detection operands first, so each value is exact."""
    ix = np.minimum(dets[:, 2], gts[:, 2]) - np.maximum(dets[:, 0], gts[:, 0])
    iy = np.minimum(dets[:, 3], gts[:, 3]) - np.maximum(dets[:, 1], gts[:, 1])
    # disjoint pairs get inter = 0 and so IoU 0.0
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
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, ids), np.int64, len(ids)) != np.arange(len(ids))


def match_detections(gt, detections, primary_iou: float = 0.90,
                     models: Optional[Iterable[str]] = None,
                     classes: Optional[Iterable[str]] = None) -> ObservationSet:
    """Resolve detections onto ground-truth object identities.

    ``gt`` and ``detections`` are a :class:`GroundTruthTable` and a
    :class:`DetectionTable`.

    Stage 1 runs independently per model: objects are visited in input
    order and each takes that model's highest-confidence unused detection
    (earlier row on ties) overlapping it with IoU strictly above
    ``primary_iou``.  Objects still untouched by every model afterwards get
    a second chance, in input order: the unused detection (any model) of
    the object's own image with the highest positive IoU, then the highest
    confidence, the smaller model id and the earlier row.  Each detection
    is consumed by at most one object, and each object keeps at most one
    entry per model.

    IoU is computed only for the pairs :func:`_overlaps` finds.
    """
    if not (0.0 < primary_iou <= 1.0):
        raise InputError(f"primary_iou must be in (0, 1]: {primary_iou!r}")
    dets = detections
    dup = _repeats(gt.object_id)
    if dup.any():
        raise InputError(f"duplicate ground-truth object_id "
                         f"{gt.object_id[int(np.argmax(dup))]!r}")

    # images in first-appearance order; a detection elsewhere never matches
    image_code = {im: i for i, im in enumerate(dict.fromkeys(gt.image_id))}
    gimg = np.fromiter(map(image_code.__getitem__, gt.image_id), np.int64, len(gt))
    dimg = np.fromiter(map(image_code.get, dets.image_id, repeat(-1)), np.int64, len(dets))
    model_ids = sorted(set(dets.model_id))
    model_code = {m: i for i, m in enumerate(model_ids)}
    dmodel = np.fromiter(map(model_code.__getitem__, dets.model_id), np.int64, len(dets))
    has_dets = np.bincount(dimg[dimg >= 0], minlength=len(image_code)) > 0
    if ((_area(gt.boxes[has_dets[gimg]]) <= 0.0).any()
            or (_area(dets.boxes[dimg >= 0]) <= 0.0).any()):
        raise InputError("IoU undefined for zero-area boxes")

    gi, di, iou = _overlaps(gt.boxes, gimg, dets.boxes, dimg)
    neg_conf = -dets.confidence

    # stage 1: per (model, object) the first unused detection in
    # (-confidence, row) order; ``key`` numbers the (model, object) pairs
    s1 = iou > primary_iou
    o1, d1 = gi[s1], di[s1]
    rank = np.lexsort((d1, neg_conf[d1], o1, dmodel[d1]))
    key = dmodel[d1] * len(gt) + o1
    used = bytearray(len(dets))
    kept_o, kept_d, done = [], [], -1
    for k, o, d in zip(key[rank].tolist(), o1[rank].tolist(), d1[rank].tolist()):
        if k != done and not used[d]:
            done, used[d] = k, True
            kept_o.append(o)
            kept_d.append(d)

    # stage 2: objects no model matched, each taking its best unused pair
    matched = np.zeros(len(gt), dtype=bool)
    matched[kept_o] = True
    s2 = ~matched[gi]
    o2, d2, v2 = gi[s2], di[s2], iou[s2]
    rank = np.lexsort((d2, dmodel[d2], neg_conf[d2], -v2, o2))
    done = -1
    for o, d in zip(o2[rank].tolist(), d2[rank].tolist()):
        if o != done and not used[d]:
            done, used[d] = o, True
            kept_o.append(o)
            kept_d.append(d)

    # the set straight from the kept (object, detection) pairs
    o = np.array(kept_o, dtype=np.int64)
    d = np.array(kept_d, dtype=np.int64)
    objects = tuple(sorted(gt.object_id))
    all_models = tuple(sorted(set(model_ids if models is None else models).union(
        model_ids[k] for k in np.flatnonzero(np.bincount(
            dmodel[d], minlength=len(model_ids))).tolist())))
    all_classes = tuple(sorted(set(() if classes is None else classes).union(
        dets.class_id, gt.class_id)))
    obj = index_of(objects, gt.object_id, "object")[o]
    model = index_of(all_models, model_ids, "model")[dmodel[d]]
    klass = index_of(all_classes, map(dets.class_id.__getitem__, d.tolist()), "class")
    return ObservationSet.build(all_models, objects, all_classes, model, obj, klass,
                                dets.confidence[d])


def ground_truth_labels(gt: GroundTruthTable) -> dict:
    return dict(zip(gt.object_id, gt.class_id))


class Truth(NamedTuple):
    """Ground-truth labels on a (class, object) universe.

    ``label[w]`` is the class index of object ``w``'s label, -1 for none.
    ``n_labels`` counts every label, also those of objects or classes
    outside the universe, which no atom can hit.
    """

    classes: tuple
    label: np.ndarray       # int64 (N,)
    n_labels: int

    @classmethod
    def of(cls, gt_labels: Mapping[str, str], objects: Sequence[str],
           classes: Sequence[str]) -> "Truth":
        at = {c: i for i, c in enumerate(classes)}
        return cls(tuple(classes), np.fromiter(
            (at.get(gt_labels.get(w), -1) for w in objects), dtype=np.int64,
            count=len(objects)), len(gt_labels))


# ---------------------------------------------------------------------------
# file I/O


def read_text(path: str) -> str:
    """The text of a UTF-8 file, newlines translated as in text mode; an
    unreadable file or bytes that are not UTF-8 raise :class:`InputError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            head = fh.read(exc.start)
        line = head.replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise InputError(f"{path}:{line}: not valid UTF-8: {exc}") from None


def read_json(path: str):
    """The JSON document in ``path``."""
    text = read_text(path)
    try:
        return json.loads(text)
    # JSONDecodeError, an int too long or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


_SCAN = json.scanner.make_scanner(json.JSONDecoder())


def _records(path: str) -> tuple:
    """``(line numbers, records, error)`` of the non-blank lines of a JSONL
    file, up to the first line that is not one JSON object; ``error`` names
    that line, or is None.

    Each stripped line takes one call of json's scanner, which must end at
    the line's end.  Only when a line fails is the file decoded again line
    by line with ``json.loads``, which words the error.
    """
    lines = list(map(str.strip, read_text(path).split("\n")))
    numbers = list(compress(count(1), lines))
    lines = list(filter(None, lines))
    try:
        # a line holding no JSON value raises StopIteration, which ends the
        # map early: the list of end offsets then comes out short
        decoded = list(map(_SCAN, lines, repeat(0)))
        records = list(map(itemgetter(0), decoded))
        if (list(map(itemgetter(1), decoded)) == list(map(len, lines))
                and set(map(type, records)) <= {dict}):
            return numbers, records, None
    except (ValueError, RecursionError):
        pass
    records, error = [], None
    for lineno, line in zip(numbers, lines):
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            error = InputError(f"{path}:{lineno}: invalid JSON: {exc}")
            break
        if not isinstance(rec, dict):
            error = InputError(f"{path}:{lineno}: expected a JSON object")
            break
        records.append(rec)
    return numbers[:len(records)], records, error


def read_jsonl(path: str) -> Iterator[tuple]:
    """Yield ``(line number, record)`` for each non-blank line of a JSONL
    file whose records must all be JSON objects; a line that is not one
    raises once the records before it are yielded."""
    numbers, records, error = _records(path)
    yield from zip(numbers, records)
    if error is not None:
        raise error


def _columns(records: list, id_fields: tuple, with_confidence: bool) -> tuple:
    """``(ids, confidences, boxes)`` of ``records``: one list of interned
    ``str`` per id field, ``float()`` of each confidence (0.0 without one)
    and of each box corner.  Raises, without naming a line, where
    :func:`_check_record` would."""
    ids = tuple(list(map(sys.intern, map(str, map(itemgetter(f), records))))
                for f in id_fields)
    conf = (list(map(float, map(itemgetter("confidence"), records)))
            if with_confidence else [0.0] * len(records))
    boxes = list(map(itemgetter("bbox"), records))
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}):
        raise ValueError("bbox must be [x_min, y_min, x_max, y_max]")
    return (ids, np.array(conf, dtype=np.float64),
            _boxes(list(map(float, chain.from_iterable(boxes)))))


def _check_record(path: str, lineno: int, rec: dict, id_fields: tuple,
                  with_confidence: bool) -> None:
    """Raise the error of the first field of ``rec`` that :func:`_columns`
    cannot read, naming its line; runs only once :func:`_columns` failed."""
    try:
        itemgetter(*id_fields)(rec)
        if with_confidence:
            try:
                float(rec["confidence"])
            except (TypeError, ValueError, OverflowError):
                raise InputError(f"confidence must be a number: {rec['confidence']!r}")
        if not (isinstance(rec["bbox"], list) and len(rec["bbox"]) == 4):
            raise InputError("bbox must be [x_min, y_min, x_max, y_max]")
        list(map(float, rec["bbox"]))
    except KeyError as exc:
        raise InputError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
    # InputError is a ValueError: the messages above get the line too
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from exc


def _read_columns(path: str, id_fields: tuple, with_confidence: bool) -> tuple:
    """Parse a JSONL file into ``(lines, ids, confidences, boxes, error)``:
    the line number of each row, then the columns :func:`_columns` reads.

    Rows stop before the first record that cannot be parsed; its error is
    returned, not raised, so the caller can report an earlier bad row first.
    """
    lines, records, error = _records(path)
    try:
        return (lines, *_columns(records, id_fields, with_confidence), error)
    except (LookupError, TypeError, ValueError, OverflowError):
        for k, (lineno, rec) in enumerate(zip(lines, records)):
            try:
                _check_record(path, lineno, rec, id_fields, with_confidence)
            except InputError as exc:
                return (lines[:k], *_columns(records[:k], id_fields, with_confidence),
                        exc)
        raise


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
    return ~np.fromiter(map(allowed.__contains__, values), bool, len(values))


def load_predictions(path: str, model_id: Optional[str] = None,
                     classes: Optional[Iterable[str]] = None) -> DetectionTable:
    """Read a predictions file; every row must name ``model_id`` and one of
    ``classes`` when those are given."""
    lines, (image, model, klass), confs, boxes, error = _read_columns(
        path, ("image_id", "model_id", "class_id"), with_confidence=True)
    table = DetectionTable(image, model, klass, np.asarray(confs, dtype=np.float64),
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


class Dataset(NamedTuple):
    models: tuple
    classes: tuple
    ground_truth: GroundTruthTable
    detections: DetectionTable

    def labels(self) -> dict:
        return ground_truth_labels(self.ground_truth)


def load_dataset(manifest_path: str) -> Dataset:
    """Load a manifest plus all files it references, one file at a time."""
    manifest = read_json(manifest_path)
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
    return Dataset(tuple(models), tuple(classes), gt, detections)


def observations_from_dataset(ds: Dataset, primary_iou: float = 0.90) -> ObservationSet:
    return match_detections(ds.ground_truth, ds.detections,
                            primary_iou=primary_iou,
                            models=ds.models, classes=ds.classes)


def json_strings(values: Iterable[str]) -> list:
    """Each of ``values`` as ``json.dumps`` writes a string."""
    return list(map(encode_basestring_ascii, values))


def json_numbers(values: list) -> list:
    """Each of ``values`` as ``json.dumps`` writes a number, from one call:
    no number's text holds the separator."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def json_boxes(boxes: np.ndarray) -> list:
    """Each row of the (K, 4) ``boxes`` as ``json.dumps`` writes the items
    of the list of its corners, from one call."""
    return json.dumps(boxes.tolist())[2:-2].split("], [") if len(boxes) else []


def write_rows(path: str, template: str, *columns: Iterable[str]) -> None:
    """One line per row: ``template``, holding no ``%`` but its ``%s``
    slots, with slot ``i`` filled by the row's item of ``columns[i]``.
    The file is written from one string, spliced a column at a time."""
    head, *tails = template.split("%s")
    if len(tails) != len(columns):
        raise ValueError(f"{len(columns)} columns for {len(tails)} slots")
    parts = [repeat(head)]
    for column, tail in zip(columns, tails):
        parts += (column, repeat(tail))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(chain.from_iterable(zip(*parts))))


# a line of a prediction or ground-truth file from its encoded columns,
# the box as :func:`json_boxes` encodes it
PREDICTION_LINE = ('{"image_id": %s, "model_id": %s, "class_id": %s, '
                   '"confidence": %s, "bbox": [%s]}\n')
GROUND_TRUTH_LINE = '{"image_id": %s, "object_id": %s, "class_id": %s, "bbox": [%s]}\n'


def write_json(path: str, doc, sort_keys: bool = False) -> None:
    """``doc`` as JSON indented by two spaces, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def write_jsonl(path: str, records: Iterable) -> None:
    """One ``json.dumps`` line per record."""
    write_rows(path, "%s\n", map(json.dumps, records))


def write_manifest(path: str, models: Sequence[str], classes: Sequence[str],
                   predictions: Mapping[str, str], ground_truth: str) -> None:
    write_json(path, {"models": list(models), "classes": list(classes),
                      "predictions": dict(predictions), "ground_truth": ground_truth})
