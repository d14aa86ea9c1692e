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
``str`` lists, confidences as floats, boxes as 4-tuples of floats).  Ids
are interned, so equal ids share one ``str`` object across all files and
the decoder's per-row copies go with the records.  All rows are validated
together: finite corners, positive width and height,
confidence in [0, 1], the manifest's model id, a declared class and unique
object ids.  Only when a bulk step fails are the lines re-parsed
with ``json.loads`` and the records checked one by one, to name the first
bad line as ``<path>:<line>:``.

:func:`match_detections` works on the tables.  Within each image it sorts
the detections by x_min (earlier row on ties) and keeps a running max of
x_max; an object's candidates are the window of rows between the first
whose running x_max exceeds the object's x_min and the last whose x_min is
below its x_max.  That window is an exact superset of the detections
overlapping the object, so IoU is computed only for pairs that can
overlap.  It returns an :class:`ObservationSet`, laid out from one bucket
of kept detections per (model, class) pair, each sorted by object: the
matched predictions as lists of model, object and class indices into
sorted id tuples, plus confidences.  A set of objects
or rows is one int, bit ``i`` for member ``i`` (:func:`bitsets`); a coverage
is one such set per class.

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
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from operator import itemgetter, not_
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence


class InputError(ValueError):
    """Malformed or inconsistent input data."""


def unit_grid(values: Iterable[float], what: str) -> tuple:
    """The distinct ``values`` of an epsilon or delta grid as ascending floats.  The
    error, led by ``what``, names the first value outside [0, 1], or an empty grid."""
    values = [float(v) for v in values]
    for v in values:
        if not (0.0 <= v <= 1.0):
            raise InputError(f"{what}: value out of [0, 1]: {v}")
    if not values:
        raise InputError(f"{what}: grid is empty")
    return tuple(sorted(set(values)))


# the classes of the default domain (``deduction.default_domain``) and of
# the generator's presets
DEFAULT_CLASSES = ("construction", "nature", "pedestrians", "vehicles")


_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def pack(flags) -> int:
    """The int with bit ``i`` set where ``flags[i]`` (a bool or 0/1) is true."""
    return int(bytes(flags)[::-1].translate(_DIGITS) or b"0", 2)


def flags(bits: int, n: int = 0) -> bytes:
    """One byte per bit of ``bits``, 1 where it is set, at least ``n`` long."""
    return bin(bits)[:1:-1].ljust(n, "0").encode().translate(_FLAGS)


def members(bits: int) -> list:
    """The positions of the set bits of ``bits``, ascending."""
    return list(compress(count(), flags(bits)))


def bitsets(keys: Iterable[int], pos: Iterable[int], n_keys: int, width: int) -> list:
    """One int per key ``k < n_keys``, with bit ``pos[i]`` set for each
    ``i`` where ``keys[i] == k``; a key of -1 is skipped."""
    rows = [bytearray(width) for _ in range(n_keys + 1)]
    for k, w in zip(keys, pos):
        rows[k][w] = 1
    return list(map(pack, rows[:n_keys]))


class GroundTruthTable:
    """Ground-truth objects as columns, in input order; ``boxes`` holds one
    (x_min, y_min, x_max, y_max) float tuple per object."""

    def __init__(self, image_id: list, object_id: list, class_id: list, boxes: list):
        self.image_id, self.object_id, self.class_id, self.boxes = (
            image_id, object_id, class_id, boxes)

    def __len__(self) -> int:
        return len(self.object_id)


class DetectionTable:
    """Detections as columns; a row's index is its input position.
    ``confidence`` is a float list, ``boxes`` a list of 4-tuples."""

    def __init__(self, image_id: list, model_id: list, class_id: list,
                 confidence: list, boxes: list):
        self.image_id, self.model_id, self.class_id = image_id, model_id, class_id
        self.confidence, self.boxes = confidence, boxes

    def __len__(self) -> int:
        return len(self.model_id)


class Observation(NamedTuple):
    """One model's surviving prediction for one resolved object."""

    object_id: str
    model_id: str
    class_id: str
    confidence: float


def index_of(ids: Sequence[str], wanted: Iterable[str], what: str) -> list:
    """Positions of ``wanted`` in ``ids``; an unknown id is an error."""
    pos = {v: i for i, v in enumerate(ids)}
    try:
        return list(map(pos.__getitem__, wanted))
    except KeyError as exc:
        raise InputError(f"entry references unknown {what} {exc.args[0]!r}") from None


class ObservationSet:
    """Predictions keyed to shared object identities, as columns over sorted
    models, objects and classes.

    ``objects`` is the full object universe, including objects no model
    predicted anything for; those stay relevant as the normalization base
    for inconsistency scores.  Rows are ordered by (model, class, object)
    index, so each (model, class) pair's entries are one contiguous run of
    rows (:meth:`pair_rows`): ``model``, ``obj`` and ``cls`` index lists
    and the ``confidence`` float list.  Two sets are equal when their
    universes and rows are.
    """

    def __init__(self, models: tuple, objects: tuple, classes: tuple, model: list,
                 obj: list, cls: list, confidence: list):
        self.models, self.objects, self.classes = models, objects, classes
        self.model, self.obj, self.cls, self.confidence = model, obj, cls, confidence

    @cached_property
    def entries(self) -> frozenset:
        """The :class:`Observation` of every row, built on first access."""
        ids = (map(u.__getitem__, a) for u, a in (
            (self.objects, self.obj), (self.models, self.model), (self.classes, self.cls)))
        return frozenset(map(Observation, *ids, self.confidence))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationSet):
            return NotImplemented
        return ((self.models, self.objects, self.classes, self.model, self.obj, self.cls,
                 self.confidence) == (other.models, other.objects, other.classes, other.model,
                                      other.obj, other.cls, other.confidence))

    @cached_property
    def pair_start(self) -> list:
        """First row of each (model f, class c) pair at ``f * C + c``, then n."""
        n = len(self.classes)
        return [bisect_left(range(len(self.obj)), k, key=lambda r: self.model[r] * n + self.cls[r])
                for k in range(len(self.models) * n + 1)]

    @cached_property
    def pair_masks(self) -> list:
        """The objects of each (model f, class c) pair at ``f * C + c``."""
        start = self.pair_start
        pair = chain.from_iterable(map(repeat, count(), map(int.__sub__, start[1:], start)))
        return bitsets(pair, self.obj, len(start) - 1, len(self.objects))

    def pair_rows(self, f: int, c: int) -> slice:
        """Rows of model ``f``'s predictions of class ``c``."""
        k = f * len(self.classes) + c
        return slice(self.pair_start[k], self.pair_start[k + 1])

    def subset(self, rows: Sequence[int]) -> "ObservationSet":
        """The ascending ``rows``, on the same universe."""
        return ObservationSet(self.models, self.objects, self.classes,
                              *(list(map(a.__getitem__, rows)) for a in (
                                  self.model, self.obj, self.cls, self.confidence)))

    def rows_within(self, cov: list) -> list:
        """Ascending rows whose object is in its class's set of ``cov``."""
        cells = [flags(b, len(self.objects)) for b in cov]
        start, n_classes = self.pair_start, len(self.classes)
        return list(chain.from_iterable(
            compress(range(a, b), map(cells[k % n_classes].__getitem__, self.obj[a:b]))
            for k, (a, b) in enumerate(zip(start, start[1:]))))

    def coverage(self, rows: Sequence[int]) -> list:
        """Per class, the objects one of ``rows`` gives it."""
        return bitsets(map(self.cls.__getitem__, rows), map(self.obj.__getitem__, rows),
                       len(self.classes), len(self.objects))


class CoverageReport(NamedTuple):
    """Objects left without any matched prediction."""

    uncovered: tuple

    @property
    def n_uncovered(self) -> int:
        return len(self.uncovered)


def coverage_report(obs: ObservationSet) -> CoverageReport:
    seen = set(obs.obj)
    return CoverageReport(tuple(w for i, w in enumerate(obs.objects) if i not in seen))


def _repeats(ids: Sequence[str]) -> list:
    """Whether each row's id already appeared on an earlier row."""
    first = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return list(map(int.__ne__, map(first.__getitem__, ids), count()))


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

    IoU, the scalar formula with detection operands first and ``min`` and
    ``max`` written out, is computed only within each object's window (see
    the module docstring): above ``primary_iou`` in stage 1, and again for
    the objects stage 1 left unmatched.  A detection belongs to one model,
    so visiting the objects once, each taking one detection per model,
    gives each model's stage 1.
    """
    if not (0.0 < primary_iou <= 1.0):
        raise InputError(f"primary_iou must be in (0, 1]: {primary_iou!r}")
    dets = detections
    objects = tuple(sorted(gt.object_id))
    object_at = {w: i for i, w in enumerate(objects)}
    if len(object_at) < len(objects):
        dup = next(compress(gt.object_id, _repeats(gt.object_id)))
        raise InputError(f"duplicate ground-truth object_id {dup!r}")

    # codes: each object's rank by id, images in first-appearance order (a
    # detection elsewhere never matches), detection models and all classes
    # in id order, and each detection's (model, class) pair
    rank = list(map(object_at.__getitem__, gt.object_id))
    image_code = {im: i for i, im in enumerate(dict.fromkeys(gt.image_id))}
    gimg = list(map(image_code.__getitem__, gt.image_id))
    dimg = list(map(image_code.get, dets.image_id, repeat(-1)))
    model_ids = sorted(set(dets.model_id))
    all_classes = tuple(sorted(set(() if classes is None else classes).union(
        dets.class_id, gt.class_id)))
    n_classes = len(all_classes)
    dmodel = list(map({m: i for i, m in enumerate(model_ids)}.__getitem__, dets.model_id))
    dpair = [f * n_classes + c for f, c in zip(dmodel, map(
        {c: i for i, c in enumerate(all_classes)}.__getitem__, dets.class_id))]
    live = chain(compress(gt.boxes, map(set(dimg).__contains__, gimg)),
                 compress(dets.boxes, map((-1).__ne__, dimg)))
    if any([(x1 - x0) * (y1 - y0) <= 0.0 for x0, y0, x1, y1 in live]):
        raise InputError("IoU undefined for zero-area boxes")
    conf, det_boxes = dets.confidence, dets.boxes

    # each image's rows in (x_min, row) order, with their x_min and the
    # running max of their x_max
    left, right = (list(map(itemgetter(k), det_boxes)) for k in (0, 2))
    order = sorted(range(len(dets)), key=dimg.__getitem__)
    cuts = [bisect_left(order, i, key=dimg.__getitem__) for i in range(len(image_code) + 1)]
    windows = []
    for rows in map(order.__getitem__, map(slice, cuts, cuts[1:])):
        rows.sort(key=left.__getitem__)
        reach, top = [], -inf
        for x in map(right.__getitem__, rows):
            top = x if x > top else top     # max(top, x), which keeps top on ties
            reach.append(top)
        windows.append((rows, list(map(left.__getitem__, rows)), reach))
    # the rank of the object that took each detection, None while unused
    owner = [None] * len(dets)

    def candidates(o: int, floor: float) -> dict:
        """The IoU of each unused detection in object ``o``'s window whose
        IoU is above ``floor``, by row."""
        gx0, gy0, gx1, gy1 = gt.boxes[o]
        rows, starts, reach = windows[gimg[o]]
        area = (gx1 - gx0) * (gy1 - gy0)
        out = {}
        for d in rows[bisect_right(reach, gx0):bisect_left(starts, gx1)]:
            if owner[d] is not None:
                continue
            dx0, dy0, dx1, dy1 = det_boxes[d]
            ix = (dx1 if dx1 < gx1 else gx1) - (dx0 if dx0 > gx0 else gx0)
            iy = (dy1 if dy1 < gy1 else gy1) - (dy0 if dy0 > gy0 else gy0)
            if ix > 0.0 and iy > 0.0:
                inter = ix * iy
                iou = inter / ((dx1 - dx0) * (dy1 - dy0) + area - inter)
                if iou > floor:
                    out[d] = iou
        return out

    # stage 1: per model the unused detection first in (-confidence, row)
    # order; stage 2 waits for every object's stage 1
    buckets = [[] for _ in range(len(model_ids) * n_classes)]
    unmatched = []
    for o, w in enumerate(rank):
        rows = list(candidates(o, primary_iou))
        if len(set(map(dmodel.__getitem__, rows))) < len(rows):
            # per model the most confident, the earlier row on ties: the last in this order
            rows = {dmodel[d]: d for d in sorted(rows, key=lambda d: (conf[d], -d))}.values()
        for d in rows:
            owner[d] = w
            buckets[dpair[d]].append(d)
        if not rows:
            unmatched.append(o)

    # stage 2: objects no model matched, each taking its best unused pair
    for o in unmatched:
        iou = candidates(o, 0.0)
        if iou:
            d = min(iou, key=lambda d: (-iou[d], -conf[d], dmodel[d], d))
            owner[d] = rank[o]
            buckets[dpair[d]].append(d)

    # the buckets in (model, class, object) order
    present = {model_ids[k // n_classes] for k, rows in enumerate(buckets) if rows}
    all_models = tuple(sorted(present.union(model_ids if models is None else models)))
    model_at = {m: i for i, m in enumerate(all_models)}
    model, obj, cls, confidence = [], [], [], []
    for k, rows in enumerate(buckets):
        if rows:
            rows.sort(key=owner.__getitem__)
            model += repeat(model_at[model_ids[k // n_classes]], len(rows))
            cls += repeat(k % n_classes, len(rows))
            obj += map(owner.__getitem__, rows)
            confidence += map(conf.__getitem__, rows)
    return ObservationSet(all_models, objects, all_classes, model, obj, cls, confidence)


def ground_truth_labels(gt: GroundTruthTable) -> dict:
    return dict(zip(gt.object_id, gt.class_id))


class Truth(NamedTuple):
    """Ground-truth labels on a (class, object) universe.

    ``bits[c]`` is the set of objects labelled ``classes[c]``.
    ``n_labels`` counts every label, also those of objects or classes
    outside the universe, which no atom can hit.
    """

    classes: tuple
    bits: list
    n_labels: int

    @classmethod
    def of(cls, gt_labels: Mapping[str, str], objects: Sequence[str],
           classes: Sequence[str]) -> "Truth":
        at = {c: i for i, c in enumerate(classes)}
        label = (at.get(gt_labels.get(w), -1) for w in objects)
        return cls(tuple(classes), bitsets(label, count(), len(classes), len(objects)),
                   len(gt_labels))


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
    return ids, conf, list(zip(*[map(float, chain.from_iterable(boxes))] * 4))


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
    the parse ``error`` came earlier.  ``checks`` holds ``(bad, message(row))``
    pairs, ``bad`` flagging each row, in the order one record is checked."""
    hits = [(row, k) for k, row in enumerate(next(compress(count(), bad), None)
                                             for bad, _ in checks) if row is not None]
    if hits:
        row, k = min(hits)
        raise InputError(f"{path}:{lines[row]}: {checks[k][1](row)}")
    if error is not None:
        raise error


def _box_checks(boxes: list) -> list:
    finite = all(map(isfinite, chain.from_iterable(boxes)))
    return [(() if finite else [not all(map(isfinite, b)) for b in boxes],
             lambda r: f"non-finite bbox coordinates: {boxes[r]}"),
            ([x1 <= x0 or y1 <= y0 for x0, y0, x1, y1 in boxes],
             lambda r: f"degenerate bbox (zero or negative area): {boxes[r]}")]


def _outside(values: list, allowed) -> Iterator[bool]:
    """Whether each of ``values`` is not in ``allowed``; none if that is None."""
    allowed = set(values if allowed is None else allowed)
    return map(not_, map(allowed.__contains__, values))


def load_predictions(path: str, model_id: Optional[str] = None,
                     classes: Optional[Iterable[str]] = None) -> DetectionTable:
    """Read a predictions file; every row must name ``model_id`` and one of
    ``classes`` when those are given."""
    lines, (image, model, klass), confs, boxes, error = _read_columns(
        path, ("image_id", "model_id", "class_id"), with_confidence=True)
    _check_rows(path, lines, error, _box_checks(boxes) + [
        ([not 0.0 <= c <= 1.0 for c in confs],
         lambda r: f"confidence out of [0, 1]: {confs[r]!r}"),
        (_outside(model, None if model_id is None else (model_id,)),
         lambda r: f"model_id {model[r]!r} does not match manifest entry {model_id!r}"),
        (_outside(klass, classes),
         lambda r: f"prediction for unknown class {klass[r]!r} (model {model[r]!r})")])
    return DetectionTable(image, model, klass, confs, boxes)


def load_ground_truth(path: str,
                      classes: Optional[Iterable[str]] = None) -> GroundTruthTable:
    """Read a ground-truth file; object ids must be unique and every class
    one of ``classes`` when given."""
    lines, (image, obj, klass), _, boxes, error = _read_columns(
        path, ("image_id", "object_id", "class_id"), with_confidence=False)
    _check_rows(path, lines, error, _box_checks(boxes) + [
        (_repeats(obj), lambda r: f"duplicate object_id {obj[r]!r}"),
        (_outside(klass, classes),
         lambda r: f"ground-truth object {obj[r]!r} has unknown class {klass[r]!r}")])
    return GroundTruthTable(image, obj, klass, boxes)


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

    tables = [load_predictions(resolve(preds_map[m]), model_id=m, classes=classes)
              for m in models]
    detections = DetectionTable(*(list(chain.from_iterable(getattr(t, f) for t in tables))
                                  for f in ("image_id", "model_id", "class_id", "confidence",
                                            "boxes")))
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


def json_boxes(boxes: list) -> list:
    """Each of the 4-sequences ``boxes`` as ``json.dumps`` writes the items
    of the list of its corners, from one call."""
    return json.dumps(boxes)[2:-2].split("], [") if boxes else []


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
