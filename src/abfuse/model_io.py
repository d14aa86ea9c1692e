"""Input data model: detections, ground truth, and observation sets.

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
"""

import json
import math
import os
from dataclasses import dataclass
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


class Observation(NamedTuple):
    """One model's surviving prediction for one resolved object."""

    object_id: str
    model_id: str
    class_id: str
    confidence: float


def _index_of(ids: Sequence[str], wanted: Iterable[str], what: str) -> np.ndarray:
    """Positions of ``wanted`` in ``ids`` as int64; an unknown id is an error."""
    pos = {v: i for i, v in enumerate(ids)}
    try:
        return np.fromiter((pos[v] for v in wanted), dtype=np.int64)
    except KeyError as exc:
        raise InputError(f"entry references unknown {what} {exc.args[0]!r}") from None


@dataclass(frozen=True, eq=False)
class ObservationView:
    """An observation set as arrays over sorted models, objects and classes.

    Rows are ordered by (model, class, object) index, so each (model, class)
    pair's entries are one contiguous run of rows (:meth:`pair_rows`).
    """

    models: tuple
    objects: tuple
    classes: tuple
    entries: np.ndarray      # object (n,): the Observation of each row
    model: np.ndarray        # int64 (n,)
    obj: np.ndarray          # int64 (n,)
    cls: np.ndarray          # int64 (n,)
    confidence: np.ndarray   # float64 (n,)

    @classmethod
    def encode(cls, obs: "ObservationSet") -> "ObservationView":
        """Index every entry; raises :class:`InputError` for an entry outside
        the universe or a second entry of one model for one object."""
        models, objects = tuple(sorted(obs.models)), tuple(sorted(obs.objects))
        classes = tuple(sorted(obs.classes))
        rows = list(obs.entries)
        obj = _index_of(objects, (e.object_id for e in rows), "object")
        model = _index_of(models, (e.model_id for e in rows), "model")
        klass = _index_of(classes, (e.class_id for e in rows), "class")
        twice = np.flatnonzero(np.bincount(model * len(objects) + obj, minlength=1) > 1)
        if twice.size:
            f, w = divmod(int(twice[0]), len(objects))
            raise InputError(f"model {models[f]!r} has two entries for object {objects[w]!r}")
        order = np.lexsort((obj, klass, model))
        entries = np.fromiter((rows[i] for i in order.tolist()), dtype=object,
                              count=len(rows))
        confidence = np.fromiter((e.confidence for e in entries), dtype=np.float64,
                                 count=len(rows))
        return cls(models, objects, classes, entries, model[order], obj[order],
                   klass[order], confidence)

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

    def masked(self, keep: np.ndarray) -> "ObservationView":
        """The rows where ``keep`` is True, on the same universe."""
        return ObservationView(self.models, self.objects, self.classes,
                               *(a[keep] for a in (self.entries, self.model, self.obj,
                                                   self.cls, self.confidence)))


@dataclass(frozen=True)
class ObservationSet:
    """Predictions keyed to shared object identities.

    ``objects`` is the full object universe, including objects no model
    predicted anything for; those stay relevant as the normalization base
    for inconsistency scores.  ``view`` holds the same entries as arrays
    (:class:`ObservationView`); building it validates the entries.
    """

    entries: frozenset
    objects: frozenset
    models: frozenset
    classes: frozenset

    def __post_init__(self):
        self.view  # noqa: B018 -- encoding checks every entry

    @cached_property
    def view(self) -> ObservationView:
        return ObservationView.encode(self)

    def subset(self, keep: np.ndarray) -> "ObservationSet":
        """The entries where ``keep`` (a mask in ``view`` order) is True, on
        the same universe; their view is this one's, masked."""
        view = self.view.masked(keep)
        out = object.__new__(ObservationSet)
        # seeding the cached view first spares __post_init__ a re-encoding
        out.__dict__["view"] = view
        out.__init__(frozenset(view.entries.tolist()), self.objects,
                     self.models, self.classes)
        return out

    @classmethod
    def from_entries(cls, entries: Iterable[Observation],
                     objects: Optional[Iterable[str]] = None,
                     models: Optional[Iterable[str]] = None,
                     classes: Optional[Iterable[str]] = None) -> "ObservationSet":
        entries = frozenset(entries)
        objs = set(objects) if objects is not None else set()
        mods = set(models) if models is not None else set()
        clss = set(classes) if classes is not None else set()
        objs.update(e.object_id for e in entries)
        mods.update(e.model_id for e in entries)
        clss.update(e.class_id for e in entries)
        return cls(entries, frozenset(objs), frozenset(mods), frozenset(clss))

    def atoms(self) -> frozenset:
        """Distinct (class_id, object_id) assignment atoms."""
        return frozenset((e.class_id, e.object_id) for e in self.entries)


@dataclass(frozen=True)
class CoverageReport:
    """Objects left without any matched prediction."""

    uncovered: tuple

    @property
    def n_uncovered(self) -> int:
        return len(self.uncovered)


def coverage_report(obs: ObservationSet) -> CoverageReport:
    covered = {e.object_id for e in obs.entries}
    return CoverageReport(tuple(sorted(obs.objects - covered)))


# Ground-truth objects per IoU block: bounds stage one's scratch arrays at
# _IOU_BLOCK x (detections of one model in one image).
_IOU_BLOCK = 32


def _box_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """Box corners as an ``(n, 4)`` float array."""
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _iou_block(gts: np.ndarray, dets: np.ndarray) -> np.ndarray:
    """IoU of every ground-truth row against every detection row, ``(G, K)``.

    Follows :func:`compute_iou` (detection first) operation for operation,
    so each value equals ``compute_iou(det, gt)`` exactly.
    """
    area_g = (gts[:, 2] - gts[:, 0]) * (gts[:, 3] - gts[:, 1])
    area_d = (dets[:, 2] - dets[:, 0]) * (dets[:, 3] - dets[:, 1])
    if (area_g <= 0.0).any() or (area_d <= 0.0).any():
        raise InputError("IoU undefined for zero-area boxes")
    g = gts[:, None, :]
    ix = np.minimum(dets[:, 2], g[..., 2]) - np.maximum(dets[:, 0], g[..., 0])
    iy = np.minimum(dets[:, 3], g[..., 3]) - np.maximum(dets[:, 1], g[..., 1])
    # disjoint pairs get inter = 0 and so IoU 0.0, as in compute_iou
    inter = np.where((ix > 0.0) & (iy > 0.0), ix * iy, 0.0)
    return inter / (area_d + area_g[:, None] - inter)


class _DetGroup(NamedTuple):
    """One model's detections in one image as ``(input position, detection)``
    pairs, high confidence first."""

    pairs: list
    boxes: np.ndarray
    used: np.ndarray


def match_detections(gt: Sequence[GroundTruthObject],
                     detections: Sequence[Detection],
                     primary_iou: float = 0.90,
                     models: Optional[Iterable[str]] = None,
                     classes: Optional[Iterable[str]] = None) -> ObservationSet:
    """Resolve detections onto ground-truth object identities.

    Stage 1 runs independently per model: objects are visited in input
    order and each takes that model's highest-confidence unused detection
    overlapping it with IoU strictly above ``primary_iou``.  Objects still
    untouched by every model afterwards get a second chance: the unused
    detection (any model) of the object's own image with the highest
    positive IoU.  Each detection is consumed by at most one object, and
    each object keeps at most one entry per model.

    IoU is computed with numpy per (image, model), ``_IOU_BLOCK`` objects
    at a time, and equals :func:`compute_iou` bit for bit.
    """
    if not (0.0 < primary_iou <= 1.0):
        raise InputError(f"primary_iou must be in (0, 1]: {primary_iou!r}")
    seen_ids = set()
    for g in gt:
        if g.object_id in seen_ids:
            raise InputError(f"duplicate ground-truth object_id {g.object_id!r}")
        seen_ids.add(g.object_id)

    gt_by_image: dict = {}
    for g in gt:
        gt_by_image.setdefault(g.image_id, []).append(g)

    # detections keyed by (image, model), sorted high confidence first;
    # ties keep input order
    det_index: dict = {}
    for pos, d in enumerate(detections):
        det_index.setdefault((d.image_id, d.model_id), []).append((pos, d))
    model_ids = sorted({d.model_id for d in detections})

    entries = []
    matched_objects = set()
    groups_by_image: dict = {}
    for image_id, objs in gt_by_image.items():
        groups = []
        for model_id in model_ids:
            pairs = det_index.get((image_id, model_id))
            if pairs:
                pairs.sort(key=lambda pd: (-pd[1].confidence, pd[0]))
                groups.append(_DetGroup(pairs, _box_array(d.bbox for _, d in pairs),
                                        np.zeros(len(pairs), dtype=bool)))
        if not groups:
            continue
        groups_by_image[image_id] = groups
        gt_boxes = _box_array(g.bbox for g in objs)

        for grp in groups:
            for start in range(0, len(objs), _IOU_BLOCK):
                block = gt_boxes[start:start + _IOU_BLOCK]
                rows, cols = np.nonzero(_iou_block(block, grp.boxes) > primary_iou)
                # rows ascend (object input order), columns ascend within a
                # row (confidence order): the first unused column wins
                done = -1
                for r, c in zip(rows.tolist(), cols.tolist()):
                    if r == done or grp.used[c]:
                        continue
                    done = r
                    grp.used[c] = True
                    g, (_, d) = objs[start + r], grp.pairs[c]
                    entries.append(Observation(g.object_id, d.model_id,
                                               d.class_id, d.confidence))
                    matched_objects.add(g.object_id)

    for image_id, groups in groups_by_image.items():
        for g in gt_by_image[image_id]:
            if g.object_id in matched_objects:
                continue
            g_box = _box_array([g.bbox])
            best = None
            for grp in groups:
                ious = _iou_block(g_box, grp.boxes)[0]
                for c in np.flatnonzero((ious > 0.0) & ~grp.used).tolist():
                    pos, d = grp.pairs[c]
                    key = (-float(ious[c]), -d.confidence, d.model_id, pos)
                    if best is None or key < best[0]:
                        best = (key, grp, c)
            if best is not None:
                _, grp, c = best
                grp.used[c] = True
                _, d = grp.pairs[c]
                entries.append(Observation(g.object_id, d.model_id,
                                           d.class_id, d.confidence))
                matched_objects.add(g.object_id)

    all_models = set(models) if models is not None else set(model_ids)
    all_classes = set(classes) if classes is not None else set()
    all_classes.update(d.class_id for d in detections)
    all_classes.update(g.class_id for g in gt)
    return ObservationSet.from_entries(
        entries,
        objects=[g.object_id for g in gt],
        models=all_models,
        classes=all_classes,
    )


def ground_truth_labels(gt: Sequence[GroundTruthObject]) -> dict:
    return {g.object_id: g.class_id for g in gt}


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
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            yield lineno, rec


def _require(rec: Mapping, key: str, path: str, lineno: int):
    if key not in rec:
        raise InputError(f"{path}:{lineno}: missing field {key!r}")
    return rec[key]


def _parse_bbox(raw, path: str, lineno: int) -> BoundingBox:
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise InputError(f"{path}:{lineno}: bbox must be [x_min, y_min, x_max, y_max]")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (TypeError, ValueError, InputError) as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from exc


def _parse_confidence(raw, path: str, lineno: int) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InputError(f"{path}:{lineno}: confidence must be a number: {raw!r}") from None


def load_predictions(path: str, model_id: Optional[str] = None) -> list:
    out = []
    for lineno, rec in read_jsonl(path):
        det = Detection(
            image_id=str(_require(rec, "image_id", path, lineno)),
            model_id=str(_require(rec, "model_id", path, lineno)),
            class_id=str(_require(rec, "class_id", path, lineno)),
            confidence=_parse_confidence(_require(rec, "confidence", path, lineno),
                                         path, lineno),
            bbox=_parse_bbox(_require(rec, "bbox", path, lineno), path, lineno),
        )
        if model_id is not None and det.model_id != model_id:
            raise InputError(
                f"{path}:{lineno}: model_id {det.model_id!r} does not match manifest entry {model_id!r}")
        out.append(det)
    return out


def load_ground_truth(path: str) -> list:
    out = []
    seen = set()
    for lineno, rec in read_jsonl(path):
        g = GroundTruthObject(
            image_id=str(_require(rec, "image_id", path, lineno)),
            object_id=str(_require(rec, "object_id", path, lineno)),
            class_id=str(_require(rec, "class_id", path, lineno)),
            bbox=_parse_bbox(_require(rec, "bbox", path, lineno), path, lineno),
        )
        if g.object_id in seen:
            raise InputError(f"{path}:{lineno}: duplicate object_id {g.object_id!r}")
        seen.add(g.object_id)
        out.append(g)
    return out


@dataclass(frozen=True)
class Dataset:
    models: tuple
    classes: tuple
    ground_truth: tuple
    detections: tuple
    manifest_path: str = ""

    def labels(self) -> dict:
        return ground_truth_labels(self.ground_truth)


def load_dataset(manifest_path: str) -> Dataset:
    """Load a manifest plus all files it references, validating as it goes."""
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

    detections = []
    for m in models:
        detections.extend(load_predictions(resolve(preds_map[m]), model_id=m))
    gt = load_ground_truth(resolve(manifest["ground_truth"]))

    class_set = set(classes)
    for d in detections:
        if d.class_id not in class_set:
            raise InputError(f"prediction for unknown class {d.class_id!r} (model {d.model_id!r})")
    for g in gt:
        if g.class_id not in class_set:
            raise InputError(f"ground-truth object {g.object_id!r} has unknown class {g.class_id!r}")

    return Dataset(tuple(models), tuple(classes), tuple(gt), tuple(detections),
                   manifest_path=os.path.abspath(manifest_path))


def observations_from_dataset(ds: Dataset, primary_iou: float = 0.90) -> ObservationSet:
    return match_detections(list(ds.ground_truth), list(ds.detections),
                            primary_iou=primary_iou,
                            models=ds.models, classes=ds.classes)


def write_predictions(path: str, detections: Iterable[Detection]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in detections:
            fh.write(json.dumps({
                "image_id": d.image_id,
                "model_id": d.model_id,
                "class_id": d.class_id,
                "confidence": round(float(d.confidence), 6),
                "bbox": d.bbox.as_list(),
            }) + "\n")


def write_ground_truth(path: str, gt: Iterable[GroundTruthObject]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in gt:
            fh.write(json.dumps({
                "image_id": g.image_id,
                "object_id": g.object_id,
                "class_id": g.class_id,
                "bbox": g.bbox.as_list(),
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
