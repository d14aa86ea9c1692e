"""Synthetic multi-model prediction scenarios.

A scenario draws ground-truth labels from a class prior and corrupts them
per model through a mixing confusion matrix ``(1 - t) * I + t * T_f`` whose
intensity ``t`` varies over *segments* of the test stream, so different
models are reliable in different regimes.  Each model's error target ``T_f``
shifts labels by a model-specific offset, giving models distinctive error
fingerprints.  Confidence is drawn from a high-mean Beta for correct
predictions and a low-mean Beta for wrong ones.

Training data uses one mild intensity per model so the error-detection
learner sees representative mistakes.  ``write_dataset`` lays every object
out on a disjoint unit grid of boxes so the bounding-box matcher
reconstructs the generated observation set exactly.
"""

import os
from collections import Counter
from itertools import repeat
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model_io import (DEFAULT_CLASSES, GROUND_TRUTH_LINE, PREDICTION_LINE, InputError,
                       ObservationSet, index_of, json_boxes, json_numbers, json_strings,
                       read_json, write_json, write_manifest, write_rows)


class Segment(NamedTuple):
    weight: float
    intensities: Tuple[float, ...]  # per model, in model order


class ShiftScenario:
    """A validated scenario; its attributes, in order, are the keys of its
    config file (:func:`save_scenario`)."""

    def __init__(self, name: str, models: Tuple[str, ...], classes: Tuple[str, ...],
                 class_prior: Tuple[float, ...], segments: Tuple[Segment, ...],
                 train_intensities: Tuple[float, ...], n_train: int, n_test: int, seed: int,
                 conf_correct: Tuple[float, float] = (9.0, 2.0),
                 conf_wrong: Tuple[float, float] = (2.5, 4.0)):
        self.name, self.models, self.classes, self.class_prior = (
            name, models, classes, class_prior)
        self.segments, self.train_intensities = segments, train_intensities
        self.n_train, self.n_test, self.seed = n_train, n_test, seed
        self.conf_correct, self.conf_wrong = conf_correct, conf_wrong
        F, C = len(self.models), len(self.classes)
        if F < 2 or C < 2:
            raise InputError("need at least two models and two classes")
        if len(set(self.models)) != F or len(set(self.classes)) != C:
            raise InputError("model and class ids must be unique")
        # a NaN fails every comparison, so only the positive tests reject it
        if (len(self.class_prior) != C or not all(p >= 0.0 for p in self.class_prior)
                or abs(sum(self.class_prior) - 1.0) > 1e-9):
            raise InputError("class_prior must be a distribution over the classes")
        for name, pair in (("conf_correct", self.conf_correct), ("conf_wrong", self.conf_wrong)):
            if len(pair) != 2 or not all(0.0 < v < float("inf") for v in pair):
                raise InputError(f"{name} must be two finite numbers > 0: {list(pair)}")
        if len(self.train_intensities) != F:
            raise InputError("one training intensity per model required")
        if abs(sum(s.weight for s in self.segments) - 1.0) > 1e-9:
            raise InputError("segment weights must sum to 1")
        for s in self.segments:
            if len(s.intensities) != F:
                raise InputError("each segment needs one intensity per model")
            for t in s.intensities + (s.weight,):
                if not (0.0 <= t <= 1.0):
                    raise InputError(f"intensity/weight out of [0, 1]: {t}")
        for t in self.train_intensities:
            if not (0.0 <= t <= 1.0):
                raise InputError(f"train intensity out of [0, 1]: {t}")
        if self.n_train < 0 or self.n_test < 0:
            raise InputError("sample counts must be non-negative")
        if max(self.n_train, self.n_test) > 2 ** 63 - 1:
            raise InputError("sample counts must be at most 2**63 - 1")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative: {self.seed}")

    def __eq__(self, other) -> bool:
        return isinstance(other, ShiftScenario) and vars(self) == vars(other)


def error_shift(model_index: int, n_classes: int) -> int:
    """Model-specific label offset in 1..n_classes-1 (never the identity)."""
    return 1 + model_index % (n_classes - 1)


class SynthData(NamedTuple):
    scenario: ShiftScenario
    train: ObservationSet
    train_labels: Mapping[str, str]
    test: ObservationSet
    test_labels: Mapping[str, str]
    meta: Mapping


def _segment_of_index(scenario: ShiftScenario, n: int) -> np.ndarray:
    """Deterministic block assignment of object index -> segment index."""
    bounds = np.cumsum([s.weight for s in scenario.segments])
    edges = np.floor(bounds * n + 1e-9).astype(np.int64)
    seg = np.zeros(n, dtype=np.int64)
    start = 0
    for k, end in enumerate(edges):
        seg[start:end] = k
        start = end
    seg[start:] = len(scenario.segments) - 1
    return seg


def _sample_block(rng: np.random.Generator, scenario: ShiftScenario,
                  prefix: str, n: int, intensity_of) -> Tuple[ObservationSet, dict]:
    C = len(scenario.classes)
    labels_idx = rng.choice(C, size=n, p=np.asarray(scenario.class_prior))
    object_ids = [f"{prefix}{i:06d}" for i in range(n)]
    preds, confs = [], []
    for f in range(len(scenario.models)):
        t_vec = intensity_of(f)
        shift = error_shift(f, C)
        u = rng.random(n)
        wrong = u < t_vec
        preds.append(np.where(wrong, (labels_idx + shift) % C, labels_idx))
        conf_hi = rng.beta(*scenario.conf_correct, size=n)
        conf_lo = rng.beta(*scenario.conf_wrong, size=n)
        conf = np.round(np.where(wrong, conf_lo, conf_hi), 6)
        confs.append(np.clip(conf, 0.0, 1.0))
    labels = dict(zip(object_ids, (scenario.classes[k] for k in labels_idx.tolist())))
    # universes sorted by id, rows as positions there, models in draw order
    models, objects, classes = (tuple(sorted(ids)) for ids in (
        scenario.models, object_ids, scenario.classes))
    cols = (np.repeat(index_of(models, scenario.models, "model"), n),
            np.tile(index_of(objects, object_ids, "object"), len(scenario.models)),
            np.array(index_of(classes, scenario.classes, "class"))[np.concatenate(preds)])
    order = np.lexsort((cols[1], cols[2], cols[0]))     # by (model, class, object)
    obs = ObservationSet(models, objects, classes,
                         *(a[order].tolist() for a in (*cols, np.concatenate(confs))))
    return obs, labels


def generate(scenario: ShiftScenario) -> SynthData:
    """Sample the scenario; a fixed seed gives identical output every time."""
    rng = np.random.default_rng(scenario.seed)

    train, train_labels = _sample_block(
        rng, scenario, "trn", scenario.n_train,
        lambda f: np.full(scenario.n_train, scenario.train_intensities[f]))

    seg = _segment_of_index(scenario, scenario.n_test)
    seg_intens = np.array([s.intensities for s in scenario.segments])  # (S, F)
    test, test_labels = _sample_block(
        rng, scenario, "tst", scenario.n_test,
        lambda f: seg_intens[seg, f])

    truth = index_of(test.classes, (test_labels[o] for o in test.objects), "class")
    hits = Counter(test.models[f] for f, w, c in zip(test.model, test.obj, test.cls)
                   if c == truth[w])
    meta = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "segment_sizes": np.bincount(seg, minlength=len(scenario.segments)).tolist()
        if scenario.n_test else [],
        "test_model_accuracy": {m: hits[m] / scenario.n_test if scenario.n_test else 0.0
                                for m in scenario.models},
    }
    return SynthData(scenario, train, train_labels, test, test_labels, meta)


# ---------------------------------------------------------------------------
# presets

# family -> (n_segments, reliable-regime intensity, shifted-regime intensity)
_FAMILIES = {
    "UM": (1, 0.15, 0.75),
    "BM": (2, 0.15, 0.75),
    "MM": (4, 0.20, 0.80),
    "AM": (6, 0.25, 0.85),
    "HUM": (1, 0.05, 0.95),
    "EG": (0, 0.05, 0.85),  # one segment per model, rotating reliability
}


def preset(name: str,
           n_models: int = 6,
           classes: Sequence[str] = DEFAULT_CLASSES,
           n_train: int = 1000,
           n_test: int = 2000,
           seed: int = 0,
           train_intensity: float = 0.15) -> ShiftScenario:
    """Named scenario template, e.g. ``UM_1`` or ``EG_1``.

    The family picks how many reliability regimes the test stream has; the
    variant index rotates which models own which regime.
    """
    try:
        family, variant_s = name.split("_", 1)
        variant = int(variant_s)
    except ValueError as exc:
        raise InputError(f"preset name must look like 'UM_1': {name!r}") from exc
    if family not in _FAMILIES or variant < 1:
        raise InputError(f"unknown preset {name!r}; families: {sorted(_FAMILIES)}")
    if n_models < 2:
        raise InputError(f"need at least two models: {n_models}")
    n_seg, low, high = _FAMILIES[family]
    if n_seg == 0:
        n_seg = n_models
    if n_seg > n_models:
        raise InputError(f"preset {name!r} needs at least {n_seg} models")

    models = tuple(f"m{k}" for k in range(n_models))
    segments = []
    for j in range(n_seg):
        home = (variant - 1 + j) % n_models
        intens = tuple(low if f == home else high for f in range(n_models))
        segments.append(Segment(1.0 / n_seg, intens))
    # make the weights sum to exactly 1.0
    segments[-1] = Segment(1.0 - (n_seg - 1) / n_seg, segments[-1].intensities)

    C = len(classes)
    return ShiftScenario(
        name=name,
        models=models,
        classes=tuple(classes),
        class_prior=tuple(1.0 / C for _ in range(C)),
        segments=tuple(segments),
        train_intensities=tuple(train_intensity for _ in range(n_models)),
        n_train=n_train,
        n_test=n_test,
        seed=seed,
    )


PRESET_FAMILIES = tuple(sorted(_FAMILIES))


# ---------------------------------------------------------------------------
# scenario config files


def save_scenario(path: str, scenario: ShiftScenario) -> None:
    write_json(path, {**vars(scenario), "segments": [s._asdict() for s in scenario.segments]})


def load_scenario(path: str, seed: Optional[int] = None) -> ShiftScenario:
    """The scenario in ``path``, with ``seed`` in place of the file's when
    given."""
    raw = read_json(path)
    try:
        return ShiftScenario(
            name=str(raw.get("name", os.path.basename(path))),
            models=tuple(str(m) for m in raw["models"]),
            classes=tuple(str(c) for c in raw["classes"]),
            class_prior=tuple(float(p) for p in raw["class_prior"]),
            segments=tuple(Segment(float(s["weight"]),
                                   tuple(float(t) for t in s["intensities"]))
                           for s in raw["segments"]),
            train_intensities=tuple(float(t) for t in raw["train_intensities"]),
            n_train=int(raw["n_train"]),
            n_test=int(raw["n_test"]),
            seed=int(raw["seed"] if seed is None else seed),
            conf_correct=tuple(float(v) for v in raw.get("conf_correct", (9.0, 2.0))),
            conf_wrong=tuple(float(v) for v in raw.get("conf_wrong", (2.5, 4.0))),
        )
    # OverflowError: an integer too large for a float, or an infinite count
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad scenario config: {exc}") from exc


# ---------------------------------------------------------------------------
# file export

_GRID_COLS = 1000
_CELL = 20.0
_BOX = 10.0
_PER_IMAGE = 500


def write_split(out_dir: str, obs: ObservationSet,
                labels: Mapping[str, str], classes: Sequence[str]) -> str:
    """Emit prediction/ground-truth files plus a manifest; returns its path.

    Objects are placed on a disjoint grid of unit boxes, every model's
    detection sharing its object's box, so matching at the default overlap
    threshold reproduces ``obs`` exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    # each object's image id and box are encoded once, for every file
    slot = np.arange(len(obs.objects))
    x, y = (slot % _GRID_COLS) * _CELL, (slot // _GRID_COLS) * _CELL
    box = np.array(json_boxes(np.stack([x, y, x + _BOX, y + _BOX], 1).tolist()), dtype=object)
    image = np.array(json_strings([f"img{k:05d}" for k in range(len(slot) // _PER_IMAGE + 1)]),
                     dtype=object)[slot // _PER_IMAGE]
    write_rows(os.path.join(out_dir, "gt.jsonl"), GROUND_TRUTH_LINE,
               image, json_strings(obs.objects), json_strings([labels[o] for o in obs.objects]), box)

    klass = np.array(json_strings(obs.classes), dtype=object)[obs.cls]
    # the generator rounds each confidence to six places: json.dumps writes
    # each as the six-place decimal
    conf = np.array(json_numbers(obs.confidence), dtype=object)
    model_of, obj = np.array(obs.model, dtype=np.int64), np.array(obs.obj, dtype=np.int64)
    preds_map = {}
    for f, (m, model) in enumerate(zip(obs.models, json_strings(obs.models))):
        rows = np.flatnonzero(model_of == f)
        rows = rows[np.argsort(obj[rows])]
        w = obj[rows]
        fname = f"preds_{m}.jsonl"
        write_rows(os.path.join(out_dir, fname), PREDICTION_LINE,
                   image[w], repeat(model), klass[rows], conf[rows], box[w])
        preds_map[m] = fname

    manifest_path = os.path.join(out_dir, "manifest.json")
    write_manifest(manifest_path, obs.models, list(classes), preds_map, "gt.jsonl")
    return manifest_path


def write_dataset(data: SynthData, out_dir: str) -> Tuple[str, str]:
    """Write train/ and test/ splits; returns both manifest paths."""
    train_manifest = write_split(os.path.join(out_dir, "train"),
                                 data.train, data.train_labels,
                                 data.scenario.classes)
    test_manifest = write_split(os.path.join(out_dir, "test"),
                                data.test, data.test_labels,
                                data.scenario.classes)
    save_scenario(os.path.join(out_dir, "scenario.json"), data.scenario)
    write_json(os.path.join(out_dir, "meta.json"), dict(data.meta), sort_keys=True)
    return train_manifest, test_manifest
