"""Boxes, IoU, the two-stage matcher, and JSONL/dataset round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse.model_io import (BoundingBox, Detection, GroundTruthObject,
                             InputError, Observation, ObservationSet,
                             _box_array, _iou_block, compute_iou,
                             coverage_report, ground_truth_labels,
                             load_dataset, load_ground_truth, load_predictions,
                             match_detections, observations_from_dataset,
                             write_ground_truth, write_manifest,
                             write_predictions)

from conftest import obs_of
from test_acceptance import _reference_match


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


# ---------------------------------------------------------------- geometry

def test_iou_identical_boxes():
    assert compute_iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0


def test_iou_half_overlap():
    # intersection 50, union 100
    assert compute_iou(box(0, 0, 10, 10), box(0, 0, 5, 10)) == 0.5


def test_iou_disjoint_and_touching():
    assert compute_iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0
    # shared edge has zero area
    assert compute_iou(box(0, 0, 1, 1), box(1, 0, 2, 1)) == 0.0


def test_iou_nested():
    assert compute_iou(box(0, 0, 10, 10), box(2, 2, 4, 4)) == pytest.approx(0.04)


def test_bbox_validation():
    with pytest.raises(InputError):
        box(5, 0, 5, 10)            # zero width
    with pytest.raises(InputError):
        box(0, 9, 10, 3)            # inverted
    with pytest.raises(InputError):
        box(0, 0, float("nan"), 1)
    assert box(0, 0, 4, 5).area == 20.0


def test_detection_confidence_validation():
    with pytest.raises(InputError):
        Detection("img", "f1", "car", 1.5, box(0, 0, 1, 1))
    with pytest.raises(InputError):
        Detection("img", "f1", "car", -0.1, box(0, 0, 1, 1))


finite = st.floats(min_value=-50, max_value=50, allow_nan=False, width=32)


@given(finite, finite, finite, finite,
       st.floats(min_value=0.5, max_value=20, width=32),
       st.floats(min_value=0.5, max_value=20, width=32))
def test_iou_symmetric_and_bounded(x0, y0, x1, y1, w, h):
    a = box(x0, y0, x0 + w, y0 + h)
    b = box(x1, y1, x1 + w, y1 + h)
    v = compute_iou(a, b)
    assert v == compute_iou(b, a)
    assert 0.0 <= v <= 1.0


coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
extent = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
boxes = st.builds(lambda x, y, w, h: box(x, y, x + w, y + h),
                  coord, coord, extent, extent).filter(lambda b: b.area > 0.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(boxes, min_size=1, max_size=5),
       st.lists(boxes, min_size=1, max_size=5))
def test_array_iou_is_bit_identical_to_compute_iou(gt_boxes, det_boxes):
    # some rows share corners, so touching and nested pairs come up too
    det_boxes = det_boxes + gt_boxes[:2]
    got = _iou_block(_box_array(gt_boxes), _box_array(det_boxes))
    assert got.shape == (len(gt_boxes), len(det_boxes))
    for i, g in enumerate(gt_boxes):
        for k, d in enumerate(det_boxes):
            assert float(got[i, k]).hex() == compute_iou(d, g).hex(), (g, d)


# ----------------------------------------------------------- observations

def test_observation_set_una():
    with pytest.raises(InputError, match="two entries"):
        obs_of([("o1", "f1", "car", 0.9), ("o1", "f1", "tree", 0.8)])


def test_observation_set_universe_widens_to_cover_entries():
    # a declared universe is a lower bound: ids seen in entries are added
    obs = obs_of([("o1", "f1", "car", 0.9)],
                 objects=["o2"], models=["f9"], classes=["tree"])
    assert obs.objects == frozenset({"o1", "o2"})
    assert obs.models == frozenset({"f1", "f9"})
    assert obs.classes == frozenset({"car", "tree"})


def test_observation_set_universes_and_atoms():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "car", 0.4),
                  ("o2", "f1", "tree", 0.7)],
                 objects=["o1", "o2", "o3"])
    assert obs.objects == frozenset({"o1", "o2", "o3"})
    assert obs.models == frozenset({"f1", "f2"})
    assert obs.atoms() == frozenset({("car", "o1"), ("tree", "o2")})
    rep = coverage_report(obs)
    assert rep.uncovered == ("o3",)


def by_object(obs):
    """object_id -> that object's entries, sorted."""
    out: dict = {}
    for e in sorted(obs.entries):
        out.setdefault(e.object_id, []).append(e)
    return out


def test_by_object_groups_entries():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.4),
                  ("o2", "f1", "tree", 0.7)])
    grouped = by_object(obs)
    assert {e.model_id for e in grouped["o1"]} == {"f1", "f2"}
    assert len(grouped["o2"]) == 1
    # the view's grid holds the same grouping, one class index per model
    v = obs.view
    for w, o in enumerate(v.objects):
        row = {v.models[f]: v.classes[k] for f, k in enumerate(v.grid[:, w]) if k >= 0}
        assert row == {e.model_id: e.class_id for e in grouped.get(o, [])}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["o1", "o2", "o3", "o4"]),
                          st.sampled_from(["f1", "f2", "f3"]),
                          st.sampled_from(["car", "tree", "pole"]),
                          st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                unique_by=lambda r: (r[0], r[1])),
       st.data())
def test_view_and_subset_match_the_entries(rows, data):
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4", "o5"],
                 models=["f1", "f2", "f3", "f4"], classes=["car", "tree"])
    v = obs.view
    assert v.models == tuple(sorted(obs.models))
    assert v.objects == tuple(sorted(obs.objects))
    assert v.classes == tuple(sorted(obs.classes))
    assert v.model.dtype == v.obj.dtype == v.cls.dtype == np.int64
    assert v.confidence.dtype == np.float64
    assert sorted(v.entries.tolist()) == sorted(obs.entries)
    for i, e in enumerate(v.entries):
        assert (v.models[v.model[i]], v.objects[v.obj[i]], v.classes[v.cls[i]],
                v.confidence[i]) == (e.model_id, e.object_id, e.class_id, e.confidence)
        assert v.grid[v.model[i], v.obj[i]] == v.cls[i]
    assert (v.grid >= 0).sum() == len(obs.entries)
    for f in range(len(v.models)):
        for c in range(len(v.classes)):
            rows_fc = v.entries[v.pair_rows(f, c)].tolist()
            assert rows_fc == sorted(
                (e for e in obs.entries if (e.model_id, e.class_id) ==
                 (v.models[f], v.classes[c])), key=lambda e: e.object_id)

    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                       max_size=len(rows))), dtype=bool)
    sub = obs.subset(keep)
    want = obs_of([tuple(e) for e in v.entries[keep]], objects=obs.objects,
                  models=obs.models, classes=obs.classes)
    assert sub == want
    for name in ("entries", "model", "obj", "cls", "confidence", "grid", "pair_start"):
        assert np.array_equal(getattr(sub.view, name), getattr(want.view, name)), name


def test_observation_set_rejects_entries_outside_the_universe():
    e = Observation("o1", "f1", "car", 0.9)
    for field, objects, models, classes in (
            ("object", {"o2"}, {"f1"}, {"car"}),
            ("model", {"o1"}, {"f2"}, {"car"}),
            ("class", {"o1"}, {"f1"}, {"tree"})):
        with pytest.raises(InputError, match=f"unknown {field}"):
            ObservationSet(frozenset({e}), frozenset(objects), frozenset(models),
                           frozenset(classes))


# ----------------------------------------------------------------- matcher

GT_BOX = box(0, 0, 10, 10)


def gt(obj, cls="car", image="img1", b=GT_BOX):
    return GroundTruthObject(image, obj, cls, b)


def det(model, cls, conf, b, image="img1"):
    return Detection(image, model, cls, conf, b)


def test_matcher_iou_threshold_validation():
    with pytest.raises(InputError):
        match_detections([gt("o1")], [], primary_iou=0.0)
    with pytest.raises(InputError):
        match_detections([gt("o1")], [], primary_iou=1.5)
    # 1.0 is allowed even though nothing can exceed it
    obs = match_detections([gt("o1")], [det("f1", "car", 0.9, GT_BOX)],
                           primary_iou=1.0)
    assert obs.objects == frozenset({"o1"})


def test_matcher_duplicate_gt_rejected():
    with pytest.raises(InputError, match="duplicate ground-truth"):
        match_detections([gt("o1"), gt("o1")], [])


def test_matcher_primary_match_and_fields():
    obs = match_detections([gt("o1", cls="car")],
                           [det("f1", "tree", 0.8, box(0, 0, 10, 9.5))],
                           primary_iou=0.9)
    assert obs.entries == frozenset({Observation("o1", "f1", "tree", 0.8)})
    assert obs.classes == frozenset({"car", "tree"})


def test_matcher_primary_iou_is_strict():
    # f2's detection sits at IoU exactly 0.9: stage one must skip it, and
    # because f1 already matched the object, stage two never fires for f2.
    dets = [det("f1", "car", 0.5, GT_BOX),
            det("f2", "car", 0.99, box(0, 0, 10, 9))]
    obs = match_detections([gt("o1")], dets, primary_iou=0.9)
    assert {e.model_id for e in obs.entries} == {"f1"}


def test_matcher_prefers_confident_detection():
    dets = [det("f1", "car", 0.6, GT_BOX),
            det("f1", "tree", 0.9, box(0, 0, 10, 9.5))]
    obs = match_detections([gt("o1")], dets, primary_iou=0.9)
    (entry,) = obs.entries
    assert entry.confidence == 0.9 and entry.class_id == "tree"


def test_matcher_confidence_tie_keeps_first_listed():
    dets = [det("f1", "car", 0.7, GT_BOX),
            det("f1", "tree", 0.7, box(0, 0, 10, 9.5))]
    (entry,) = match_detections([gt("o1")], dets, primary_iou=0.9).entries
    assert entry.class_id == "car"


def test_matcher_detection_used_once():
    # Both objects overlap the single detection above threshold; the first
    # ground-truth object in input order consumes it.
    gts = [gt("o1", b=GT_BOX), gt("o2", b=box(0, 0, 10, 9.5))]
    obs = match_detections(gts, [det("f1", "car", 0.9, GT_BOX)],
                           primary_iou=0.9)
    assert {e.object_id for e in obs.entries} == {"o1"}


def test_matcher_models_independent():
    dets = [det("f1", "car", 0.9, GT_BOX), det("f2", "tree", 0.3, GT_BOX)]
    obs = match_detections([gt("o1")], dets, primary_iou=0.9)
    assert {(e.model_id, e.class_id) for e in obs.entries} == {
        ("f1", "car"), ("f2", "tree")}


def test_matcher_fallback_picks_highest_iou():
    # No detection clears the primary threshold, so the fallback assigns the
    # single best-overlap detection: f2 at IoU 0.5 beats f1 at 0.4 even
    # though f1 is more confident.
    dets = [det("f1", "car", 0.99, box(0, 0, 10, 4)),
            det("f2", "tree", 0.10, box(0, 0, 10, 5))]
    obs = match_detections([gt("o1")], dets, primary_iou=0.9)
    assert {(e.model_id, e.class_id) for e in obs.entries} == {("f2", "tree")}


def test_matcher_fallback_needs_positive_overlap():
    obs = match_detections([gt("o1")],
                           [det("f1", "car", 0.9, box(50, 50, 60, 60))],
                           primary_iou=0.9)
    assert obs.entries == frozenset()
    assert coverage_report(obs).uncovered == ("o1",)


def test_matcher_respects_image_boundaries():
    obs = match_detections([gt("o1", image="img1")],
                           [det("f1", "car", 0.9, GT_BOX, image="img2")],
                           primary_iou=0.9)
    assert obs.entries == frozenset()


def test_matcher_declared_models_widen_universe():
    obs = match_detections([gt("o1")], [det("f1", "car", 0.9, GT_BOX)],
                           primary_iou=0.9, models=("f1", "f2"))
    assert obs.models == frozenset({"f1", "f2"})


def test_matcher_fallback_contention_in_one_image():
    # Nothing clears 0.9, so both objects fall back.  o1 comes first in
    # input order and takes the f1/f2 tie at IoU 0.5 and equal confidence,
    # broken by model id; o2 gets the remaining detection.
    gts = [gt("o1"), gt("o2", b=box(0, 0, 10, 8))]
    dets = [det("f2", "tree", 0.7, box(0, 0, 10, 5)),
            det("f1", "car", 0.7, box(0, 5, 10, 10))]
    obs = match_detections(gts, dets, primary_iou=0.9)
    assert obs.entries == frozenset({Observation("o1", "f1", "car", 0.7),
                                     Observation("o2", "f2", "tree", 0.7)})
    assert obs.entries == frozenset(
        Observation(*row) for row in _reference_match(gts, dets, 0.9))


def test_matcher_rejects_zero_area_boxes():
    # corners that differ but whose area underflows to zero
    tiny = box(0.0, 0.0, 1e-200, 1e-200)
    with pytest.raises(InputError, match="zero-area"):
        match_detections([gt("o1", b=tiny)], [det("f1", "car", 0.9, GT_BOX)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matcher_matches_reference_on_crowded_scenes(data):
    """Objects closer than a box width compete for the same detections in
    both stages; confidences repeat, so the input-order and model-id
    tie-breaks decide too."""
    threshold = data.draw(st.sampled_from((0.1, 0.5, 0.9, 1.0)), label="iou")
    models = ("f1", "f2", "f3")
    gts, dets = [], []
    for img in ("img1", "img2")[:data.draw(st.integers(1, 2))]:
        n_obj = data.draw(st.integers(1, 6))
        xs = data.draw(st.lists(st.integers(0, 12), min_size=n_obj,
                                max_size=n_obj))
        for i, x in enumerate(xs):
            gts.append(gt(f"{img}-o{i}", image=img, b=box(x, 0, x + 10, 10)))
        for _ in range(data.draw(st.integers(0, 10))):
            x = data.draw(st.sampled_from(xs)) + data.draw(st.integers(-3, 3))
            y = data.draw(st.integers(-2, 2))
            w = data.draw(st.sampled_from((8, 10, 12)))
            dets.append(det(data.draw(st.sampled_from(models)), "car",
                            data.draw(st.sampled_from((0.5, 0.7, 0.9))),
                            box(x, y, x + w, y + 10), image=img))
    obs = match_detections(gts, dets, primary_iou=threshold)
    assert set(map(tuple, obs.entries)) == _reference_match(gts, dets, threshold)
    assert obs.objects == {g.object_id for g in gts}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_matcher_primary_matches_shrink_with_threshold(data):
    """On well-separated scenes (each detection overlaps exactly one object)
    the number of matched entries never grows as the threshold rises."""
    n_obj = data.draw(st.integers(1, 4))
    gts = [gt(f"o{i}", b=box(100 * i, 0, 100 * i + 50, 50)) for i in range(n_obj)]
    dets = []
    for i in range(n_obj):
        for m in ("f1", "f2"):
            if not data.draw(st.booleans()):
                continue
            dx = data.draw(st.integers(0, 10))
            dy = data.draw(st.integers(0, 10))
            conf = data.draw(st.floats(0.1, 1.0))
            dets.append(det(m, "car", float(conf),
                            box(100 * i + dx, dy, 100 * i + 50 + dx, 50 + dy)))
    lo, hi = sorted(data.draw(st.tuples(
        st.sampled_from((0.3, 0.5, 0.7, 0.9)),
        st.sampled_from((0.3, 0.5, 0.7, 0.9)))))
    n_lo = len(match_detections(gts, dets, primary_iou=lo).entries)
    n_hi = len(match_detections(gts, dets, primary_iou=hi).entries)
    assert n_hi <= n_lo


# ----------------------------------------------------------------- file io

def test_predictions_round_trip(tmp_path):
    path = str(tmp_path / "preds.jsonl")
    dets = [det("f1", "car", 0.123456789, GT_BOX),
            det("f1", "tree", 0.5, box(1, 2, 3, 4), image="img2")]
    write_predictions(path, dets)
    back = load_predictions(path, model_id="f1")
    assert len(back) == 2
    # confidences are stored at six decimal places
    assert back[0].confidence == pytest.approx(0.123457, abs=5e-7)
    assert back[1].bbox.as_list() == [1.0, 2.0, 3.0, 4.0]


def test_load_predictions_reports_bad_line(tmp_path):
    path = tmp_path / "preds.jsonl"
    good = json.dumps({"image_id": "i", "model_id": "f1", "class_id": "car",
                       "confidence": 0.5, "bbox": [0, 0, 1, 1]})
    path.write_text(good + "\nnot json\n")
    with pytest.raises(InputError, match=rf"{path}:2"):
        load_predictions(str(path))


@pytest.mark.parametrize("conf", ["x", None, [0.5]])
def test_load_predictions_rejects_non_numeric_confidence(tmp_path, conf):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"image_id": "i", "model_id": "f1",
                                "class_id": "car", "confidence": conf,
                                "bbox": [0, 0, 1, 1]}) + "\n")
    with pytest.raises(InputError, match=rf"{path}:1: confidence must be a number"):
        load_predictions(str(path))


def test_load_predictions_missing_field_and_bad_bbox(tmp_path):
    path = tmp_path / "preds.jsonl"
    rec = {"image_id": "i", "model_id": "f1", "class_id": "car",
           "confidence": 0.5}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(InputError, match="missing field 'bbox'"):
        load_predictions(str(path))
    rec["bbox"] = [0, 0, 1]
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(InputError, match="bbox must be"):
        load_predictions(str(path))


def test_load_predictions_model_mismatch(tmp_path):
    path = tmp_path / "preds.jsonl"
    rec = {"image_id": "i", "model_id": "f2", "class_id": "car",
           "confidence": 0.5, "bbox": [0, 0, 1, 1]}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(InputError, match="f2"):
        load_predictions(str(path), model_id="f1")


def test_ground_truth_round_trip_and_duplicates(tmp_path):
    path = str(tmp_path / "gt.jsonl")
    write_ground_truth(path, [gt("o1"), gt("o2", cls="tree")])
    back = load_ground_truth(path)
    assert [g.object_id for g in back] == ["o1", "o2"]
    assert ground_truth_labels(back) == {"o1": "car", "o2": "tree"}
    write_ground_truth(path, [gt("o1"), gt("o1")])
    with pytest.raises(InputError, match="duplicate object_id"):
        load_ground_truth(path)


def _write_tiny_dataset(tmp_path):
    gt_path = str(tmp_path / "gt.jsonl")
    write_ground_truth(gt_path, [gt("o1", cls="car"), gt("o2", cls="tree",
                                                         b=box(100, 0, 110, 10))])
    for m in ("f1", "f2"):
        write_predictions(str(tmp_path / f"{m}.jsonl"),
                          [det(m, "car", 0.8, GT_BOX),
                           det(m, "tree", 0.6, box(100, 0, 110, 10))])
    manifest = str(tmp_path / "manifest.json")
    write_manifest(manifest, ["f1", "f2"], ["car", "tree"],
                   {"f1": "f1.jsonl", "f2": "f2.jsonl"}, "gt.jsonl")
    return manifest


def test_dataset_round_trip(tmp_path):
    manifest = _write_tiny_dataset(tmp_path)
    ds = load_dataset(manifest)
    assert ds.models == ("f1", "f2")
    assert ds.classes == ("car", "tree")
    assert ds.labels() == {"o1": "car", "o2": "tree"}
    obs = observations_from_dataset(ds, primary_iou=0.9)
    assert obs.entries == frozenset({
        Observation("o1", "f1", "car", 0.8), Observation("o2", "f1", "tree", 0.6),
        Observation("o1", "f2", "car", 0.8), Observation("o2", "f2", "tree", 0.6)})


def test_manifest_validation(tmp_path):
    manifest = _write_tiny_dataset(tmp_path)
    raw = json.loads(open(manifest).read())

    bad = dict(raw)
    del bad["classes"]
    p = tmp_path / "m1.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(InputError, match="missing field 'classes'"):
        load_dataset(str(p))

    bad = dict(raw)
    bad["predictions"] = {"f1": "f1.jsonl"}
    p = tmp_path / "m2.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(InputError, match="cover exactly"):
        load_dataset(str(p))

    bad = dict(raw)
    bad["classes"] = ["car"]
    p = tmp_path / "m3.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(InputError, match="unknown class"):
        load_dataset(str(p))


@pytest.mark.parametrize("key, value, message", [
    ("models", 5, "'models' must be a list of strings"),
    ("models", "f1", "'models' must be a list of strings"),
    ("classes", ["car", 1], "'classes' must be a list of strings"),
    ("predictions", ["f1.jsonl", "f2.jsonl"], "'predictions' must map"),
    ("predictions", {"f1": "f1.jsonl", "f2": 2}, "'predictions' must map"),
    ("ground_truth", None, "'ground_truth' must be a file path"),
])
def test_manifest_field_types(tmp_path, key, value, message):
    manifest = _write_tiny_dataset(tmp_path)
    raw = json.loads(open(manifest).read())
    raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(InputError, match=message):
        load_dataset(str(p))


def test_jsonl_records_must_be_objects(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text(json.dumps({"image_id": "i", "object_id": "o1",
                                "class_id": "car", "bbox": [0, 0, 1, 1]})
                    + "\n5\n")
    with pytest.raises(InputError, match=rf"{path}:2: expected a JSON object"):
        load_ground_truth(str(path))
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[1, 2]\n")
    with pytest.raises(InputError, match="expected a JSON object"):
        load_dataset(str(manifest))


def test_manifest_paths_resolve_relative_to_manifest(tmp_path, monkeypatch):
    sub = tmp_path / "data"
    sub.mkdir()
    manifest = _write_tiny_dataset(sub)
    monkeypatch.chdir(tmp_path)
    ds = load_dataset("data/manifest.json")
    assert len(ds.ground_truth) == 2
