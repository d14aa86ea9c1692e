"""Records, the two-stage matcher, and JSONL/dataset round-trips."""

import gc
import json
import math
import pathlib
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse import model_io, synthgen
from abfuse.model_io import (DetectionTable, GroundTruthTable, InputError, Observation,
                             coverage_report,
                             ground_truth_labels, index_of, load_dataset,
                             load_ground_truth, load_predictions, match_detections,
                             observations_from_dataset, write_manifest)

from conftest import columns, obs_atoms, obs_of, tables
from oracles import (BoundingBox, Detection, GroundTruthObject, det_table, gt_table,
                     match_reference, read_columns_reference, read_jsonl_reference,
                     write_ground_truth, write_predictions, zero_area_rejected)


def box(x0, y0, x1, y1):
    return BoundingBox(x0, y0, x1, y1)


# ----------------------------------------------------------------- records

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


# ----------------------------------------------------------- observations

def test_observation_set_una():
    # the tests' builder (oracles.observation_set) keeps one entry per
    # (model, object)
    with pytest.raises(InputError, match="two entries"):
        obs_of([("o1", "f1", "car", 0.9), ("o1", "f1", "tree", 0.8)])


def test_observation_set_universe_widens_to_cover_entries():
    # a declared universe is a lower bound: ids seen in entries are added
    obs = obs_of([("o1", "f1", "car", 0.9)],
                 objects=["o2"], models=["f9"], classes=["tree"])
    assert obs.objects == ("o1", "o2")
    assert obs.models == ("f1", "f9")
    assert obs.classes == ("car", "tree")


def test_observation_set_universes_and_atoms():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "car", 0.4),
                  ("o2", "f1", "tree", 0.7)],
                 objects=["o1", "o2", "o3"])
    assert obs.objects == ("o1", "o2", "o3")
    assert obs.models == ("f1", "f2")
    assert obs_atoms(obs) == frozenset({("car", "o1"), ("tree", "o2")})
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
    # the set's pair masks hold the same grouping, one class per model
    n = len(obs.classes)
    for w, o in enumerate(obs.objects):
        row = {obs.models[k // n]: obs.classes[k % n]
               for k, m in enumerate(obs.pair_masks) if m >> w & 1}
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
    assert obs.models == ("f1", "f2", "f3", "f4")
    assert obs.objects == ("o1", "o2", "o3", "o4", "o5")
    assert obs.classes == tuple(sorted({"car", "tree"}.union(r[2] for r in rows)))
    assert {type(v) for k in ("model", "obj", "cls") for v in getattr(obs, k)} <= {int}
    assert {type(v) for v in obs.confidence} <= {float}
    # the entry of each row, in row order
    entries = [Observation(obs.objects[w], obs.models[f], obs.classes[c], x)
               for f, w, c, x in zip(obs.model, obs.obj, obs.cls, obs.confidence)]
    assert sorted(entries) == sorted(obs.entries)
    n = len(obs.classes)
    assert obs.pair_masks == [sum(1 << obs.obj[r] for r in range(len(entries))
                                  if obs.model[r] * n + obs.cls[r] == k)
                              for k in range(len(obs.models) * n)]
    for f in range(len(obs.models)):
        for c in range(len(obs.classes)):
            rows_fc = entries[obs.pair_rows(f, c)]
            assert rows_fc == sorted(
                (e for e in obs.entries if (e.model_id, e.class_id) ==
                 (obs.models[f], obs.classes[c])), key=lambda e: e.object_id)

    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    sub = obs.subset([i for i, k in enumerate(keep) if k])
    want = obs_of([tuple(e) for e, k in zip(entries, keep) if k], objects=obs.objects,
                  models=obs.models, classes=obs.classes)
    assert columns(sub) == columns(want)
    assert sub.entries == want.entries
    for name in ("model", "obj", "cls", "confidence", "pair_start", "pair_masks"):
        assert getattr(sub, name) == getattr(want, name), name
    # the coverage of any rows, and the rows within a coverage
    cov = obs.coverage([i for i, k in enumerate(keep) if k])
    assert cov == sub.coverage(range(len(sub.obj)))
    assert obs_atoms(sub) == {(e.class_id, e.object_id) for e in sub.entries}
    assert obs.rows_within(cov) == [r for r in range(len(entries))
                                    if cov[obs.cls[r]] >> obs.obj[r] & 1]


def test_observation_set_rejects_entries_outside_the_universe():
    # every constructor indexes ids through index_of, which rejects ids
    # outside the universe
    for field, universe, ids in (("object", ("o2",), ["o1"]),
                                 ("model", ("f2",), ["f1"]),
                                 ("class", ("tree",), ["car"])):
        with pytest.raises(InputError, match=f"unknown {field}"):
            index_of(universe, ids, field)


# ----------------------------------------------------------------- matcher

GT_BOX = box(0, 0, 10, 10)


def gt(obj, cls="car", image="img1", b=GT_BOX):
    return GroundTruthObject(image, obj, cls, b)


def det(model, cls, conf, b, image="img1"):
    return Detection(image, model, cls, conf, b)


def stage1_takes(g, d, threshold):
    """Whether stage 1 gives the object with box ``g`` model f1's detection
    with box ``d`` at ``threshold`` (below 1): whether their IoU is above
    it.  Model f0's detection on ``g`` itself keeps stage 2 from running."""
    dets = [det("f0", "car", 0.9, g), det("f1", "car", 0.9, d)]
    obs = match_detections(*tables([gt("o1", b=g)], dets), primary_iou=threshold)
    return "f1" in {e.model_id for e in obs.entries}


def test_iou_identical_boxes():
    assert stage1_takes(GT_BOX, GT_BOX, math.nextafter(1.0, 0.0))


def test_iou_half_overlap():
    # intersection 50, union 100: 0.5 exactly
    assert stage1_takes(GT_BOX, box(0, 0, 5, 10), math.nextafter(0.5, 0.0))
    assert not stage1_takes(GT_BOX, box(0, 0, 5, 10), 0.5)


def test_iou_disjoint_and_touching():
    assert not stage1_takes(box(0, 0, 1, 1), box(5, 5, 6, 6), 5e-324)
    # shared edge has zero area
    assert not stage1_takes(box(0, 0, 1, 1), box(1, 0, 2, 1), 5e-324)


def test_iou_nested():
    # intersection 4, union 100
    assert stage1_takes(GT_BOX, box(2, 2, 4, 4), math.nextafter(0.04, 0.0))
    assert not stage1_takes(GT_BOX, box(2, 2, 4, 4), 0.04)


def test_matcher_iou_threshold_validation():
    with pytest.raises(InputError):
        match_detections(*tables([gt("o1")], []), primary_iou=0.0)
    with pytest.raises(InputError):
        match_detections(*tables([gt("o1")], []), primary_iou=1.5)
    # 1.0 is allowed even though nothing can exceed it
    obs = match_detections(*tables([gt("o1")], [det("f1", "car", 0.9, GT_BOX)]),
                           primary_iou=1.0)
    assert obs.objects == ("o1",)


def test_matcher_duplicate_gt_rejected():
    # the message names the id that repeats, not the first one
    with pytest.raises(InputError, match="^duplicate ground-truth object_id 'b'$"):
        match_detections(*tables([gt("a"), gt("b"), gt("b")], []))


def test_matcher_primary_match_and_fields():
    obs = match_detections(*tables([gt("o1", cls="car")],
                                   [det("f1", "tree", 0.8, box(0, 0, 10, 9.5))]),
                           primary_iou=0.9)
    assert obs.entries == frozenset({Observation("o1", "f1", "tree", 0.8)})
    assert obs.classes == ("car", "tree")


def test_matcher_primary_iou_is_strict():
    # f2's detection sits at IoU exactly 0.9: stage one must skip it, and
    # because f1 already matched the object, stage two never fires for f2.
    dets = [det("f1", "car", 0.5, GT_BOX),
            det("f2", "car", 0.99, box(0, 0, 10, 9))]
    obs = match_detections(*tables([gt("o1")], dets), primary_iou=0.9)
    assert {e.model_id for e in obs.entries} == {"f1"}


def test_matcher_prefers_confident_detection():
    dets = [det("f1", "car", 0.6, GT_BOX),
            det("f1", "tree", 0.9, box(0, 0, 10, 9.5))]
    obs = match_detections(*tables([gt("o1")], dets), primary_iou=0.9)
    (entry,) = obs.entries
    assert entry.confidence == 0.9 and entry.class_id == "tree"


def test_matcher_confidence_tie_keeps_first_listed():
    dets = [det("f1", "car", 0.7, GT_BOX),
            det("f1", "tree", 0.7, box(0, 0, 10, 9.5))]
    (entry,) = match_detections(*tables([gt("o1")], dets), primary_iou=0.9).entries
    assert entry.class_id == "car"


def test_matcher_detection_used_once():
    # Both objects overlap the single detection above threshold; the first
    # ground-truth object in input order consumes it.
    gts = [gt("o1", b=GT_BOX), gt("o2", b=box(0, 0, 10, 9.5))]
    obs = match_detections(*tables(gts, [det("f1", "car", 0.9, GT_BOX)]),
                           primary_iou=0.9)
    assert {e.object_id for e in obs.entries} == {"o1"}


def test_matcher_models_independent():
    dets = [det("f1", "car", 0.9, GT_BOX), det("f2", "tree", 0.3, GT_BOX)]
    obs = match_detections(*tables([gt("o1")], dets), primary_iou=0.9)
    assert {(e.model_id, e.class_id) for e in obs.entries} == {
        ("f1", "car"), ("f2", "tree")}


def test_matcher_fallback_picks_highest_iou():
    # No detection clears the primary threshold, so the fallback assigns the
    # single best-overlap detection: f2 at IoU 0.5 beats f1 at 0.4 even
    # though f1 is more confident.
    dets = [det("f1", "car", 0.99, box(0, 0, 10, 4)),
            det("f2", "tree", 0.10, box(0, 0, 10, 5))]
    obs = match_detections(*tables([gt("o1")], dets), primary_iou=0.9)
    assert {(e.model_id, e.class_id) for e in obs.entries} == {("f2", "tree")}


def test_matcher_fallback_needs_positive_overlap():
    obs = match_detections(*tables([gt("o1")],
                                   [det("f1", "car", 0.9, box(50, 50, 60, 60))]),
                           primary_iou=0.9)
    assert obs.entries == frozenset()
    assert coverage_report(obs).uncovered == ("o1",)


def test_matcher_respects_image_boundaries():
    obs = match_detections(*tables([gt("o1", image="img1")],
                                   [det("f1", "car", 0.9, GT_BOX, image="img2")]),
                           primary_iou=0.9)
    assert obs.entries == frozenset()


def test_matcher_declared_models_widen_universe():
    obs = match_detections(*tables([gt("o1")], [det("f1", "car", 0.9, GT_BOX)]),
                           primary_iou=0.9, models=("f1", "f2"))
    assert obs.models == ("f1", "f2")


def test_matcher_fallback_contention_in_one_image():
    # Nothing clears 0.9, so both objects fall back.  o1 comes first in
    # input order and takes the f1/f2 tie at IoU 0.5 and equal confidence,
    # broken by model id; o2 gets the remaining detection.
    gts = [gt("o1"), gt("o2", b=box(0, 0, 10, 8))]
    dets = [det("f2", "tree", 0.7, box(0, 0, 10, 5)),
            det("f1", "car", 0.7, box(0, 5, 10, 10))]
    obs = match_detections(*tables(gts, dets), primary_iou=0.9)
    assert obs.entries == frozenset({Observation("o1", "f1", "car", 0.7),
                                     Observation("o2", "f2", "tree", 0.7)})
    assert obs.entries == frozenset(
        Observation(*row) for row in match_reference(gts, dets, 0.9))


def test_matcher_rejects_zero_area_boxes():
    # corners that differ but whose area underflows to zero
    tiny = box(0.0, 0.0, 1e-200, 1e-200)
    with pytest.raises(InputError, match="zero-area"):
        match_detections(*tables([gt("o1", b=tiny)], [det("f1", "car", 0.9, GT_BOX)]))


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
    obs = match_detections(*tables(gts, dets), primary_iou=threshold)
    assert set(map(tuple, obs.entries)) == match_reference(gts, dets, threshold)
    assert obs.objects == tuple(sorted(g.object_id for g in gts))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matcher_matches_reference_on_wide_scenes(data):
    """Objects spread over a wide x range and detections from 2 to 40 wide,
    or 500 wide, which stretches every later window of its image; so each
    object's sweep window starts and ends inside the image's detection
    list.  Edges that touch exactly (IoU 0), detections sharing an object's
    x_min and shuffled input order probe the window bounds; detections on
    an image with no object, a declared model universe and a zero-area box
    on either side probe the universes and the zero-area check."""
    threshold = data.draw(st.sampled_from((0.1, 0.5, 0.9)), label="iou")
    declared = data.draw(st.sampled_from((None, ("f1", "f9"))), label="models")
    models = ("f1", "f2", "f3")
    images = ("img1", "img2", "img3")[:data.draw(st.integers(1, 3))]
    gts, dets = [], []
    for img in images:
        n_obj = data.draw(st.integers(1, 8))
        xs = data.draw(st.lists(st.integers(0, 400), min_size=n_obj, max_size=n_obj))
        ws = data.draw(st.lists(st.sampled_from((5, 10, 20)), min_size=n_obj,
                                max_size=n_obj))
        for i, (x, w) in enumerate(zip(xs, ws)):
            gts.append(gt(f"{img}-o{i}", image=img, b=box(x, 0, x + w, 10)))
        for _ in range(data.draw(st.integers(0, 14))):
            w = data.draw(st.integers(2, 40) | st.just(500))
            i = data.draw(st.integers(0, n_obj - 1))
            x = data.draw(st.sampled_from((
                xs[i],                                   # shares its x_min
                xs[i] + data.draw(st.integers(-4, 4)),   # near the object
                xs[i] + ws[i],                           # touches its right edge
                xs[i] - w,                               # touches its left edge
                data.draw(st.integers(-50, 450)))))      # anywhere
            dets.append(det(data.draw(st.sampled_from(models)),
                            data.draw(st.sampled_from(("car", "tree"))),
                            data.draw(st.sampled_from((0.5, 0.7, 0.9))),
                            box(x, data.draw(st.integers(-1, 1)), x + w, 10),
                            image=img))
    for x in data.draw(st.lists(st.integers(0, 400), max_size=2)):
        dets.append(det(data.draw(st.sampled_from(models + ("f4",))), "car", 0.9,
                        box(x, 0, x + 10, 10), image="img9"))
    if data.draw(st.booleans()):
        # area 1e-400: zero, though the corners differ
        tiny = box(0.0, 0.0, 1e-200, 1e-200)
        image = data.draw(st.sampled_from(images + ("img8", "img9")))
        if data.draw(st.booleans()):
            gts.append(gt("tiny", image=image, b=tiny))
        else:
            dets.append(det("f2", "car", 0.5, tiny, image=image))
    dets = data.draw(st.permutations(dets))
    gts = data.draw(st.permutations(gts))
    args = tables(gts, dets)
    if zero_area_rejected(gts, dets):
        with pytest.raises(InputError, match="^IoU undefined for zero-area boxes$"):
            match_detections(*args, primary_iou=threshold, models=declared)
        return
    want = match_reference(gts, dets, threshold)
    obs = match_detections(*args, primary_iou=threshold, models=declared)
    assert set(map(tuple, obs.entries)) == want
    # the universes: every object; the declared models, or else every
    # detection's, with those of the kept rows; every class seen
    assert columns(obs) == columns(obs_of(
        want, objects=[g.object_id for g in gts],
        models={d.model_id for d in dets} if declared is None else declared,
        classes={g.class_id for g in (*gts, *dets)}))


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
    n_lo = len(match_detections(*tables(gts, dets), primary_iou=lo).entries)
    n_hi = len(match_detections(*tables(gts, dets), primary_iou=hi).entries)
    assert n_hi <= n_lo


# ----------------------------------------------------------------- file io

def test_predictions_round_trip(tmp_path):
    path = str(tmp_path / "preds.jsonl")
    dets = [det("f1", "car", 0.123456789, GT_BOX),
            det("f1", "tree", 0.5, box(1, 2, 3, 4), image="img2")]
    write_predictions(path, det_table(dets))
    back = load_predictions(path, model_id="f1")
    assert len(back) == 2
    # confidences are stored at six decimal places
    assert back.confidence[0] == pytest.approx(0.123457, abs=5e-7)
    assert back.boxes[1] == (1.0, 2.0, 3.0, 4.0)


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
    write_ground_truth(path, gt_table([gt("o1"), gt("o2", cls="tree")]))
    back = load_ground_truth(path)
    assert back.object_id == ["o1", "o2"]
    assert ground_truth_labels(back) == {"o1": "car", "o2": "tree"}
    write_ground_truth(path, gt_table([gt("o1"), gt("o1")]))
    with pytest.raises(InputError, match="duplicate object_id"):
        load_ground_truth(path)


def _write_tiny_dataset(tmp_path):
    gt_path = str(tmp_path / "gt.jsonl")
    write_ground_truth(gt_path, gt_table(
        [gt("o1", cls="car"), gt("o2", cls="tree", b=box(100, 0, 110, 10))]))
    for m in ("f1", "f2"):
        write_predictions(str(tmp_path / f"{m}.jsonl"), det_table(
            [det(m, "car", 0.8, GT_BOX), det(m, "tree", 0.6, box(100, 0, 110, 10))]))
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
    # the detection table holds each file's rows in file order, the files
    # in the manifest's model order, whatever order the predictions map has
    rows = [("img1", "car", 0.8, (0.0, 0.0, 10.0, 10.0)),
            ("img1", "tree", 0.6, (100.0, 0.0, 110.0, 10.0))]
    for order in (["f1", "f2"], ["f2", "f1"]):
        write_manifest(manifest, order, ["car", "tree"],
                       {"f2": "f2.jsonl", "f1": "f1.jsonl"}, "gt.jsonl")
        t = load_dataset(manifest).detections
        assert list(zip(t.image_id, t.model_id, t.class_id, t.confidence, t.boxes)) == [
            (image, m, *rest) for m in order for image, *rest in rows]
        assert {type(v) for v in t.confidence} | {type(v) for b in t.boxes for v in b} == {float}


def test_manifest_validation(tmp_path):
    manifest = _write_tiny_dataset(tmp_path)
    raw = json.loads(pathlib.Path(manifest).read_text())

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
    raw = json.loads(pathlib.Path(manifest).read_text())
    raw[key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(InputError, match=message):
        load_dataset(str(p))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text", ['{"a": 1}\n{"b": [2]}\n', '{"a": 1}\n{"b": [2\n', "[]\n"])
def test_records_restore_the_collector_state(tmp_path, enabled, text):
    # the loader leaves the collector in the state it found, also when a
    # line is not one JSON object
    path = tmp_path / "x.jsonl"
    path.write_text(text)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        model_io._records(str(path))
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_jsonl_records_must_be_objects(tmp_path):
    path = tmp_path / "gt.jsonl"
    path.write_text(json.dumps({"image_id": "i", "object_id": "o1",
                                "class_id": "car", "bbox": [0, 0, 1, 1]})
                    + "\n5\n")
    with pytest.raises(InputError, match=rf"{path}:2: expected a JSON object"):
        load_ground_truth(str(path))
    # a value the decoder cannot build is invalid JSON, not a crash
    for bad in ("[" * 100_000 + "]" * 100_000, "1" * 5000):
        path.write_text(json.dumps({"image_id": "i", "object_id": "o1", "class_id": "car",
                                    "bbox": [0, 0, 1, 1]}) + "\n" + bad + "\n")
        with pytest.raises(InputError, match=rf"{path}:2: invalid JSON"):
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


def test_load_dataset_keeps_one_string_per_distinct_id(tmp_path):
    # the decoder makes one str per row; the loaded columns share one per
    # distinct id, across all the files of the dataset
    data = synthgen.generate(synthgen.preset("MM_1", n_models=4, n_train=2,
                                             n_test=300, seed=4))
    manifest = synthgen.write_split(str(tmp_path), data.test, data.test_labels,
                                    data.scenario.classes)
    ds = load_dataset(manifest)
    t, g = ds.detections, ds.ground_truth
    columns = {"image_id": t.image_id + g.image_id, "model_id": t.model_id,
               "class_id": t.class_id + g.class_id}
    for name, col in columns.items():
        assert len(col) > len(set(col)), name
        assert len({id(s) for s in col}) == len(set(col)), name


# Each bad record goes on line 3 of a file whose first two lines are good.
DROP = "<no such field>"
GOOD_PRED = {"image_id": "img1", "model_id": "f1", "class_id": "car",
             "confidence": 0.5, "bbox": [0, 0, 10, 10]}
GOOD_GT = {"image_id": "img1", "object_id": "o3", "class_id": "car",
           "bbox": [200, 0, 210, 10]}


@pytest.mark.parametrize("target, change, message", [
    ("f1", {"bbox": [0, 0, 1]}, r"bbox must be \[x_min, y_min, x_max, y_max\]"),
    ("f1", {"bbox": [0, "a", 1, 1]}, "could not convert string to float: 'a'"),
    ("f1", {"bbox": [0, None, 1, 1]}, r"float\(\) argument must be"),
    ("f1", {"bbox": [0, 0, 10 ** 400, 1]}, "int too large to convert to float"),
    ("f1", {"bbox": [0, 0, float("inf"), 1]},
     r"non-finite bbox coordinates: \(0\.0, 0\.0, inf, 1\.0\)"),
    ("f1", {"bbox": [0, float("nan"), 1, 1]}, "non-finite bbox coordinates"),
    ("f1", {"bbox": [5, 0, 5, 10]},
     r"degenerate bbox \(zero or negative area\): \(5\.0, 0\.0, 5\.0, 10\.0\)"),
    ("f1", {"bbox": [0, 9, 10, 3]}, "degenerate bbox"),
    ("f1", {"confidence": 1.5}, r"confidence out of \[0, 1\]: 1\.5$"),
    ("f1", {"confidence": -0.1}, r"confidence out of \[0, 1\]: -0\.1$"),
    ("f1", {"confidence": float("nan")}, r"confidence out of \[0, 1\]: nan$"),
    ("f1", {"confidence": "x"}, "confidence must be a number: 'x'"),
    ("f1", {"model_id": "f2"}, "model_id 'f2' does not match manifest entry 'f1'"),
    ("f1", {"class_id": "boats"}, r"prediction for unknown class 'boats' \(model 'f1'\)"),
    ("f1", {"confidence": None, "bbox": DROP}, "confidence must be a number: None"),
    ("f1", {"bbox": None}, "bbox must be"),
    ("f1", {"image_id": DROP}, "missing field 'image_id'"),
    ("f1", {"confidence": DROP}, "missing field 'confidence'"),
    ("gt", {"class_id": "boats"}, "ground-truth object 'o3' has unknown class 'boats'"),
    ("gt", {"object_id": "o1"}, "duplicate object_id 'o1'"),
    ("gt", {"object_id": DROP}, "missing field 'object_id'"),
    ("gt", {"bbox": [200, 0, 190, 10]}, "degenerate bbox"),
])
def test_every_record_error_names_its_line(tmp_path, target, change, message):
    manifest = _write_tiny_dataset(tmp_path)
    path = tmp_path / ("gt.jsonl" if target == "gt" else f"{target}.jsonl")
    rec = dict(GOOD_GT if target == "gt" else GOOD_PRED, **change)
    rec = {k: v for k, v in rec.items() if v is not DROP}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.raises(InputError, match=rf"^{path}:3: {message}"):
        load_dataset(manifest)


def test_first_bad_line_wins_across_checks(tmp_path):
    manifest = _write_tiny_dataset(tmp_path)
    path = tmp_path / "f1.jsonl"
    good = path.read_text()
    # a range error on line 3 precedes a parse error on line 4 ...
    path.write_text(good + json.dumps(dict(GOOD_PRED, confidence=1.5)) + "\nnot json\n")
    with pytest.raises(InputError, match=rf"^{path}:3: confidence out of"):
        load_dataset(manifest)
    # ... and a parse error on line 3 precedes a range error on line 4
    path.write_text(good + "not json\n" + json.dumps(dict(GOOD_PRED, confidence=1.5)) + "\n")
    with pytest.raises(InputError, match=rf"^{path}:3: invalid JSON"):
        load_dataset(manifest)
    # within one line the checks keep the per-record order: corners first
    path.write_text(good + json.dumps(dict(GOOD_PRED, confidence=1.5, class_id="boats",
                                           bbox=[5, 0, 5, 1])) + "\n")
    with pytest.raises(InputError, match=rf"^{path}:3: degenerate bbox"):
        load_dataset(manifest)


# ------------------------------------------- reader against the streaming one
# Random prediction and ground-truth files, clean or corrupted, read by the
# column reader and by the streaming per-record reader it replaced
# (``oracles.read_columns_reference``): equal tables or the same error.
# A bad field is missing, an int, a string, bool, null, 10**400, a non-finite
# float, a short, long or nested list.

# ids hold characters that str.splitlines, but not JSONL, takes as line ends
ANY_ID = st.sampled_from(["f1", "f2", "car", "tree", "img1", "o1", "ü", "日本",
                          "a\u2028b", "c\x85d", "e\x1cf"])
GOOD_BOX = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4),
                     st.integers(1, 4)).map(lambda b: [b[0], b[1], b[0] + b[2], b[1] + b[3]])
GOOD_FIELD = {"image_id": ANY_ID, "model_id": st.just("f1"),
              "class_id": st.sampled_from(["car", "tree"]),
              "object_id": st.text(min_size=1, max_size=6),
              "confidence": st.floats(0, 1), "bbox": GOOD_BOX}
BAD_FIELD = st.one_of(
    st.just(DROP), ANY_ID, st.none(), st.booleans(), st.integers(-3, 3), st.just(10 ** 400),
    st.floats(), st.text(max_size=3), st.sampled_from(["0.5", "1e400"]),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.none(), st.text(max_size=2)),
             min_size=3, max_size=5),
    st.lists(st.integers(0, 9), min_size=3, max_size=5),
    st.just([[0, 0], [1, 1]]), st.just([0, 0, [1], 1]))


@st.composite
def jsonl_record(draw, fields, clean):
    """A valid record of ``fields``; unless ``clean``, up to two fields are
    then dropped or given another value."""
    rec = {f: draw(GOOD_FIELD[f]) for f in fields}
    for _ in range(0 if clean else draw(st.integers(0, 2))):
        rec[draw(st.sampled_from(fields))] = draw(BAD_FIELD)
    return {k: v for k, v in rec.items() if v is not DROP}


@st.composite
def jsonl_file(draw, fields):
    """The bytes of a JSONL file: records, and unless clean also blank
    lines, trailing data, two objects on one line, one object split over
    two lines and lines that are not objects; any line ending, maybe a BOM."""
    clean = draw(st.booleans())
    kinds = ["record"] * 4 + ([] if clean else ["blank", "trailing", "two", "split",
                                                "not object", "garbage"])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        rec = json.dumps(draw(jsonl_record(fields, clean)), ensure_ascii=draw(st.booleans()))
        kind = draw(st.sampled_from(kinds))
        if kind == "record":
            lines.append(rec)
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t ", "\x0c"])))
        elif kind == "trailing":
            lines.append(rec + draw(st.sampled_from([" x", "]", " {}", ",", "  "])))
        elif kind == "two":
            lines.append(rec + draw(st.sampled_from(["", " "])) + rec)
        elif kind == "split":
            cut = draw(st.integers(1, max(1, len(rec) - 1)))
            lines += [rec[:cut], rec[cut:]]
        elif kind == "not object":
            lines.append(json.dumps(draw(st.one_of(BAD_FIELD, st.lists(st.integers())))))
        else:
            lines.append(draw(st.text(max_size=8)))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    bom = "﻿" if not clean and draw(st.integers(0, 9)) == 0 else ""
    return (bom + text).encode("utf-8", "surrogatepass")


PRED_FIELDS = ("image_id", "model_id", "class_id", "confidence", "bbox")
GT_FIELDS = ("image_id", "object_id", "class_id", "bbox")


def _outcome(load):
    """The columns of the table ``load()`` returns, or its error message."""
    try:
        t = load()
    except InputError as exc:
        return str(exc)
    return vars(t)


def _same_floats(a, b):
    return np.array_equal(np.asarray(a, dtype=np.float64).reshape(-1),
                          np.asarray(b, dtype=np.float64).reshape(-1), equal_nan=True)


@pytest.mark.parametrize("kind", ["predictions", "ground truth"])
@settings(deadline=None)
@given(data=st.data())
def test_reader_matches_the_streaming_reference(tmp_path_factory, kind, data):
    pred = kind == "predictions"
    path = tmp_path_factory.mktemp("jsonl") / "file.jsonl"
    path.write_bytes(data.draw(jsonl_file(PRED_FIELDS if pred else GT_FIELDS)))
    ids = ("image_id", "model_id" if pred else "object_id", "class_id")
    got = model_io._read_columns(str(path), ids, pred)
    want = read_columns_reference(str(path), ids, pred)
    assert got[0] == want[0] and got[1] == want[1]
    assert _same_floats(got[2], want[2])
    assert _same_floats(got[3], want[3]) and len(got[3]) == len(want[3])
    assert str(got[4]) == str(want[4])

    # the loaders' checks on top, with either reader underneath
    if pred:
        load = partial(load_predictions, str(path), model_id="f1",
                       classes=data.draw(st.sampled_from([None, ("car", "tree")])))
    else:
        load = partial(load_ground_truth, str(path))
    new = _outcome(load)
    with mock.patch.object(model_io, "_read_columns", read_columns_reference):
        assert _outcome(load) == new

    # the generator: the records before the first bad line, then its error
    outcomes = []
    for reader in (model_io.read_jsonl, read_jsonl_reference):
        got = []
        try:
            got.extend(reader(str(path)))
        except InputError as exc:
            got.append(str(exc))
        outcomes.append(got)
    assert outcomes[0] == outcomes[1]


def test_reader_keeps_line_numbers_across_line_endings(tmp_path):
    path = tmp_path / "gt.jsonl"
    recs = [json.dumps(dict(GOOD_GT, object_id=f"o{i}")) for i in range(3)]
    path.write_bytes(f"\r\n{recs[0]}\r{recs[1]}\n\n{recs[2]}\r\nnot json\n".encode())
    with pytest.raises(InputError, match=rf"^{path}:6: invalid JSON"):
        load_ground_truth(str(path))
    # the generator yields the records before the bad line, then raises
    got = []
    with pytest.raises(InputError, match=rf"^{path}:6: invalid JSON"):
        for lineno, rec in model_io.read_jsonl(str(path)):
            got.append((lineno, rec["object_id"]))
    assert got == [(2, "o0"), (3, "o1"), (5, "o2")]


def test_short_and_long_boxes_do_not_pair_up(tmp_path):
    # 3 + 5 corners would reshape into two rows of 4
    path = tmp_path / "gt.jsonl"
    path.write_text("".join(json.dumps(dict(GOOD_GT, object_id=f"o{i}", bbox=b)) + "\n"
                            for i, b in enumerate(([0, 0, 5], [0, 0, 5, 5, 5]))))
    with pytest.raises(InputError, match=rf"^{path}:1: bbox must be"):
        load_ground_truth(str(path))


@pytest.mark.parametrize("raw, line", [
    (b'{"a": 1}\n\xff\n', 2),
    (b'{"a": 1}\r\n{"a": 2}\r\n  \xc3(', 3),
    (b'x\ry\r\x80', 3),
    (b'\xef\xbb\xbf{"a": "\xed\xa0\x80"}', 1),
])
def test_non_utf8_bytes_name_their_line(tmp_path, raw, line):
    path = tmp_path / "f.jsonl"
    path.write_bytes(raw)
    for read in (model_io.read_text, model_io.read_json, load_ground_truth,
                 lambda p: list(model_io.read_jsonl(p))):
        with pytest.raises(InputError, match=rf"^{path}:{line}: not valid UTF-8: "):
            read(str(path))


# ------------------------------------------------------------ column writer

STRANGE_IDS = ["plain", "ünïcödé", "日本", "emoji 😀", 'quo"te', "back\\slash",
               "ctrl\x00\x1f\n\r\t", "  ", "\x7f", ""]
STRANGE_NUMBERS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                   1e-300, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 123456789.0]


# values whose rounding to six places ends on, or just beside, a tie, and
# values ``round`` writes in exponent form
ROUNDING_CASES = [0.0000005, 0.0000015, 0.0000025, 2.675e-6, 0.1234565, 0.9999995,
                  0.00001, 0.00009, -0.00005, 1e-7, -1e-9, 999999.9999995, 1e6, -1e6, 1e300]


def test_column_encoders_match_json_dumps():
    assert model_io.json_strings(STRANGE_IDS) == [json.dumps(v) for v in STRANGE_IDS]
    assert model_io.json_numbers(STRANGE_NUMBERS) == [json.dumps(v) for v in STRANGE_NUMBERS]
    numbers = STRANGE_NUMBERS + ROUNDING_CASES
    boxes = list(zip(*[iter((numbers * 4)[:4 * 7])] * 4))
    assert model_io.json_boxes(boxes) == [json.dumps(b)[1:-1] for b in boxes]
    assert model_io.json_numbers([]) == model_io.json_strings([]) == []
    assert model_io.json_boxes([]) == []


@settings(deadline=None)
@given(st.lists(st.text()), st.lists(st.floats()))
def test_column_encoders_match_json_dumps_on_any_input(ids, numbers):
    assert model_io.json_strings(ids) == [json.dumps(v) for v in ids]
    assert model_io.json_numbers(numbers) == [json.dumps(v) for v in numbers]


@settings(deadline=None)
@given(st.lists(st.integers(0, 10 ** 6)), st.lists(st.floats(0.0, 1.0)))
def test_confidence_encoder_matches_round_near_six_places(units, offsets):
    # the generator's confidences are ``np.round(x, 6)`` and ``write_split``
    # writes them with ``json_numbers``: each must already be what ``round``
    # to six places makes of it, for six-place decimals and values beside them
    near = [u / 1e6 for u in units] + [u / 1e6 + d * 1e-6 for u, d in zip(units, offsets)]
    for values in (near, ROUNDING_CASES):
        rounded = np.round(np.array(values, dtype=np.float64), 6).tolist()
        assert model_io.json_numbers(rounded) == [json.dumps(round(v, 6)) for v in rounded]


def test_writers_match_one_json_dumps_per_row(tmp_path):
    n = len(STRANGE_IDS)
    conf = [v / 7 for v in (STRANGE_NUMBERS * 2)[:n]]
    boxes = list(zip(*[iter((STRANGE_NUMBERS * 4)[:4 * n])] * 4))
    dets = DetectionTable(STRANGE_IDS, STRANGE_IDS[::-1], STRANGE_IDS, conf, boxes)
    write_predictions(str(tmp_path / "p.jsonl"), dets)
    assert (tmp_path / "p.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps({"image_id": i, "model_id": m, "class_id": c,
                    "confidence": round(v, 6), "bbox": b}) + "\n"
        for i, m, c, v, b in zip(dets.image_id, dets.model_id, dets.class_id,
                                 conf, map(list, boxes)))
    gt = GroundTruthTable(STRANGE_IDS, STRANGE_IDS[::-1], STRANGE_IDS, boxes)
    write_ground_truth(str(tmp_path / "g.jsonl"), gt)
    assert (tmp_path / "g.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps({"image_id": i, "object_id": o, "class_id": c, "bbox": b}) + "\n"
        for i, o, c, b in zip(gt.image_id, gt.object_id, gt.class_id, map(list, boxes)))
    write_ground_truth(str(tmp_path / "e.jsonl"), GroundTruthTable([], [], [], []))
    assert (tmp_path / "e.jsonl").read_bytes() == b""
    with pytest.raises(ValueError, match="1 columns for 2 slots"):
        model_io.write_rows(str(tmp_path / "r.jsonl"), "%s %s\n", ["a"])
