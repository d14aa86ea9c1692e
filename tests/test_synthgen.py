"""Synthetic scenario generation and its file export."""

import hashlib

import numpy as np
import pytest

from abfuse.model_io import (DetectionTable, GroundTruthTable, InputError, load_dataset,
                             observations_from_dataset)
from abfuse.synthgen import (_BOX, _CELL, _GRID_COLS, _PER_IMAGE, PRESET_FAMILIES, Segment,
                             ShiftScenario, error_shift, generate, load_scenario, preset,
                             save_scenario, write_dataset, write_split)

from oracles import write_ground_truth, write_predictions


def confusion_matrix(n_classes, model_index, intensity):
    """The generator's error model: row-stochastic ``(1 - t) * I + t * T``
    with T the one-hot shift by ``error_shift``."""
    target = np.zeros((n_classes, n_classes))
    s = error_shift(model_index, n_classes)
    for i in range(n_classes):
        target[i, (i + s) % n_classes] = 1.0
    return (1.0 - intensity) * np.eye(n_classes) + intensity * target


def scenario(intensity, n_train=0, n_test=400, seed=0, n_models=2,
             classes=("a", "b", "c")):
    C = len(classes)
    return ShiftScenario(
        name="unit", models=tuple(f"m{k}" for k in range(n_models)),
        classes=tuple(classes), class_prior=tuple(1.0 / C for _ in range(C)),
        segments=(Segment(1.0, tuple(intensity for _ in range(n_models))),),
        train_intensities=tuple(intensity for _ in range(n_models)),
        n_train=n_train, n_test=n_test, seed=seed)


# -------------------------------------------------------------- parameters

def test_error_shift_never_identity():
    for C in (2, 3, 4, 6):
        for f in range(8):
            assert 1 <= error_shift(f, C) <= C - 1
    assert [error_shift(f, 4) for f in range(4)] == [1, 2, 3, 1]


def test_confusion_matrix_limits():
    assert np.array_equal(confusion_matrix(4, 0, 0.0), np.eye(4))
    pure = confusion_matrix(4, 0, 1.0)
    assert pure[0, 1] == 1.0 and pure[3, 0] == 1.0 and pure.trace() == 0.0


def test_confusion_matrix_rows_stochastic():
    for t in (0.0, 0.25, 0.7, 1.0):
        m = confusion_matrix(5, 2, t)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.allclose(np.diag(m), 1.0 - t)


def test_scenario_validation():
    with pytest.raises(InputError, match="at least two"):
        scenario(0.1, n_models=1)
    with pytest.raises(InputError, match="distribution"):
        ShiftScenario("x", ("m0", "m1"), ("a", "b"), (0.6, 0.6),
                      (Segment(1.0, (0.1, 0.1)),), (0.1, 0.1), 1, 1, 0)
    with pytest.raises(InputError, match="sum to 1"):
        ShiftScenario("x", ("m0", "m1"), ("a", "b"), (0.5, 0.5),
                      (Segment(0.5, (0.1, 0.1)),), (0.1, 0.1), 1, 1, 0)
    with pytest.raises(InputError, match="out of"):
        scenario(1.3)
    with pytest.raises(InputError, match="non-negative"):
        scenario(0.1, n_test=-5)
    with pytest.raises(InputError, match="unique"):
        scenario(0.1, classes=("a", "b", "a"))
    with pytest.raises(InputError, match="unique"):
        ShiftScenario("x", ("m0", "m0"), ("a", "b"), (0.5, 0.5),
                      (Segment(1.0, (0.1, 0.1)),), (0.1, 0.1), 1, 1, 0)


# ------------------------------------------------------------------ presets

def test_preset_name_parsing():
    for bad in ("UM", "UM_0", "XX_1", "um_1", "MM_x"):
        with pytest.raises(InputError):
            preset(bad)
    assert "EG" in PRESET_FAMILIES


def test_preset_segment_structure():
    um = preset("UM_1")
    assert len(um.segments) == 1 and um.segments[0].weight == 1.0
    mm = preset("MM_1")
    assert len(mm.segments) == 4
    assert sum(s.weight for s in mm.segments) == 1.0
    eg = preset("EG_1", n_models=6)
    assert len(eg.segments) == 6
    # each model owns exactly one reliable regime
    homes = [s.intensities.index(min(s.intensities)) for s in eg.segments]
    assert sorted(homes) == list(range(6))


def test_preset_variant_rotates_reliability():
    a = preset("BM_1", n_models=4)
    b = preset("BM_2", n_models=4)
    assert a.segments[0].intensities.index(min(a.segments[0].intensities)) == 0
    assert b.segments[0].intensities.index(min(b.segments[0].intensities)) == 1


def test_preset_needs_enough_models():
    with pytest.raises(InputError, match="at least"):
        preset("AM_1", n_models=4)


# --------------------------------------------------------------- generation

def test_generate_deterministic():
    a = generate(scenario(0.4, n_train=50, n_test=80, seed=9))
    b = generate(scenario(0.4, n_train=50, n_test=80, seed=9))
    assert a.train == b.train and a.test == b.test
    assert a.test_labels == b.test_labels and a.meta == b.meta
    c = generate(scenario(0.4, n_train=50, n_test=80, seed=10))
    assert c.test != a.test


def test_generate_zero_intensity_is_error_free():
    data = generate(scenario(0.0, n_train=60, n_test=120))
    for split, labels in ((data.train, data.train_labels),
                          (data.test, data.test_labels)):
        assert len(split.entries) == 2 * len(split.objects)
        for e in split.entries:
            assert e.class_id == labels[e.object_id]
            assert 0.0 <= e.confidence <= 1.0
    assert all(v == 1.0 for v in data.meta["test_model_accuracy"].values())


def test_generate_accuracy_tracks_intensity():
    accs = []
    for t in (0.0, 0.3, 0.8):
        data = generate(scenario(t, n_test=4000, seed=2))
        acc = data.meta["test_model_accuracy"]["m0"]
        # a corrupted draw always lands on a different class
        assert acc == pytest.approx(1.0 - t, abs=0.04)
        accs.append(acc)
    assert accs[0] > accs[1] > accs[2]


def test_generate_matches_configured_confusion():
    data = generate(scenario(0.5, n_test=20000, seed=4,
                             classes=("a", "b", "c", "d")))
    want = confusion_matrix(4, 0, 0.5)
    classes = data.test.classes
    idx = {c: i for i, c in enumerate(("a", "b", "c", "d"))}
    counts = np.zeros((4, 4))
    for e in data.test.entries:
        if e.model_id == "m0":
            counts[idx[data.test_labels[e.object_id]], idx[e.class_id]] += 1
    got = counts / counts.sum(axis=1, keepdims=True)
    assert np.abs(got - want).max() < 0.02
    assert classes == ("a", "b", "c", "d")


def test_generate_segment_sizes():
    sc = preset("MM_1", n_models=4, n_train=0, n_test=10)
    data = generate(sc)
    assert data.meta["segment_sizes"] == [2, 3, 2, 3]
    assert sum(data.meta["segment_sizes"]) == 10


def test_generate_empty_splits():
    data = generate(scenario(0.2, n_train=0, n_test=0))
    assert data.train.entries == frozenset()
    assert data.meta["segment_sizes"] == []


# ---------------------------------------------------------------- round trip

def test_scenario_config_round_trip(tmp_path):
    sc = preset("BM_2", n_models=3, classes=("x", "y"), seed=5)
    path = str(tmp_path / "scenario.json")
    save_scenario(path, sc)
    assert load_scenario(path) == sc


def test_scenario_config_errors(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{nope")
    with pytest.raises(InputError, match="invalid JSON"):
        load_scenario(str(path))
    path.write_text('{"models": ["m0", "m1"]}')
    with pytest.raises(InputError, match="bad scenario config"):
        load_scenario(str(path))


def test_written_dataset_reconstructs_observations(tmp_path):
    data = generate(scenario(0.35, n_train=40, n_test=30, seed=3,
                             n_models=3))
    train_manifest, test_manifest = write_dataset(data, str(tmp_path))
    for manifest, obs, labels in ((train_manifest, data.train, data.train_labels),
                                  (test_manifest, data.test, data.test_labels)):
        ds = load_dataset(manifest)
        assert ds.labels() == labels
        assert observations_from_dataset(ds) == obs


def test_written_dataset_bytes_deterministic(tmp_path):
    data = generate(scenario(0.35, n_train=25, n_test=0, seed=3))
    m1, _ = write_dataset(data, str(tmp_path / "one"))
    m2, _ = write_dataset(data, str(tmp_path / "two"))
    for name in ("manifest.json", "gt.jsonl", "preds_m0.jsonl"):
        one = (tmp_path / "one" / "train" / name).read_bytes()
        two = (tmp_path / "two" / "train" / name).read_bytes()
        assert one == two


def test_write_split_equals_the_table_writers_past_one_image_and_grid_row(tmp_path):
    # 1,201 objects fill two images and part of a third, and two grid rows;
    # dropping a tenth of the entries leaves each model with gaps
    data = generate(scenario(0.35, n_test=1201, seed=11, n_models=3))
    rng = np.random.default_rng(0)
    obs = data.test.subset(np.flatnonzero(rng.random(len(data.test.obj)) < 0.9).tolist())
    write_split(str(tmp_path / "split"), obs, data.test_labels, ("a", "b", "c"))

    slot = np.arange(len(obs.objects))
    x, y = (slot % _GRID_COLS) * _CELL, (slot // _GRID_COLS) * _CELL
    boxes = np.stack([x, y, x + _BOX, y + _BOX], axis=1)
    images = [f"img{k:05d}" for k in (slot // _PER_IMAGE).tolist()]
    assert images[-1] == "img00002" and y[-1] > 0
    want = tmp_path / "tables"
    want.mkdir()
    write_ground_truth(str(want / "gt.jsonl"), GroundTruthTable(
        images, list(obs.objects), [data.test_labels[o] for o in obs.objects], boxes.tolist()))
    for f, m in enumerate(obs.models):
        rows = sorted((r for r in range(len(obs.obj)) if obs.model[r] == f),
                      key=obs.obj.__getitem__)
        w = [obs.obj[r] for r in rows]
        assert 0 < len(rows) < len(obs.objects)
        write_predictions(str(want / f"preds_{m}.jsonl"), DetectionTable(
            [images[i] for i in w], [m] * len(rows), [obs.classes[obs.cls[r]] for r in rows],
            [obs.confidence[r] for r in rows], boxes[w].tolist()))
    for path in want.iterdir():
        assert (tmp_path / "split" / path.name).read_bytes() == path.read_bytes(), path.name


# sha256 of every file ``write_dataset`` writes: any change to the bytes
# of ``gen`` output, e.g. to the order of rows or ids, fails here
PINNED_DIGESTS = {
    "preset": {
        "meta.json":
            "eb9912eed9bb1f468c56e303151271988de5acd39954ec0089a279a665124e8a",
        "scenario.json":
            "a5b5c3cbc2a98ad110be7a0e83d1df9641bdde56f81db54b4d02adf4a88e188f",
        "test/gt.jsonl":
            "2438481e966f99b06d51810976190b3df29b63608696ab7225736e1e07574731",
        "test/manifest.json":
            "522ad0a14d89fe50327db3a2a27f1664e95c3acf780622d70269555d9305055e",
        "test/preds_m0.jsonl":
            "b5c21e60b45c9f78234315e574fec4ccc355f64ca6d30d1d8d6aa959e553f7c7",
        "test/preds_m1.jsonl":
            "b04bbec1c014368454396027ebc415570995bf623ba15f178f9b1bf8f5bd9b48",
        "test/preds_m2.jsonl":
            "2816fe73199f1f69ef256e449877d81b7695a61d97f0f5140d78748d79a6665c",
        "test/preds_m3.jsonl":
            "f2357b49dc7fbbb4eb9353bc941593b7728785e47f1bdf188615ab059187bf7e",
        "train/gt.jsonl":
            "2f7f942be208fd065f47c5d9d2d2ea904ad89d890841d24c9e7d8da991cce6f2",
        "train/manifest.json":
            "522ad0a14d89fe50327db3a2a27f1664e95c3acf780622d70269555d9305055e",
        "train/preds_m0.jsonl":
            "34b0b0f843403dd4c829fc028d0e1fb0e04c2e149f5af544cfcfa097d2bba982",
        "train/preds_m1.jsonl":
            "5a5923555ca723e0fd73a7cec3f43ac1f513c1166b64be111e98fc249979c9d1",
        "train/preds_m2.jsonl":
            "0ade097849479f8ff4317131b45a7dc95e1ed1e1b553ebc48497500b98b6366d",
        "train/preds_m3.jsonl":
            "2dacba9364c441b308b13ceca6ecc6425ab06062e16e643d5d62c9a3ebd42f67",
    },
    "unsorted": {
        "meta.json":
            "24fc1eba3c9d088565dbf32c07c883d551703567c0a7c6c39421f8636d7455c4",
        "scenario.json":
            "35272302722dc2dd305d92102ce9385d61c4a73e68867f320329d2cf3a1e109a",
        "test/gt.jsonl":
            "9f9e67707192fc39466191498f653b358b53e682af876831c575e935b2af7937",
        "test/manifest.json":
            "8f95113fa9abae5c10f337c45e324dd5e1ad1150427759da61b4ef115d8b6498",
        "test/preds_alpha.jsonl":
            "53ba218b033a69ecc3b1073db7969cb85c37235761c1ad1ec406a5775af73b8c",
        "test/preds_m10.jsonl":
            "da6e5dc1a1b243471477ff470b90ea94e4fe77d2014f80f988f534f8463ea7fd",
        "test/preds_m2.jsonl":
            "5be52c8347e80cb827cb34856e0c8b262e130a37bfe04d6aea9535bf77719f89",
        "test/preds_zeta.jsonl":
            "9b01199b17655d2b3d4c4de5ec8769130dde5ae0977e2865e561c0137101c696",
        "train/gt.jsonl":
            "e359c967b33b84e19c833891e04dbac50cc2f26adf35948fd3a8998d0130984a",
        "train/manifest.json":
            "8f95113fa9abae5c10f337c45e324dd5e1ad1150427759da61b4ef115d8b6498",
        "train/preds_alpha.jsonl":
            "34800e61cc6d1b59a1192eb5321eabc82638f81fce5dfa58db43e52ff9c6fa3f",
        "train/preds_m10.jsonl":
            "6217ee1c71abff51bca00e6e0b76d7c9130dc4d8c4dc3aaae9936c96a5be23d1",
        "train/preds_m2.jsonl":
            "dffba0647c0b1ff2be760273a654cc948eb2c23f80096df10b8508a65d37883d",
        "train/preds_zeta.jsonl":
            "2ae57255769f4d021c8d109e5c178473d2620d72e30014c2f389e9a269b1ca86",
    },
}

PINNED_SCENARIOS = {
    "preset": preset("MM_1", n_models=4, n_train=30, n_test=40, seed=7),
    # ids whose sorted order is not the draw order
    "unsorted": ShiftScenario(
        name="unsorted", models=("zeta", "m2", "alpha", "m10"),
        classes=("tree", "car", "pole"), class_prior=(0.5, 0.3, 0.2),
        segments=(Segment(0.4, (0.1, 0.6, 0.3, 0.9)),
                  Segment(0.6, (0.7, 0.2, 0.5, 0.0))),
        train_intensities=(0.2, 0.3, 0.1, 0.4), n_train=25, n_test=35, seed=5),
}


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIOS))
def test_written_dataset_bytes_are_pinned(tmp_path, name):
    write_dataset(generate(PINNED_SCENARIOS[name]), str(tmp_path))
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*") if p.is_file()}
    assert got == PINNED_DIGESTS[name]
