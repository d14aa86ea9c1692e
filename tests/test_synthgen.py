"""Synthetic scenario generation and its file export."""

import numpy as np
import pytest

from abfuse.model_io import InputError, load_dataset, observations_from_dataset
from abfuse.synthgen import (PRESET_FAMILIES, Segment, ShiftScenario,
                             error_shift, generate, load_scenario, preset,
                             save_scenario, write_dataset)


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
    assert frozenset(idx) == classes


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
