"""Confidence tie-breaking for multi-class objects."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse.tiebreak import (apply_tiebreaker, candidates_from_atoms,
                             candidates_from_entries, labels_only, resolve)

from conftest import obs_of
from oracles import apply_tiebreaker_reference, candidates_from_atoms_reference


def test_highest_confidence_wins():
    resolved = apply_tiebreaker([("o1", "car", "f1", 0.9),
                                 ("o1", "tree", "f2", 0.7)])
    assert resolved == {"o1": ("car", "f1", 0.9)}


def test_single_candidate_passthrough():
    resolved = apply_tiebreaker([("o1", "tree", "f3", 0.2)])
    assert resolved == {"o1": ("tree", "f3", 0.2)}


def test_objects_resolved_independently():
    resolved = apply_tiebreaker([("o1", "car", "f1", 0.9),
                                 ("o2", "tree", "f1", 0.3),
                                 ("o2", "car", "f2", 0.6)])
    assert labels_only(resolved) == {"o1": "car", "o2": "car"}


def test_exact_tie_prefers_smaller_model_then_class():
    resolved = apply_tiebreaker([("o1", "car", "f2", 0.8),
                                 ("o1", "tree", "f1", 0.8)])
    assert resolved["o1"] == ("tree", "f1", 0.8)
    resolved = apply_tiebreaker([("o1", "tree", "f1", 0.8),
                                 ("o1", "car", "f1", 0.8)])
    assert resolved["o1"] == ("car", "f1", 0.8)


def test_idempotent():
    cands = [("o1", "car", "f2", 0.8), ("o1", "tree", "f1", 0.8),
             ("o2", "car", "f1", 0.5)]
    once = apply_tiebreaker(cands)
    again = apply_tiebreaker([(obj, cls, model, conf)
                              for obj, (cls, model, conf) in once.items()])
    assert again == once


@given(st.permutations([("o1", "car", "f2", 0.8), ("o1", "tree", "f1", 0.8),
                        ("o1", "pole", "f3", 0.8), ("o2", "car", "f1", 0.4),
                        ("o2", "tree", "f2", 0.6)]))
def test_input_order_irrelevant(perm):
    assert apply_tiebreaker(perm) == apply_tiebreaker(reversed(perm))


def test_scale_free():
    rng = random.Random(5)
    cands = [(f"o{rng.randint(0, 5)}", cls, f"f{rng.randint(1, 4)}",
              rng.randint(1, 16) / 16)
             for cls in ("car", "tree", "pole") for _ in range(10)]
    base = apply_tiebreaker(cands)
    # halving every confidence is exact in binary floats
    scaled = apply_tiebreaker([(o, c, m, conf / 2) for o, c, m, conf in cands])
    assert {o: v[:2] for o, v in scaled.items()} == \
        {o: v[:2] for o, v in base.items()}


def test_candidates_from_entries():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o2", "f2", "tree", 0.4)])
    cands = sorted(candidates_from_entries(sorted(obs.entries)))
    assert cands == [("o1", "car", "f1", 0.9), ("o2", "tree", "f2", 0.4)]


def test_candidates_from_atoms_take_strongest_support():
    obs = obs_of([("o1", "f1", "car", 0.6), ("o1", "f2", "car", 0.9),
                  ("o1", "f3", "tree", 0.7)])
    cands = candidates_from_atoms([("car", "o1"), ("tree", "o1")], obs)
    assert sorted(cands) == [("o1", "car", "f2", 0.9),
                             ("o1", "tree", "f3", 0.7)]


def test_candidates_from_atoms_tie_prefers_smaller_model():
    obs = obs_of([("o1", "f2", "car", 0.9), ("o1", "f1", "car", 0.9)])
    assert candidates_from_atoms([("car", "o1")], obs) == \
        [("o1", "car", "f1", 0.9)]


def test_candidates_from_atoms_skip_unsupported():
    obs = obs_of([("o1", "f1", "car", 0.6)])
    assert candidates_from_atoms([("tree", "o9")], obs) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3")),
                          st.sampled_from(("f1", "f2", "f3", "f4")),
                          st.sampled_from(("car", "tree")),
                          st.sampled_from((0.25, 0.5, 1.0))),
                unique_by=lambda r: (r[0], r[1])),
       st.lists(st.tuples(st.sampled_from(("car", "tree", "pole")),
                          st.sampled_from(("o1", "o2", "o3", "o4", "o9")))))
def test_candidates_from_atoms_match_the_per_entry_oracle(rows, atoms):
    # few confidence levels, so several models often tie on one atom; the
    # atoms repeat, miss the entries, or name an object or class outside
    # the universe
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4"], classes=["car", "tree"])
    assert candidates_from_atoms(atoms, obs) == \
        candidates_from_atoms_reference(atoms, obs)


# few ids and confidence levels, so confidence, model and class ties are common
CANDIDATES = st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3")),
                                st.sampled_from(("car", "pole", "tree")),
                                st.sampled_from(("f1", "f2", "f3")),
                                st.sampled_from((0.25, 0.5, 1.0))), max_size=20)


@settings(max_examples=300, deadline=None)
@given(CANDIDATES)
def test_apply_tiebreaker_matches_the_loop_oracle(cands):
    assert apply_tiebreaker(cands) == apply_tiebreaker_reference(cands)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_resolve_matches_the_loop_oracle(data):
    rows = data.draw(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3")),
                                        st.sampled_from(("f1", "f2", "f3", "f4")),
                                        st.sampled_from(("car", "pole", "tree")),
                                        st.sampled_from((0.25, 0.5, 1.0))),
                              unique_by=lambda r: (r[0], r[1])))
    obs = obs_of(rows, objects=["o1", "o2", "o3"])
    keep = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                             max_size=len(rows)))).tolist()
    won = resolve(obs, keep)
    assert np.all(np.diff([obs.obj[r] for r in won]) > 0)
    got = {obs.objects[obs.obj[r]]: (obs.classes[obs.cls[r]], obs.models[obs.model[r]],
                                     float(obs.confidence[r])) for r in won}
    assert got == apply_tiebreaker_reference(
        candidates_from_entries(obs.subset(keep).entries))
