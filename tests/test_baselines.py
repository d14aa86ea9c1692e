"""Reference methods: majority vote, best individual, model average."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse.baselines import average_models, best_individual, majority_vote
from abfuse.evaluation import Metrics

from conftest import obs_of, row_labels
from oracles import majority_vote_reference


def test_majority_vote_counts_votes():
    obs = obs_of([("o1", "f1", "car", 0.5), ("o1", "f2", "car", 0.4),
                  ("o1", "f3", "tree", 0.99)])
    assert row_labels(obs, majority_vote(obs)) == {"o1": "car"}


def test_majority_vote_tie_takes_confidence():
    obs = obs_of([("o1", "f1", "car", 0.6), ("o1", "f2", "tree", 0.9)])
    assert row_labels(obs, majority_vote(obs)) == {"o1": "tree"}


def test_majority_vote_full_tie_is_deterministic():
    obs = obs_of([("o1", "f2", "car", 0.8), ("o1", "f1", "tree", 0.8)])
    # equal votes, equal confidence: the smaller backing model id wins
    assert row_labels(obs, majority_vote(obs)) == {"o1": "tree"}


def test_majority_vote_single_model():
    obs = obs_of([("o1", "f1", "pole", 0.1)])
    assert row_labels(obs, majority_vote(obs)) == {"o1": "pole"}


def test_majority_vote_skips_unpredicted_objects():
    obs = obs_of([("o1", "f1", "car", 0.5)], objects=["o1", "o2"])
    assert row_labels(obs, majority_vote(obs)) == {"o1": "car"}


def test_majority_vote_label_always_predicted():
    rng = random.Random(11)
    for _ in range(50):
        rows = [(f"o{rng.randint(0, 3)}", f"f{m}", rng.choice("abc"),
                 round(rng.random(), 2)) for m in range(4)]
        seen = {}
        for w, f, c, conf in rows:
            if (w, f) not in seen:
                seen[(w, f)] = (w, f, c, conf)
        obs = obs_of(list(seen.values()))
        for obj, cls in row_labels(obs, majority_vote(obs)).items():
            assert cls in {e.class_id for e in obs.entries
                           if e.object_id == obj}


def test_majority_vote_tie_on_votes_and_confidence_takes_smaller_model():
    obs = obs_of([("o1", "f3", "car", 0.9), ("o1", "f4", "car", 0.2),
                  ("o1", "f1", "tree", 0.5), ("o1", "f2", "tree", 0.9),
                  ("o1", "f5", "pole", 1.0)])
    # car and tree both have two votes and a best confidence of 0.9; tree's
    # is backed by f2, car's by f3
    assert row_labels(obs, majority_vote(obs)) == {"o1": "tree"}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3")),
                          st.sampled_from(("f1", "f2", "f3", "f4", "f5")),
                          st.sampled_from(("car", "pole", "tree")),
                          st.sampled_from((0.25, 0.5, 1.0))),
                unique_by=lambda r: (r[0], r[1])))
def test_majority_vote_matches_the_per_entry_oracle(rows):
    # five voters over three classes and three confidences: vote ties and
    # confidence ties are common
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4"])
    won = majority_vote(obs)
    assert row_labels(obs, won) == majority_vote_reference(obs)
    for r in won:
        # the row backing the winner is its class's strongest prediction
        same = [i for i in range(len(obs.obj))
                if (obs.obj[i], obs.cls[i]) == (obs.obj[r], obs.cls[r])]
        assert obs.confidence[r] == max(obs.confidence[i] for i in same)
        assert obs.model[r] == min(obs.model[i] for i in same
                                   if obs.confidence[i] == obs.confidence[r])


def test_best_individual_ranks_by_f1_then_accuracy_then_id():
    metrics = {"f2": Metrics(f1=0.8, accuracy=0.7),
               "f1": Metrics(f1=0.9, accuracy=0.1)}
    assert best_individual(metrics) == "f1"
    metrics = {"f2": Metrics(f1=0.8, accuracy=0.9),
               "f1": Metrics(f1=0.8, accuracy=0.7)}
    assert best_individual(metrics) == "f2"
    metrics = {"f2": Metrics(f1=0.8, accuracy=0.9),
               "f1": Metrics(f1=0.8, accuracy=0.9)}
    assert best_individual(metrics) == "f1"


def test_best_individual_rejects_empty():
    with pytest.raises(ValueError):
        best_individual({})


def test_average_models():
    avg = average_models({"f1": Metrics(precision=0.4, recall=0.4, f1=0.4,
                                        accuracy=0.4, n_objects=10),
                          "f2": Metrics(precision=0.6, recall=0.6, f1=0.6,
                                        accuracy=0.6, n_objects=10)})
    assert (avg.precision, avg.recall, avg.f1, avg.accuracy) == \
        (0.5, 0.5, 0.5, 0.5)
    assert avg.n_objects == 10
    three = average_models({m: Metrics(f1=v) for m, v in
                            (("f1", 0.3), ("f2", 0.3), ("f3", 0.9))})
    assert three.f1 == pytest.approx(0.5)


def test_average_of_one_is_identity():
    m = Metrics(precision=0.3, recall=0.7, f1=0.42, accuracy=0.5,
                inconsistency=0.1, n_objects=7)
    avg = average_models({"f1": m})
    assert vars(avg) == vars(m)
