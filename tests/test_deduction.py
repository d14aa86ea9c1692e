"""Exclusion constraints, the deductive closure, and inconsistency measures."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse import deduction, model_io
from abfuse.deduction import (DomainConfig, IntegrityConstraintSet,
                              default_domain, find_violations, inc_from_count,
                              load_domain_config, violation_budget)
from abfuse.model_io import InputError

from conftest import DELTA_GRID, obs_of
from oracles import Hypothesis, count_inc, fixpoint, neighbors

IC_CT = IntegrityConstraintSet((("car", "tree"),))


# ------------------------------------------------------------- constraints

def test_ic_canonical_form():
    ic = IntegrityConstraintSet((("tree", "car"), ("car", "tree"), ("a", "b")))
    assert ic.pairs == (("a", "b"), ("car", "tree"))


def test_ic_rejects_self_pair():
    with pytest.raises(InputError):
        IntegrityConstraintSet((("car", "car"),))


def test_ic_neighbors_and_degree():
    ic = IntegrityConstraintSet((("a", "b"), ("a", "c"), ("b", "c")))
    assert neighbors(ic, "a") == frozenset({"b", "c"})


def test_ic_all_pairs():
    ic = IntegrityConstraintSet.all_pairs(("c", "a", "b"))
    assert ic.pairs == (("a", "b"), ("a", "c"), ("b", "c"))


def test_find_violations():
    atoms = {("car", "o1"), ("tree", "o1"), ("car", "o2")}
    assert find_violations(atoms, IC_CT) == frozenset({("o1", ("car", "tree"))})
    assert find_violations(atoms, IntegrityConstraintSet(())) == frozenset()


# ------------------------------------------------------------ inconsistency

def test_count_inc_per_object():
    atoms = {("car", "o1"), ("tree", "o1"), ("car", "o2")}
    assert count_inc(atoms, IC_CT, "per_object", n_objects=2) == 0.5
    assert count_inc((), IC_CT, "per_object", n_objects=2) == 0.0


def test_count_inc_per_object_clamps_at_one():
    # three violated ground rules but only two objects: the per-object form
    # saturates at 1.0
    ic = IntegrityConstraintSet((("a", "b"), ("a", "c"), ("b", "c")))
    atoms = {("a", "o1"), ("b", "o1"), ("c", "o1"), ("a", "o2")}
    assert count_inc(atoms, ic, "per_object", n_objects=2) == 1.0


def test_count_inc_per_ground_rule():
    ic = IntegrityConstraintSet.all_pairs(("a", "b", "c", "d"))  # 6 pairs
    atoms = {("a", "o1"), ("b", "o1")}
    assert count_inc(atoms, ic, "per_ground_rule", n_objects=2) == pytest.approx(1 / 12)


def test_count_inc_directed_doubles_only_per_object():
    atoms = {("car", "o1"), ("tree", "o1")}
    plain = count_inc(atoms, IC_CT, "per_object", n_objects=4)
    both = count_inc(atoms, IC_CT, "per_object", n_objects=4,
                     directed_ground_rules=True)
    assert (plain, both) == (0.25, 0.5)
    for directed in (False, True):
        assert count_inc(atoms, IC_CT, "per_ground_rule", n_objects=4,
                         directed_ground_rules=directed) == pytest.approx(1 / 4)


def test_count_inc_rejects_unknown_mode():
    with pytest.raises(InputError):
        count_inc((), IC_CT, "per_frame", n_objects=1)


@pytest.mark.parametrize("directed", [False, True])
def test_inc_from_count_rejects_unknown_mode(directed):
    # the mode is checked where Inc is normalized, not only by its callers
    with pytest.raises(InputError, match="unknown normalizer_mode 'per_frame'"):
        inc_from_count(3, 10, IntegrityConstraintSet([("a", "b")]), "per_frame", directed)
    with pytest.raises(InputError, match="unknown normalizer_mode 'per_frame'"):
        violation_budget(0.5, 10, IntegrityConstraintSet([("a", "b")]), "per_frame", directed)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("per_object", "per_ground_rule")), st.booleans(),
       st.sampled_from(DELTA_GRID), st.integers(1, 5000), st.integers(1, 10))
def test_violation_budget_is_the_largest_count_within_delta(mode, directed, delta,
                                                             n_objects, n_pairs):
    classes = [f"c{i}" for i in range(n_pairs + 1)]
    ic = IntegrityConstraintSet(zip(classes, classes[1:]))
    budget = violation_budget(delta, n_objects, ic, mode, directed)

    def inc(n):
        return inc_from_count(n, n_objects, ic, mode, directed)

    assert inc(budget) <= delta + 1e-9
    assert inc(budget + 1) > delta or (mode == "per_object" and inc(budget + 1) == 1.0)


def test_violation_budget_values():
    assert violation_budget(1.0, 5, IC_CT, "per_object") == 5
    assert violation_budget(0.5, 5, IC_CT, "per_object") == 2
    assert violation_budget(0.0, 5, IC_CT, "per_object") == 0
    # 0.7 * 10 is 6.999... in floats; the budget must still be 7
    assert violation_budget(0.7, 10, IC_CT, "per_object") == 7
    # directed rules cost two units each
    assert violation_budget(1.0, 5, IC_CT, "per_object",
                            directed_ground_rules=True) == 2
    ic6 = IntegrityConstraintSet.all_pairs(("a", "b", "c", "d"))
    assert violation_budget(0.5, 2, ic6, "per_ground_rule") == 6


def test_violation_budget_directed_identity_per_ground_rule():
    ic = IntegrityConstraintSet.all_pairs(("a", "b", "c"))
    for delta in DELTA_GRID:
        for n in (1, 3, 7, 20):
            assert violation_budget(delta, n, ic, "per_ground_rule", True) == \
                violation_budget(delta, n, ic, "per_ground_rule", False)


# ----------------------------------------------------------------- fixpoint

OBS = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
              ("o2", "f1", "car", 0.7)])


def test_fixpoint_empty_hypothesis():
    res = fixpoint(OBS, Hypothesis.of([]), IC_CT)
    assert res.pred == 0 and res.inc == 0.0
    assert res.assigned == frozenset()
    assert res.errors == frozenset({("f1", "car", "o1"), ("f2", "tree", "o1"),
                                    ("f1", "car", "o2")})


def test_fixpoint_full_hypothesis_counts_conflict():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    res = fixpoint(obs, Hypothesis.full(obs.models, obs.classes), IC_CT)
    assert res.pred == 2
    assert res.inc == 1.0
    assert res.violations == frozenset({("o1", ("car", "tree"))})
    assert res.errors == frozenset()


def test_fixpoint_counts_distinct_atoms():
    # two models agreeing on (car, o1) yield a single assignment
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "car", 0.2)])
    res = fixpoint(obs, Hypothesis.full(obs.models, obs.classes), IC_CT)
    assert res.pred == 1 and res.inc == 0.0


def test_fixpoint_rejected_pair_becomes_errors():
    hyp = Hypothesis.of([("f1", "car")])
    res = fixpoint(OBS, hyp, IC_CT)
    assert res.assigned == frozenset({("car", "o1"), ("car", "o2")})
    assert res.errors == frozenset({("f2", "tree", "o1")})
    assert res.inc == 0.0


def test_fixpoint_known_errors_suppress_assignment():
    hyp = Hypothesis.full(OBS.models, OBS.classes)
    res = fixpoint(OBS, hyp, IC_CT, errors=[("f2", "tree", "o1")])
    assert res.assigned == frozenset({("car", "o1"), ("car", "o2")})
    assert ("f2", "tree", "o1") in res.errors
    assert res.inc == 0.0


def test_fixpoint_normalizes_by_object_universe():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)],
                 objects=["o1", "o2", "o3", "o4"])
    res = fixpoint(obs, Hypothesis.full(obs.models, obs.classes), IC_CT)
    assert res.inc == 0.25


def test_hypothesis_helpers():
    hyp = Hypothesis.full(("f1", "f2"), ("a", "b"))
    assert hyp.accepts("f1", "b")
    smaller = hyp.without([("f1", "b")])
    assert not smaller.accepts("f1", "b") and smaller.accepts("f2", "b")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fixpoint_monotone_in_hypothesis(data):
    """Growing the hypothesis can only add assignments and violations."""
    seed = data.draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    classes = ["a", "b", "c"]
    models = ["f1", "f2"]
    objs = [f"o{i}" for i in range(rng.randint(1, 5))]
    rows = [(w, f, rng.choice(classes), 0.5)
            for f in models for w in objs if rng.random() < 0.7]
    obs = obs_of(rows, objects=objs, models=models, classes=classes)
    ic = IntegrityConstraintSet.all_pairs(classes)
    pairs = [(f, c) for f in models for c in classes]
    small = Hypothesis.of(p for p in pairs if rng.random() < 0.5)
    big = Hypothesis.of(small.accepted | {p for p in pairs if rng.random() < 0.5})
    lo, hi = fixpoint(obs, small, ic), fixpoint(obs, big, ic)
    assert lo.assigned <= hi.assigned
    assert lo.pred <= hi.pred
    assert lo.violations <= hi.violations


@given(st.permutations(list(OBS.entries)))
def test_fixpoint_input_order_irrelevant(perm):
    obs = obs_of([(e.object_id, e.model_id, e.class_id, e.confidence)
                  for e in perm])
    res = fixpoint(obs, Hypothesis.full(obs.models, obs.classes), IC_CT)
    ref = fixpoint(OBS, Hypothesis.full(OBS.models, OBS.classes), IC_CT)
    assert res == ref


# ------------------------------------------------------------------- domain

def test_default_domain_is_all_pairs():
    dom = default_domain(("b", "a"))
    assert dom.classes == ("a", "b")
    assert dom.ic.pairs == (("a", "b"),)
    assert dom.normalizer_mode == "per_object"
    assert not dom.directed_ground_rules
    # defined by ``model_io``, so ``gen`` reads it without loading ``deduction``
    assert deduction.DEFAULT_CLASSES is model_io.DEFAULT_CLASSES
    assert default_domain().classes == model_io.DEFAULT_CLASSES


def test_domain_config_validation():
    with pytest.raises(InputError):
        DomainConfig(("a", "b"), IntegrityConstraintSet(()),
                     normalizer_mode="bogus")
    with pytest.raises(InputError):
        DomainConfig(("a", "b"), IntegrityConstraintSet((("a", "z"),)))


def save_domain_config(path, cfg):
    """The file format ``load_domain_config`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "classes": list(cfg.classes),
            "ic_pairs": [list(p) for p in cfg.ic.pairs],
            "normalizer_mode": cfg.normalizer_mode,
            "directed_ground_rules": cfg.directed_ground_rules,
        }, fh, indent=2)


def test_domain_config_round_trip(tmp_path):
    path = str(tmp_path / "domain.json")
    dom = DomainConfig(("a", "b", "c"),
                       IntegrityConstraintSet((("a", "c"),)),
                       normalizer_mode="per_ground_rule",
                       directed_ground_rules=True)
    save_domain_config(path, dom)
    assert load_domain_config(path) == dom


def test_domain_config_all_pairs_flag(tmp_path):
    path = tmp_path / "domain.json"
    path.write_text('{"classes": ["b", "a"], "all_pairs": true}\n')
    dom = load_domain_config(str(path))
    assert dom.ic.pairs == (("a", "b"),)
    assert dom.normalizer_mode == "per_object"


def test_domain_config_requires_classes(tmp_path):
    path = tmp_path / "domain.json"
    path.write_text('{"all_pairs": true}\n')
    with pytest.raises(InputError):
        load_domain_config(str(path))
