"""Error-detection rules: conditions, greedy learning, filtering."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse import synthgen
from abfuse.edr import (_QUANTILES, Condition, RuleSet, _learn_pair,
                        _linear_quantiles, apply_rules, generate_candidates, learn_ruleset)
from abfuse.model_io import InputError, Observation, pack

from conftest import columns, empty_rules, obs_of, rule_fields, ruleset_fields
from oracles import (fires, flag_rate_on_correct, flags, learn_pair_loop,
                     learn_ruleset_reference, sibling_index)


def disagree(model):
    return Condition("disagree_with", model=model)


def below(threshold):
    return Condition("confidence_below", threshold=threshold)


# --------------------------------------------------------------- conditions

def test_condition_validation():
    with pytest.raises(InputError):
        Condition("disagree_with")
    with pytest.raises(InputError):
        Condition("confidence_below", threshold=1.5)
    with pytest.raises(InputError):
        Condition("sometimes")


def test_disagree_with_fires():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.9), ("o2", "f2", "car", 0.8),
                  ("o3", "f1", "car", 0.9)])
    sib = sibling_index(obs)
    entry = Observation("o1", "f1", "car", 0.9)
    assert fires(disagree("f2"), entry, sib["o1"])
    assert not fires(disagree("f2"), Observation("o2", "f1", "car", 0.9), sib["o2"])
    # no sibling entry at all: no disagreement
    assert not fires(disagree("f2"), Observation("o3", "f1", "car", 0.9), sib["o3"])


def test_confidence_below_is_strict():
    entry = Observation("o1", "f1", "car", 0.5)
    assert not fires(below(0.5), entry, {})
    assert fires(below(0.500001), entry, {})


def test_condition_json_round_trip():
    conds = (disagree("f3"), below(0.25))
    assert rule_fields(Condition.from_json(c.to_json()) for c in conds) == rule_fields(conds)
    with pytest.raises(InputError):
        Condition.from_json({"kind": "sometimes"})


# --------------------------------------------------------------- candidates

def test_candidate_pool_three_models():
    obs = obs_of([("o1", "f1", "car", 0.2), ("o2", "f1", "car", 0.8),
                  ("o1", "f2", "car", 0.5), ("o1", "f3", "car", 0.5)])
    pool = generate_candidates(obs)[("f1", "car")]
    assert rule_fields(pool[:2]) == rule_fields((disagree("f2"), disagree("f3")))
    thresholds = [c.threshold for c in pool[2:]]
    assert all(c.kind == "confidence_below" for c in pool[2:])
    assert thresholds == sorted(set(thresholds))
    assert all(0.2 <= t <= 0.8 for t in thresholds)


def test_candidate_pool_single_model_has_no_disagreements():
    obs = obs_of([("o1", "f1", "car", 0.2), ("o2", "f1", "car", 0.8)])
    pool = generate_candidates(obs)[("f1", "car")]
    assert all(c.kind == "confidence_below" for c in pool)


def test_candidate_pool_constant_confidence_collapses():
    obs = obs_of([("o1", "f1", "car", 0.7), ("o2", "f1", "tree", 0.7),
                  ("o1", "f2", "car", 0.7)])
    pool = generate_candidates(obs)[("f1", "car")]
    thresholds = [c for c in pool if c.kind == "confidence_below"]
    assert rule_fields(thresholds) == rule_fields([below(0.7)])


def test_candidate_pool_shared_across_classes():
    obs = obs_of([("o1", "f1", "car", 0.2), ("o2", "f1", "tree", 0.8),
                  ("o1", "f2", "car", 0.5)])
    cands = generate_candidates(obs)
    assert cands[("f1", "car")] == cands[("f1", "tree")]


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, np.float64).view(np.uint64),
                          np.asarray(b, np.float64).view(np.uint64))


@pytest.mark.parametrize("values", [[0.4], [0.3, 0.9], [0.9, 0.3], [0.5, 0.5],
                                    [0.1, 0.7, 0.7, 0.7, 0.2], [1.0, 0.0, 1 / 3]])
def test_linear_quantiles_match_numpy_on_small_and_tied_samples(values):
    v = np.array(values)
    for qs in (_QUANTILES, (0.0, 1.0), (0.5,), (0.25, 0.75, 0.999)):
        assert _same_bits(_linear_quantiles(v, qs), np.quantile(v, qs)), (values, qs)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.1, 0.25, 0.5, 0.8))),
                min_size=1, max_size=40),
       st.one_of(st.just(_QUANTILES),
                 st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(tuple)))
def test_linear_quantiles_match_numpy_bit_for_bit(values, qs):
    v = np.array(values)
    assert _same_bits(_linear_quantiles(v, qs), np.quantile(v, qs))


# ----------------------------------------------------------------- learning

def _wrong_confidence_set():
    """Six (f1, car) predictions; the three low-confidence ones are wrong."""
    rows = [("o1", "f1", "car", 0.9), ("o2", "f1", "car", 0.8),
            ("o3", "f1", "car", 0.7), ("o4", "f1", "car", 0.1),
            ("o5", "f1", "car", 0.2), ("o6", "f1", "car", 0.3)]
    labels = {"o1": "car", "o2": "car", "o3": "car",
              "o4": "tree", "o5": "tree", "o6": "tree"}
    return obs_of(rows, classes=["car", "tree"]), labels


def test_learn_zero_budget_takes_pure_condition():
    obs, labels = _wrong_confidence_set()
    cands = {("f1", "car"): (below(0.35), below(0.95))}
    rs = learn_ruleset(obs, labels, epsilon_grid=(0.0, 1.0), candidates=cands)
    # below(0.35) flags exactly the wrong ones; below(0.95) would flag all
    # six and needs budget -- and once the wrongs are covered it never adds
    # a new wrong, so even epsilon=1 leaves it out.
    assert rule_fields(rs.rule_for("f1", "car", 0.0)) == rule_fields((below(0.35),))
    assert rule_fields(rs.rule_for("f1", "car", 1.0)) == rule_fields((below(0.35),))
    assert flag_rate_on_correct(obs, labels, rs, 0.0, "f1", "car") == 0.0


def test_learn_zero_budget_can_yield_empty_rule():
    obs, labels = _wrong_confidence_set()
    cands = {("f1", "car"): (below(0.95),)}  # flags correct entries too
    rs = learn_ruleset(obs, labels, epsilon_grid=(0.0,), candidates=cands)
    assert rs.rule_for("f1", "car", 0.0) == ()


def test_learn_budget_boundary():
    rows = [("o1", "f1", "car", 0.9), ("o2", "f1", "car", 0.8),
            ("o3", "f1", "car", 0.3), ("o4", "f1", "car", 0.2)]
    labels = {"o1": "car", "o4": "car", "o2": "tree", "o3": "tree"}
    cands = {("f1", "car"): (below(0.35), below(0.85))}
    # below(0.35) flags o3 (wrong) and o4 (correct): one of two correct
    # entries, a 0.5 flag rate.  At epsilon 0.4 nothing fits; at 0.5 it does.
    rs = learn_ruleset(obs_of(rows, classes=["car", "tree"]), labels,
                       epsilon_grid=(0.4, 0.5), candidates=cands)
    obs = obs_of(rows, classes=["car", "tree"])
    assert rs.rule_for("f1", "car", 0.4) == ()
    assert flag_rate_on_correct(obs, labels, rs, 0.4, "f1", "car") == 0.0
    chosen = rs.rule_for("f1", "car", 0.5)
    assert ("confidence_below", None, 0.85) in rule_fields(chosen)
    assert flag_rate_on_correct(obs, labels, rs, 0.5, "f1", "car") == 0.5


def test_learn_ranks_by_standalone_precision():
    """Selection order follows each condition's own precision, not the
    precision of what it would newly flag."""
    rows = [(f"o{i}", "f1", "car", 0.9) for i in range(1, 8)]
    rows += [("o1", "g1", "tree", 0.5), ("o2", "g1", "tree", 0.5)]
    rows += [(f"o{i}", "g2", "tree", 0.5) for i in (1, 2, 3, 5)]
    rows += [(f"o{i}", "g3", "tree", 0.5) for i in (3, 4, 5)]
    labels = {"o1": "tree", "o2": "tree", "o3": "tree", "o4": "tree",
              "o5": "car", "o6": "car", "o7": "car"}
    obs = obs_of(rows, classes=["car", "tree"])
    pool = (disagree("g1"), disagree("g2"), disagree("g3"))
    rs = learn_ruleset(obs, labels, epsilon_grid=(0.5,),
                       candidates={("f1", "car"): pool})
    # precisions: g1 flags {o1,o2} -> 2/2; g2 flags {o1,o2,o3,o5} -> 3/4;
    # g3 flags {o3,o4,o5} -> 2/3.  Ranking by what each step would *newly*
    # flag would pick g3 before g2 (2/3 over 1/2).
    assert rule_fields(rs.rule_for("f1", "car", 0.5)) == rule_fields(pool)


def _random_micro(seed):
    """f1 predicts car everywhere; four helper models induce arbitrary
    disagreement patterns."""
    rng = random.Random(seed)
    objs = [f"o{i}" for i in range(8)]
    rows = [(w, "f1", "car", 0.9) for w in objs]
    for g in ("g1", "g2", "g3", "g4"):
        for w in objs:
            if rng.random() < 0.4:
                rows.append((w, g, "tree", 0.5))
    labels = {w: rng.choice(["car", "tree"]) for w in objs}
    obs = obs_of(rows, classes=["car", "tree"])
    pool = tuple(disagree(g) for g in ("g1", "g2", "g3", "g4"))
    return obs, labels, pool


def test_learn_unbounded_budget_catches_every_catchable_error():
    """At epsilon 1 the greedy pass must flag every wrong prediction that any
    candidate subset could flag (checked against all 2^4 subsets)."""
    for seed in range(50):
        obs, labels, pool = _random_micro(seed)
        rs = learn_ruleset(obs, labels, epsilon_grid=(1.0,),
                           candidates={("f1", "car"): pool})
        sib = sibling_index(obs)
        targets = sorted(e for e in obs.entries if e.model_id == "f1")
        wrong = [labels[e.object_id] != "car" for e in targets]
        fired = [[fires(c, e, sib[e.object_id]) for e in targets] for c in pool]
        best = 0
        for mask in range(16):
            caught = sum(1 for j, w in enumerate(wrong)
                         if w and any(mask >> i & 1 and fired[i][j]
                                      for i in range(4)))
            best = max(best, caught)
        rule = rs.rule_for("f1", "car", 1.0)
        got = sum(1 for j, e in enumerate(targets)
                  if wrong[j] and flags(rule, e, sib[e.object_id]))
        assert got == best, f"seed {seed}: caught {got} of {best} errors"


def test_learn_respects_budget_everywhere():
    grid = (0.0, 0.25, 0.5, 1.0)
    for seed in range(30):
        obs, labels, pool = _random_micro(seed)
        rs = learn_ruleset(obs, labels, epsilon_grid=grid,
                           candidates={("f1", "car"): pool})
        for eps in grid:
            rate = flag_rate_on_correct(obs, labels, rs, eps, "f1", "car")
            assert rate <= eps + 1e-12, f"seed {seed} eps {eps}: rate {rate}"


def test_learn_warm_start_grows_monotonically():
    grid = (0.0, 0.2, 0.5, 1.0)
    for seed in range(30):
        obs, labels, pool = _random_micro(seed)
        rs = learn_ruleset(obs, labels, epsilon_grid=grid,
                           candidates={("f1", "car"): pool})
        prev_conds: frozenset = frozenset()
        prev_errors: frozenset = frozenset()
        for eps in grid:
            conds = frozenset(rule_fields(rs.rule_for("f1", "car", eps)))
            errors = error_atoms(obs, apply_rules(obs, rs, eps)[1])
            assert prev_conds <= conds
            assert prev_errors <= errors
            prev_conds, prev_errors = conds, errors


def _fired_matrix(rng, correct, n_candidates, density):
    """Random firing patterns; some candidates never fire, and some permute
    an earlier one within the correct and within the wrong entries, so that
    the two tie on precision while flagging different entries."""
    fired = rng.random((n_candidates, correct.size)) < density
    right, wrong = np.flatnonzero(correct), np.flatnonzero(~correct)
    for i in range(n_candidates):
        kind = rng.integers(4)
        if kind == 0:
            fired[i] = False
        elif kind == 1 and i:
            src = fired[rng.integers(i)]
            fired[i, right] = src[rng.permutation(right)]
            fired[i, wrong] = src[rng.permutation(wrong)]
    return fired


@settings(max_examples=400, deadline=None)
@given(n_candidates=st.integers(0, 40), n_entries=st.integers(0, 200),
       correct_share=st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)),
       density=st.sampled_from((0.05, 0.2, 0.5)),
       inner=st.lists(st.floats(0.0, 1.0), max_size=5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_array_greedy_equals_the_loop(n_candidates, n_entries, correct_share, density,
                                      inner, seed):
    rng = np.random.default_rng(seed)
    # a share of 0 gives pairs with no correct entry
    correct = rng.random(n_entries) < correct_share
    fired = _fired_matrix(rng, correct, n_candidates, density)
    grid = sorted({0.0, 1.0, *inner})
    want: list = []
    for eps, got in zip(grid, _learn_pair(*_bitsets(correct, fired), grid)):
        want = learn_pair_loop(correct, fired, eps, want)
        assert got == want, eps


def _bitsets(correct, fired):
    """The 0/1 arrays of the loop oracle as the row bitsets ``_learn_pair``
    takes."""
    return pack(correct.tolist()), [pack(row.tolist()) for row in fired]


def test_array_greedy_breaks_precision_ties_toward_the_earlier_candidate():
    # candidates 0 and 1 each flag one wrong and one correct entry, and
    # each fits a budget of 0.5 alone; 2 never fires
    correct = np.array([True, False, True, False])
    fired = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=bool)
    assert _learn_pair(*_bitsets(correct, fired), (0.5, 1.0)) == [[0], [0, 1]]
    assert _learn_pair(*_bitsets(correct, fired[::-1]), (1.0,)) == [[1, 2]]
    assert learn_pair_loop(correct, fired, 0.5, []) == [0]
    assert learn_pair_loop(correct, fired, 1.0, [0]) == [0, 1]
    assert learn_pair_loop(correct, fired[::-1], 1.0, []) == [1, 2]


def test_learn_requires_labels_for_training_objects():
    obs = obs_of([("o1", "f1", "car", 0.9)])
    with pytest.raises(InputError, match="no ground-truth label"):
        learn_ruleset(obs, {}, epsilon_grid=(0.5,))


# ---------------------------------------------------------------- filtering

def error_atoms(obs, rows):
    """The (model, class, object) atoms of ``apply_rules``' flagged rows."""
    return frozenset((e.model_id, e.class_id, e.object_id)
                     for e in obs.subset(rows).entries)


MODELS = ("f1", "f2", "f3")
CLASSES = ("A", "B", "C")
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

_conditions = st.one_of(
    # the entry's own model, another one, or one absent from the set
    st.builds(disagree, st.sampled_from(MODELS + ("f9",))),
    # thresholds equal to confidences in use, and between them
    st.builds(below, st.sampled_from(LEVELS + (0.3, 0.6))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3", "o4", "o5")),
                          st.sampled_from(MODELS), st.sampled_from(CLASSES),
                          st.sampled_from(LEVELS)),
                unique_by=lambda r: (r[0], r[1])),
       st.dictionaries(st.tuples(st.sampled_from(MODELS), st.sampled_from(CLASSES)),
                       st.lists(_conditions, max_size=3)))
def test_apply_rules_matches_the_per_entry_oracle(rows, conds):
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4", "o5", "o6"],
                 models=MODELS + ("f4",), classes=CLASSES)
    rs = RuleSet((0.5,), {(m, c, 0.5): tuple(cs) for (m, c), cs in conds.items()})
    sib = sibling_index(obs)
    want = {e for e in obs.entries
            if flags(rs.rule_for(e.model_id, e.class_id, 0.5), e, sib[e.object_id])}

    kept, flagged, rows = apply_rules(obs, rs, 0.5)
    assert obs.subset(flagged).entries == want
    assert error_atoms(obs, flagged) == {(e.model_id, e.class_id, e.object_id) for e in want}
    assert kept.entries == obs.entries - want
    assert columns(obs.subset(rows)) == columns(kept)
    # the flagged and the surviving rows, each ascending, partition the rows
    assert flagged == sorted(set(flagged)) and rows == sorted(set(rows))
    assert sorted(flagged + rows) == list(range(len(obs.obj)))


_pair_rules = st.dictionaries(st.tuples(st.sampled_from(MODELS), st.sampled_from(CLASSES)),
                              st.lists(_conditions, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3", "o4", "o5")),
                          st.sampled_from(MODELS), st.sampled_from(CLASSES),
                          st.sampled_from(LEVELS)),
                unique_by=lambda r: (r[0], r[1])),
       st.lists(_pair_rules, min_size=6, max_size=6),
       st.permutations([(s, e) for s in (0, 1) for e in (0.1, 0.5, 0.9)] * 2))
def test_apply_rules_matches_the_oracle_in_any_call_order(rows, rules, calls):
    """One set filtered by two rule sets, each on a 3-value grid, every
    epsilon twice and in any order: each call flags the per-entry oracle's
    rows, so nothing the set caches carries over from another rule."""
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4", "o5"], models=MODELS,
                 classes=CLASSES)
    grid = (0.1, 0.5, 0.9)
    sets = [RuleSet(grid, {(m, c, e): tuple(cs)
                           for e, pairs in zip(grid, rules[3 * s:3 * s + 3])
                           for (m, c), cs in pairs.items()}) for s in (0, 1)]
    sib = sibling_index(obs)
    for s, e in calls:
        want = {x for x in obs.entries
                if flags(sets[s].rule_for(x.model_id, x.class_id, e), x, sib[x.object_id])}
        assert obs.subset(apply_rules(obs, sets[s], e)[1]).entries == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_learned_rules_match_a_per_entry_learner(seed):
    data = synthgen.generate(synthgen.preset("MM_1", n_models=4, n_train=150,
                                             n_test=0, seed=seed))
    grid = (0.01, 0.1, 0.3, 0.5, 1.0)
    got = learn_ruleset(data.train, data.train_labels, grid)
    want = learn_ruleset_reference(data.train, data.train_labels, grid)
    assert ruleset_fields(got) == ruleset_fields(want)
    assert any(got.rules.values())


def test_apply_rules_empty_ruleset_is_identity():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o2", "f2", "tree", 0.5)])
    filtered, flagged, rows = apply_rules(obs, empty_rules(), 0.5)
    assert columns(filtered) == columns(obs) and flagged == [] and rows == [0, 1]


def test_apply_rules_single_rule():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.7)])
    rs = RuleSet((0.5,), {("f1", "car", 0.5): (disagree("f2"),)})
    filtered, flagged, _ = apply_rules(obs, rs, 0.5)
    assert error_atoms(obs, flagged) == frozenset({("f1", "car", "o1")})
    assert filtered.entries == frozenset({Observation("o1", "f2", "tree", 0.8),
                                          Observation("o2", "f1", "car", 0.7)})
    # the universe is preserved even when entries drop out
    assert filtered.objects == obs.objects
    assert filtered.models == obs.models


def test_apply_rules_idempotent():
    for seed in range(20):
        obs, labels, pool = _random_micro(seed)
        rs = learn_ruleset(obs, labels, epsilon_grid=(0.5,),
                           candidates={("f1", "car"): pool})
        once = apply_rules(obs, rs, 0.5)[0]
        twice, flagged, _ = apply_rules(once, rs, 0.5)
        assert columns(twice) == columns(once)
        assert flagged == []


def test_apply_rules_rejects_off_grid_epsilon():
    obs = obs_of([("o1", "f1", "car", 0.9)])
    with pytest.raises(InputError, match="not on the learned grid"):
        apply_rules(obs, empty_rules((0.5,)), 0.3)


def test_rule_lookup_tolerates_float_dust():
    rs = empty_rules((0.1, 0.3))
    assert rs.rule_for("f1", "car", 0.1 + 0.2) == ()


# ------------------------------------------------------------ serialization

def test_ruleset_round_trip(tmp_path):
    path = str(tmp_path / "rules.jsonl")
    rs = RuleSet((0.1, 0.5), {
        ("f1", "car", 0.1): (disagree("f2"),),
        ("f1", "car", 0.5): (disagree("f2"), below(0.5)),
        ("f2", "tree", 0.1): (below(0.25),),
    })
    rs.save(path)
    back = RuleSet.load(path)
    assert ruleset_fields(back) == ruleset_fields(rs)
    assert back.epsilon_grid == rs.epsilon_grid


def test_ruleset_load_rejects_duplicates(tmp_path):
    path = tmp_path / "rules.jsonl"
    rec = json.dumps({"model_id": "f1", "class_id": "car", "epsilon": 0.5,
                      "conditions": []})
    path.write_text(rec + "\n" + rec + "\n")
    with pytest.raises(InputError, match="duplicate rule"):
        RuleSet.load(str(path))


@pytest.mark.parametrize("conditions", [[5], ["below"], 5, [None]])
def test_ruleset_load_rejects_non_object_conditions(tmp_path, conditions):
    path = tmp_path / "rules.jsonl"
    path.write_text(json.dumps({"model_id": "f1", "class_id": "car",
                                "epsilon": 0.5, "conditions": []}) + "\n"
                    + json.dumps({"model_id": "f1", "class_id": "tree",
                                  "epsilon": 0.5, "conditions": conditions}) + "\n")
    with pytest.raises(InputError, match=rf"{path}:2: bad rule record"):
        RuleSet.load(str(path))


@pytest.mark.parametrize("epsilon, shown", [("1.5", "1.5"), ("NaN", "nan"), ("-0.1", "-0.1")])
def test_ruleset_load_names_the_line_of_a_bad_epsilon(tmp_path, epsilon, shown):
    # json reads the NaN literal as a float, which no grid holds
    path = tmp_path / "rules.jsonl"
    path.write_text(json.dumps({"model_id": "f1", "class_id": "car", "epsilon": 0.5,
                                "conditions": []}) + "\n"
                    + '{"model_id": "f1", "class_id": "tree", "epsilon": %s, '
                      '"conditions": []}\n' % epsilon)
    with pytest.raises(InputError) as info:
        RuleSet.load(str(path))
    assert str(info.value) \
        == f"{path}:2: bad rule record: epsilon: value out of [0, 1]: {shown}"


def test_ruleset_load_rejects_empty_and_garbage(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text("")
    with pytest.raises(InputError, match="no rules found"):
        RuleSet.load(str(path))
    path.write_text('{"model_id": "f1"}\n')
    with pytest.raises(InputError, match=rf"{path}:1"):
        RuleSet.load(str(path))
    path.write_text("[1]\n")
    with pytest.raises(InputError, match=rf"{path}:1: expected a JSON object"):
        RuleSet.load(str(path))
