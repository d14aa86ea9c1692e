"""The greedy pair-at-a-time search and its selection trace."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse import solver_ip, synthgen
from abfuse.deduction import (IntegrityConstraintSet, default_domain,
                              find_violations, violation_budget)
from abfuse.edr import Condition, RuleSet, learn_ruleset
from abfuse.model_io import InputError, Observation
from abfuse.solver_hs import HsConfig, heuristic_search

from conftest import SHARED_SEEDS, empty_rules, obs_of, random_instance, survivors
from oracles import (calc_incon, get_filtered_preds, heuristic_search_reference,
                     hs_outcome, selected)

IC_CT = IntegrityConstraintSet((("car", "tree"),))


def search(obs, delta, eps=(0.5,), ruleset=None, ic=IC_CT, mode="per_object",
           directed=False):
    return heuristic_search(obs, HsConfig(delta, eps),
                            survivors(obs, ruleset or empty_rules(eps), eps),
                            ic, mode, directed)


# ------------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(InputError):
        HsConfig(0.5, ())
    cfg = HsConfig(0.5, (0.5, 0.1, 0.5))
    assert cfg.epsilon_set == (0.1, 0.5)
    # delta is range-checked where its budget is computed, before the search
    with pytest.raises(InputError, match=r"^delta must be in \[0, 1\]: 1.5$"):
        search(obs_of([("o1", "f1", "car", 0.9)]), 1.5)


# ---------------------------------------------------------------- filtering

def test_get_filtered_preds():
    obs = obs_of([(f"o{i}", "f1", "car", c)
                  for i, c in enumerate((0.9, 0.8, 0.7, 0.25, 0.2))]
                 + [("o9", "f2", "car", 0.5)])
    low = Condition("confidence_below", threshold=0.3)
    rs = RuleSet((0.1, 0.5, 0.9), {
        ("f1", "car", 0.1): (),
        ("f1", "car", 0.5): (low,),
        ("f1", "car", 0.9): (Condition("confidence_below", threshold=1.0),),
    })
    assert len(get_filtered_preds("f1", "car", 0.1, obs, rs)) == 5
    survived = get_filtered_preds("f1", "car", 0.5, obs, rs)
    assert {e.object_id for e in survived} == {"o0", "o1", "o2"}
    assert get_filtered_preds("f1", "car", 0.9, obs, rs) == frozenset()


def test_calc_incon():
    assert calc_incon((), IC_CT, n_objects=3) == 0.0
    conflict = [Observation("o1", "f1", "car", 0.9),
                Observation("o1", "f2", "tree", 0.8)]
    assert calc_incon(conflict, IC_CT, n_objects=1) == 1.0
    assert calc_incon(conflict, IC_CT, n_objects=2) == 0.5
    # duplicate atoms from different models count once
    doubled = conflict + [Observation("o1", "f3", "car", 0.2)]
    assert calc_incon(doubled, IC_CT, n_objects=2) == 0.5


# ------------------------------------------------------------------- search

def test_search_empty_input():
    obs = obs_of([], objects=["o1"], models=["f1"], classes=["car", "tree"])
    res = search(obs, 0.5)
    assert selected(res) == frozenset()
    assert res.n_atoms == 0 and res.inconsistency == 0.0


def test_search_prefers_larger_candidate():
    obs = obs_of([(f"o{i}", "f1", "car", c)
                  for i, c in enumerate((0.9, 0.8, 0.7, 0.25, 0.2))])
    low = Condition("confidence_below", threshold=0.3)
    rs = RuleSet((0.1, 0.5), {
        ("f1", "car", 0.1): (low,),   # keeps 3
        ("f1", "car", 0.5): (),       # keeps 5
    })
    res = search(obs, 1.0, eps=(0.1, 0.5), ruleset=rs,
                 ic=IntegrityConstraintSet(()))
    assert res.n_atoms == 5
    (step,) = res.trace.steps
    assert step.chosen_epsilon == 0.5


def test_search_tie_takes_smallest_epsilon():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o2", "f1", "car", 0.8)])
    res = search(obs, 1.0, eps=(0.2, 0.7), ic=IntegrityConstraintSet(()))
    (step,) = res.trace.steps
    assert step.chosen_epsilon == 0.2
    assert res.n_atoms == 2


def test_search_skips_infeasible_pair():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    res = search(obs, 0.0)
    assert res.n_atoms == 1
    assert {e.model_id for e in selected(res)} == {"f1"}
    assert res.inconsistency == 0.0
    by_pair = {(s.model_id, s.class_id): s for s in res.trace.steps}
    assert len(res.trace.steps) == 4  # two models x two classes
    assert by_pair[("f2", "tree")].chosen_epsilon is None
    assert by_pair[("f2", "tree")].s_size_after == 1


def test_search_requires_strictly_new_atoms():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "car", 0.3)])
    res = search(obs, 1.0, ic=IntegrityConstraintSet(()))
    assert {e.model_id for e in selected(res)} == {"f1"}
    by_pair = {(s.model_id, s.class_id): s for s in res.trace.steps}
    assert by_pair[("f2", "car")].chosen_epsilon is None


def test_search_rejects_exclusion_pairs_outside_the_classes():
    """A pair naming a class the set lacks is an error, as for the exact
    solver; the CLI drops such pairs when it loads the data."""
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f2", "car", 0.6)])
    extra = IntegrityConstraintSet(IC_CT.pairs + (("car", "boat"), ("boat", "water")))
    for delta in (0.0, 0.5):
        with pytest.raises(InputError, match="outside the class universe"):
            search(obs, delta, ic=extra)


def test_search_deterministic():
    for seed in (3301, 3302, 3303):
        obs, ic, delta, mode, directed = random_instance(seed)
        runs = [search(obs, delta, ic=ic, mode=mode, directed=directed) for _ in range(2)]
        assert hs_outcome(runs[0]) == hs_outcome(runs[1])


def test_search_feasible_and_monotone_throughout():
    for seed in range(3310, 3360):
        obs, ic, delta, mode, directed = random_instance(seed)
        res = search(obs, delta, ic=ic, mode=mode, directed=directed)
        size = 0
        for step in res.trace.steps:
            assert step.incon_after <= delta + 1e-12, f"seed {seed}"
            assert step.s_size_after >= size, f"seed {seed}"
            size = step.s_size_after
        assert res.inconsistency <= delta + 1e-12
        assert selected(res) <= obs.entries
        assert res.n_atoms == len(res.atoms())


def test_trace_file_format(tmp_path):
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    res = search(obs, 0.0)
    path = tmp_path / "trace.jsonl"
    res.trace.write(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == len(res.trace.steps) == 4
    for rec in lines:
        assert set(rec) == {"model_id", "class_id", "chosen_epsilon",
                            "s_size_after"}
    assert lines[0]["chosen_epsilon"] == 0.5
    assert any(rec["chosen_epsilon"] is None for rec in lines)


def test_greedy_explores_outside_the_exact_feasible_region():
    """A frozen instance where the greedy result beats the exact optimum by
    leaving a predictable object uncovered -- a pattern the binary program
    is not allowed to emit.  Documents that the two searches optimize over
    different feasible regions; on patterns that cover every coverable
    object and respect the budget, the exact solver is never behind."""
    rows = [
        ("o0", "f0", "B", 0.243), ("o0", "f1", "C", 0.359), ("o0", "f2", "C", 0.967),
        ("o1", "f0", "C", 0.372), ("o1", "f2", "B", 0.941),
        ("o2", "f0", "A", 0.469), ("o2", "f1", "A", 0.047),
        ("o3", "f0", "B", 0.198), ("o3", "f1", "B", 0.548), ("o3", "f2", "A", 0.93),
        ("o4", "f2", "A", 0.248),
        ("o5", "f0", "A", 0.64), ("o5", "f1", "B", 0.524),
        ("o6", "f0", "B", 0.164), ("o6", "f2", "C", 0.282),
    ]
    obs = obs_of(rows)
    ic = IntegrityConstraintSet((("A", "B"), ("A", "C")))
    inst = solver_ip.build_instance(obs, ic, 0.01)
    assert inst.delta_budget == 0
    sol = solver_ip.solve(inst)
    res = search(obs, 0.01, ic=ic)

    assert sol.status == solver_ip.STATUS_OPTIMAL
    assert sol.objective == 8
    assert res.n_atoms == 9
    # the greedy atoms are conflict-free yet leave o4 (coverable only through
    # (f2, A)) without any assignment
    atoms = res.atoms()
    assert find_violations(atoms, ic) == frozenset()
    assert "o4" not in {w for _, w in atoms}


def _mm1(n_train, n_test, seed, eps, **kw):
    data = synthgen.generate(synthgen.preset("MM_1", n_train=n_train,
                                             n_test=n_test, seed=seed, **kw))
    return data, learn_ruleset(data.train, data.train_labels, eps)


def test_greedy_steps_take_the_rule_filtered_entries():
    """With learned, non-empty rules each accepted step adds exactly the
    pair's entries that survive the chosen epsilon's rule."""
    eps = (0.01, 0.1, 0.5, 1.0)
    data, ruleset = _mm1(400, 200, 4, eps, n_models=4)
    assert any(ruleset.rules.values())
    ic = default_domain(data.test.classes).ic
    raw = {}
    for e in data.test.entries:
        raw.setdefault((e.model_id, e.class_id), set()).add(e)
    chosen_eps, filtered_steps = set(), 0
    for delta in (0.05, 0.2, 0.5):
        res = search(data.test, delta, eps, ruleset, ic)
        union = set()
        for step in res.trace.steps:
            pair = (step.model_id, step.class_id)
            taken = {e for e in selected(res) if (e.model_id, e.class_id) == pair}
            if step.chosen_epsilon is None:
                assert taken == set()
                continue
            expect = get_filtered_preds(step.model_id, step.class_id,
                                        step.chosen_epsilon, data.test, ruleset)
            assert taken == expect, (delta, pair, step.chosen_epsilon)
            union |= expect
            chosen_eps.add(step.chosen_epsilon)
            filtered_steps += expect < raw[pair]
        assert frozenset(union) == selected(res)
    assert len(chosen_eps) > 1 and filtered_steps > 0


# ------------------------------------------------------------------- budget

def test_greedy_stays_within_violation_budget_at_delta_one():
    """At delta = 1 the clamped Inc score is always within delta, so only
    the integer budget stops the greedy (unchecked, this instance reaches
    715 raw violations against a budget of 300)."""
    eps = (0.01, 0.1, 0.5, 1.0)
    data, ruleset = _mm1(1000, 300, 0, eps)
    dom = default_domain(data.test.classes)
    res = search(data.test, 1.0, eps, ruleset, dom.ic, dom.normalizer_mode,
                 dom.directed_ground_rules)
    budget = violation_budget(1.0, len(data.test.objects), dom.ic,
                              dom.normalizer_mode, dom.directed_ground_rules)
    assert budget == 300
    assert len(find_violations(res.atoms(), dom.ic)) <= budget


def test_no_solver_exceeds_the_budget_at_delta_one():
    for seed in SHARED_SEEDS:
        obs, ic, _, mode, directed = random_instance(seed)
        budget = violation_budget(1.0, len(obs.objects), ic, mode, directed)
        res = search(obs, 1.0, ic=ic, mode=mode, directed=directed)
        assert len(find_violations(res.atoms(), ic)) <= budget, seed
        sol = solver_ip.solve(solver_ip.build_instance(obs, ic, 1.0, mode, directed))
        if sol.status == solver_ip.STATUS_OPTIMAL:
            assert sol.n_violations() <= budget, seed


# ------------------------------------------------------- differential check

EPSILONS = (0.1, 0.5, 0.9)
CLASSES = ("A", "B", "C", "D")


@st.composite
def greedy_problems(draw):
    """A small observation set with random rules, exclusion pairs, budget
    and epsilon set."""
    models = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    classes = list(CLASSES[:draw(st.integers(1, 4))])
    objects = [f"o{i}" for i in range(draw(st.integers(1, 6)))]
    rows = [(w, f, draw(st.sampled_from(classes)), draw(st.sampled_from((0.2, 0.5, 0.8))))
            for f in models for w in objects if draw(st.booleans())]
    obs = obs_of(rows, objects=objects, models=models, classes=classes)
    pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]
    ic = IntegrityConstraintSet(tuple(p for p in pairs if draw(st.booleans())))
    eps_set = tuple(draw(st.lists(st.sampled_from(EPSILONS), min_size=1, max_size=3,
                                  unique=True)))
    conditions = st.one_of(
        st.builds(lambda t: Condition("confidence_below", threshold=t),
                  st.sampled_from((0.3, 0.6, 0.9))),
        st.builds(lambda g: Condition("disagree_with", model=g), st.sampled_from(models)))
    rules = {(f, c, e): tuple(draw(st.lists(conditions, max_size=2)))
             for f in models for c in classes for e in EPSILONS if draw(st.booleans())}
    config = HsConfig(draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))), eps_set)
    return (obs, config, RuleSet(EPSILONS, rules), ic,
            draw(st.sampled_from(("per_object", "per_ground_rule"))), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(greedy_problems())
def test_search_matches_the_per_entry_reference(problem):
    """The rule filter plus the greedy search against the search stated per
    entry, its survivors taken from the rules one entry at a time."""
    obs, config, ruleset, *rest = problem
    res = heuristic_search(obs, config, survivors(obs, ruleset, config.epsilon_set), *rest)
    rows, steps, n_atoms, inconsistency = heuristic_search_reference(*problem)
    assert res.rows == rows
    assert res.cover == obs.coverage(rows)
    assert res.trace.steps == steps
    assert (res.n_atoms, res.inconsistency) == (n_atoms, inconsistency)
