"""The exact binary-program solver: semantics, ties, audits, brute force, a MILP."""

import importlib.util
import json
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abfuse import kernels, solver_ip, synthgen
from abfuse.deduction import IntegrityConstraintSet, default_domain, find_violations
from abfuse.edr import apply_rules, learn_ruleset
from abfuse.model_io import InputError
from abfuse.solver_ip import (STATUS_INFEASIBLE, STATUS_OPTIMAL,
                              audit_solution, build_instance, solve)

from conftest import (DELTA_GRID, accepted_pairs, assigned_atoms, eliminated_pairs, obs_atoms,
                      obs_of, random_instance)
from oracles import brute_force_optimal, build_set, milp_optimum

IC_CT = IntegrityConstraintSet((("car", "tree"),))


def test_instance_packing():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.7)], objects=["o1", "o2", "o3"])
    inst = build_instance(obs, IC_CT, 1.0)
    assert inst.objects == ("o1", "o2", "o3")
    assert inst.pred.shape == (2, 2, 3)
    assert inst.pred.any(axis=(0, 1)).tolist() == [True, True, False]
    assert inst.delta_budget == 3


def test_instance_validation():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    with pytest.raises(InputError):
        build_instance(obs, IC_CT, 1.5)
    # a pair naming a class outside the set's classes is an error, also for
    # the audit, which reads the instance's pairs; the CLI drops such pairs
    # when it loads the data
    extra = IntegrityConstraintSet(IC_CT.pairs + (("car", "boat"),))
    with pytest.raises(InputError, match="outside the class universe"):
        build_instance(obs, extra, 0.0)
    inst = build_instance(obs, IC_CT, 0.0)
    inst.ic = extra
    with pytest.raises(InputError, match="outside the class universe"):
        audit_solution(inst, solve(build_instance(obs, IC_CT, 0.0)))


def test_solve_single_object_conflict():
    # one object, two models disagreeing on an exclusive pair
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    inst = build_instance(obs, IC_CT, 0.0)
    sol = solve(inst)
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == 1
    # both single-elimination answers score 1; the tie goes to the
    # eliminated set that comes first in (model, class) order
    assert eliminated_pairs(sol) == {("f1", "car")}
    assert assigned_atoms(sol) == frozenset({("tree", "o1")})
    assert audit_solution(inst, sol) == []


def test_solve_budget_allows_conflict():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    inst = build_instance(obs, IC_CT, 1.0)
    sol = solve(inst)
    assert sol.objective == 2
    assert not any(map(any, sol.eliminated))  # nothing eliminated
    assert assigned_atoms(sol) == frozenset({("car", "o1"), ("tree", "o1")})
    assert sol.n_violations() == 1
    assert audit_solution(inst, sol) == []


def test_solve_coverage_forces_the_break():
    # o2 is only covered by (f1, car), so that pair must survive and the
    # o1 conflict is resolved against (f2, tree)
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.7)])
    inst = build_instance(obs, IC_CT, 0.4)
    assert inst.delta_budget == 0
    sol = solve(inst)
    assert sol.objective == 2
    assert ("f2", "tree") in eliminated_pairs(sol)
    assert assigned_atoms(sol) == frozenset({("car", "o1"), ("car", "o2")})


def test_solve_without_constraints_keeps_everything():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "tree", 0.7)])
    sol = solve(build_instance(obs, IntegrityConstraintSet(()), 0.0))
    assert sol.objective == len(obs_atoms(obs)) == 3
    assert not any(map(any, sol.eliminated))


def test_solve_prefers_fewer_eliminations():
    # accepting the two car pairs needs one elimination, accepting the tree
    # pair needs two; both yield one atom
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o1", "f3", "car", 0.7)])
    sol = solve(build_instance(obs, IC_CT, 0.0))
    assert sol.objective == 1
    assert eliminated_pairs(sol) == {("f2", "tree")}


def test_solve_ignores_unpredicted_objects():
    obs = obs_of([("o1", "f1", "car", 0.9)], objects=["o1", "o2"],
                 classes=["car", "tree"])
    sol = solve(build_instance(obs, IC_CT, 0.0))
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == 1


def test_solve_no_entries_at_all():
    obs = obs_of([], objects=["o1"], models=["f1"], classes=["car", "tree"])
    sol = solve(build_instance(obs, IC_CT, 0.0))
    assert sol.status == STATUS_OPTIMAL
    assert sol.objective == 0


def test_solve_detects_infeasibility():
    # o1 needs (f1, A) and o3 needs (f2, B), but the two pairs collide on
    # o2 and the budget is zero
    obs = obs_of([("o1", "f1", "A", 0.9), ("o2", "f1", "A", 0.9),
                  ("o2", "f2", "B", 0.8), ("o3", "f2", "B", 0.8)])
    inst = build_instance(obs, IntegrityConstraintSet((("A", "B"),)), 0.0)
    sol = solve(inst)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.objective == -1
    assert brute_force_optimal(inst).status == STATUS_INFEASIBLE


def test_solve_matches_brute_force_in_full():
    for seed in range(3000, 3100):
        obs, ic, delta, mode, directed = random_instance(seed)
        inst = build_instance(obs, ic, delta, mode, directed)
        got = solve(inst)
        want = brute_force_optimal(inst)
        assert got.status == want.status, f"seed {seed}"
        if got.status == STATUS_OPTIMAL:
            assert got.objective == want.objective, f"seed {seed}"
            np.testing.assert_array_equal(got.eliminated, want.eliminated, f"seed {seed}")
            assert audit_solution(inst, got) == [], f"seed {seed}"


@pytest.mark.skipif(importlib.util.find_spec("scipy") is None,
                    reason="the MILP oracle needs scipy (the test extra)")
@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from([(4, 4), (5, 3), (5, 4), (6, 3), (6, 4), (8, 3)]),
       n_shared=st.integers(4, 16), agree=st.floats(0.0, 0.5), n_free=st.integers(4, 14),
       seed=st.integers(0, 2 ** 32 - 1), delta=st.sampled_from(DELTA_GRID[:5]),
       mode=st.sampled_from(("per_object", "per_ground_rule")), directed=st.booleans())
def test_solve_agrees_with_milp_beyond_brute_force(shape, n_shared, agree, n_free, seed, delta,
                                                   mode, directed):
    # 13-24 branch variables, past brute force's 12 pairs, mostly over
    # budget at the root.  Each model predicts most shared objects: its
    # label's class with probability ``agree``, else any class.  All but
    # ``n_free`` pairs also predict one private object, so eliminating one
    # leaves that object bare: they are forced kept, which keeps the search
    # to the free pairs' subsets
    F, C = shape
    rng = np.random.default_rng(seed)
    label = rng.integers(C, size=n_shared)
    model, obj = np.nonzero(rng.random((F, n_shared)) < 0.7)
    klass = np.where(rng.random(len(obj)) < agree, label[obj], rng.integers(C, size=len(obj)))
    forced = rng.permutation(F * C)[n_free:]
    model, klass = np.concatenate((model, forced // C)), np.concatenate((klass, forced % C))
    obj = np.concatenate((obj, n_shared + np.arange(len(forced))))
    classes = tuple("abcd"[:C])
    obs = build_set(tuple(f"m{f}" for f in range(F)),
                    tuple(f"o{w:02d}" for w in range(n_shared + len(forced))),
                    classes, model.tolist(), obj.tolist(), klass.tolist(), [0.5] * len(obj))
    all_pairs = [(x, y) for i, x in enumerate(classes) for y in classes[i + 1:]]
    ic = IntegrityConstraintSet([p for p in all_pairs if rng.random() < 0.7])
    inst = build_instance(obs, ic, delta, mode, directed)
    assume(13 <= len(inst.start.var_f) <= 24)

    sol = solve(inst)
    optimum = milp_optimum(inst)
    assert (sol.status == STATUS_OPTIMAL) == (optimum is not None)
    if optimum is not None:
        assert sol.objective == optimum
        assert audit_solution(inst, sol) == []


def test_with_delta_matches_a_fresh_build():
    """An instance packed once and moved to each delta solves like one
    built at that delta."""
    for seed in range(3150, 3200):
        obs, ic, _, mode, directed = random_instance(seed)
        packed = build_instance(obs, ic, 0.0, mode, directed)
        for delta in (0.0, 0.2, 0.5, 1.0):
            moved, fresh = packed.with_delta(delta), build_instance(obs, ic, delta, mode, directed)
            assert (moved.delta, moved.delta_budget) == (fresh.delta, fresh.delta_budget)
            assert moved.start is packed.start
            a, b = solve(moved), solve(fresh)
            assert (a.status, a.objective, a.nodes) == (b.status, b.objective, b.nodes), seed
            np.testing.assert_array_equal(a.eliminated, b.eliminated)
    with pytest.raises(InputError):
        packed.with_delta(1.5)


def test_deep_search_visit_order_is_pinned():
    """MM_1 instances with 24 branch variables: node counts pin the visit
    order, bound and tie-break of the branch & bound."""
    for n_train, grid, n_test, epsilon, optimal, infeasible in (
            # the 100-object, epsilon 0.01 instance of the scaling acceptance test
            (1000, (0.01, 0.1, 0.2, 0.5), 100, 0.01, (0.5, 148, 557_333, 12), (0.1, 558_713)),
            # 1,000 objects: coverage sets wider than a few machine words
            (30, (0.01, 0.1, 0.3, 0.5), 1000, 0.1, (0.9, 1785, 54_653, 4), (0.5, 61_589))):
        rules = synthgen.generate(synthgen.preset("MM_1", n_train=n_train, n_test=2, seed=3))
        ruleset = learn_ruleset(rules.train, rules.train_labels, grid)
        data = synthgen.generate(synthgen.preset("MM_1", n_train=2, n_test=n_test, seed=17))
        filtered = apply_rules(data.test, ruleset, epsilon)[0]
        delta, objective, nodes, n_elim = optimal
        packed = build_instance(filtered, default_domain(data.test.classes).ic, delta)
        assert int((packed.pred.sum(axis=2) > 0).sum()) == 24
        sol = solve(packed)
        assert (sol.status, sol.objective, sol.nodes) == (STATUS_OPTIMAL, objective, nodes)
        assert sum(map(sum, sol.eliminated)) == n_elim
        assert audit_solution(packed, sol) == []
        delta, nodes = infeasible
        sol = solve(packed.with_delta(delta))
        assert (sol.status, sol.nodes) == (STATUS_INFEASIBLE, nodes)


def test_small_search_visit_order_is_pinned():
    """The node total over 2,000 small random instances pins the visit
    order, bound and tie-break where the brute-force comparison checks only
    the optimum."""
    total = 0
    for seed in range(3000, 5000):
        obs, ic, delta, mode, directed = random_instance(seed)
        total += solve(build_instance(obs, ic, delta, mode, directed)).nodes
    assert total == 12_580


def test_search_deeper_than_the_recursion_limit():
    """A linear tree 1,201 nodes deep: each model's A and B pairs cover a
    private object each and conflict on a shared last one, so eliminating
    any pair orphans its private object and the zero budget is never met.
    The search keeps every pair down to the last depth, one node per level,
    and closes each level's elimination child at once."""
    n_models = 600
    last = 1 << 2 * n_models
    start = kernels.search_start([1 << w | last for w in range(2 * n_models)], 2, [(0, 1)])
    limit = sys.getrecursionlimit()
    assert len(start.var_cls) == 2 * n_models > limit
    found, _, _, _, nodes = kernels.bnb_search(start, 0)
    assert (found, nodes) == (False, 2 * (2 * n_models) + 1)
    assert sys.getrecursionlimit() == limit


def test_solve_invariant_under_model_relabeling():
    for seed in range(3100, 3150):
        obs, ic, delta, mode, directed = random_instance(seed)
        renamed = obs_of([(e.object_id, f"m{9 - int(e.model_id[1:])}",
                           e.class_id, e.confidence) for e in obs.entries],
                         objects=sorted(obs.objects),
                         models=[f"m{9 - int(m[1:])}" for m in obs.models],
                         classes=sorted(obs.classes))
        a = solve(build_instance(obs, ic, delta, mode, directed))
        b = solve(build_instance(renamed, ic, delta, mode, directed))
        assert (a.status, a.objective) == (b.status, b.objective), f"seed {seed}"


def test_audit_flags_corrupted_solutions():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    inst = build_instance(obs, IC_CT, 0.0)
    sol = solve(inst)
    covered = list(sol.covered)
    covered[inst.classes.index("car")] |= 1 << inst.objects.index("o1")
    bad = solver_ip.IpSolution(sol.status, sol.objective, sol.nodes,
                               sol.eliminated, covered, inst)
    # assign[("car", "o1")] is now 1 although its support was eliminated
    assert any("exceeds its support" in p for p in audit_solution(inst, bad))


def test_audit_flags_budget_overrun():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8)])
    inst = build_instance(obs, IC_CT, 0.0)
    rich = solve(build_instance(obs, IC_CT, 1.0))
    # a solution that was optimal under a looser budget must fail this audit
    assert any("budget" in p for p in audit_solution(inst, rich))


def test_audit_is_clean_on_exact_and_brute_force_solutions():
    for seed in range(3000, 3200):
        obs, ic, delta, mode, directed = random_instance(seed)
        inst = build_instance(obs, ic, delta, mode, directed)
        for sol in (solve(inst), brute_force_optimal(inst)):
            want = ([] if sol.status == STATUS_OPTIMAL
                    else ["solution is not optimal-status; nothing to audit"])
            assert audit_solution(inst, sol) == want, seed


def _corrupt(sol, **fields):
    """``sol`` with some of its status, objective, eliminated and covered replaced."""
    f = {"status": sol.status, "objective": sol.objective, "eliminated": sol.eliminated,
         "covered": sol.covered, **fields}
    return solver_ip.IpSolution(f["status"], f["objective"], sol.nodes, f["eliminated"],
                                f["covered"], sol.instance)


def _flipped(elim, f, c, value):
    """The elimination bits ``elim`` with bit (f, c) set to ``value``."""
    elim = [list(row) for row in elim]
    elim[f][c] = value
    return elim


def _flipped_cell(cov, c, w, value):
    """The coverage ``cov`` with object ``w`` in or out of class ``c``."""
    cov = list(cov)
    cov[c] = cov[c] | 1 << w if value else cov[c] & ~(1 << w)
    return cov


@pytest.mark.parametrize("kind", ["status", "elim_shape", "covered_shape", "covered_dtype",
                                  "covered_range", "non_binary", "below", "exceeds", "uncovered",
                                  "budget", "objective"])
def test_audit_names_each_corruption(kind):
    # f1/car covers o1 and o2; at delta 0 the optimum eliminates f2/tree
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.7)], objects=["o1", "o2", "o3"])
    inst = build_instance(obs, IC_CT, 0.0)
    sol = solve(inst)
    assert audit_solution(inst, sol) == []
    elim, cov = sol.eliminated, sol.covered
    bad, want = {
        "status": (dict(status=STATUS_INFEASIBLE),
                   ["solution is not optimal-status; nothing to audit"]),
        "elim_shape": (dict(eliminated=elim[:1]), ["eliminated has shape (1, 2), not (2, 2)"]),
        "covered_shape": (dict(covered=cov[:1]), ["covered is not 2 int bitsets of 3 objects"]),
        # a float, and a set naming an object past the last
        "covered_dtype": (dict(covered=[float(cov[0]), cov[1]]),
                          ["covered is not 2 int bitsets of 3 objects"]),
        "covered_range": (dict(covered=_flipped_cell(cov, 1, 3, True)),
                          ["covered is not 2 int bitsets of 3 objects"]),
        "non_binary": (dict(eliminated=_flipped(elim, 1, 1, 2)),
                       ["elimination bits are not all 0 or 1: [0, 2]"]),
        "below": (dict(covered=_flipped_cell(cov, 0, 1, False), objective=1),
                  ["covered['car', 'o2'] = 0 below a considered prediction",
                   "coverable object 'o2' has no assignment"]),
        "exceeds": (dict(covered=_flipped_cell(cov, 1, 2, True), objective=3),
                    ["covered['tree', 'o3'] = 1 exceeds its support 0"]),
        "uncovered": (dict(eliminated=[[1, 1], [1, 1]], covered=[0, 0], objective=0),
                      ["coverable object 'o1' has no assignment",
                       "coverable object 'o2' has no assignment"]),
        "budget": (dict(eliminated=[[0, 0], [0, 0]], covered=_flipped_cell(cov, 1, 0, True),
                        objective=3),
                   ["violation count 1 exceeds budget 0"]),
        "objective": (dict(objective=5), ["objective 5 != assigned atom count 2"]),
    }[kind]
    assert audit_solution(inst, _corrupt(sol, **bad)) == want


def test_array_solution_counts_match_its_atoms():
    for seed in range(3000, 3100):
        obs, ic, delta, mode, directed = random_instance(seed)
        inst = build_instance(obs, ic, delta, mode, directed)
        for sol in (solve(inst), brute_force_optimal(inst)):
            atoms = assigned_atoms(sol)
            if sol.status == STATUS_OPTIMAL:
                assert sol.n_violations() == len(find_violations(atoms, ic)), seed
                assert sol.objective == len(atoms), seed
            else:
                assert atoms == accepted_pairs(sol) == frozenset(), seed


def test_solution_arrays_have_instance_shapes():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "car", 0.7)], objects=["o1", "o2", "o3"])
    inst = build_instance(obs, IC_CT, 0.0)
    sol = solve(inst)
    # a bit set per class over the objects, one 0/1 list per model
    assert sol.covered == [0b011, 0b000]
    assert sol.eliminated == [[0, 0], [0, 1]]
    assert sol.n_violations() == 0


def dump_instance(instance):
    """Human-readable instance dump for debugging and audits."""
    return json.dumps({
        "objects": list(instance.objects),
        "models": list(instance.models),
        "classes": list(instance.classes),
        "predictions": sorted(
            [instance.models[f], instance.classes[c], instance.objects[w]]
            for f, c, w in zip(*np.nonzero(instance.pred))),
        "exclusion_pairs": [list(p) for p in instance.ic.pairs],
        "delta": instance.delta,
        "delta_budget": instance.delta_budget,
        "normalizer_mode": instance.normalizer_mode,
        "directed_ground_rules": instance.directed_ground_rules,
    }, indent=2)


def dump_solution(sol):
    return json.dumps({
        "status": sol.status,
        "objective": sol.objective,
        "eliminated": sorted(map(list, eliminated_pairs(sol))),
        "assigned": sorted(map(list, assigned_atoms(sol))),
        "violated": sorted([w, list(p)] for w, p in
                           find_violations(assigned_atoms(sol), sol.instance.ic)),
        "nodes": sol.nodes,
    }, indent=2)


def test_dump_helpers_smoke():
    obs = obs_of([("o1", "f1", "car", 0.9)], classes=["car", "tree"])
    inst = build_instance(obs, IC_CT, 0.5)
    sol = solve(inst)
    assert "o1" in dump_instance(inst)
    assert "objective" in dump_solution(sol)
