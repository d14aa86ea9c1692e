"""System-level guarantees, one test per claim.

Each test here checks an end-to-end property of the fusion pipeline against
an independent reference computed inside the test: exhaustive search for the
exact solver, naive closures for the deduction engine, re-implementations of
the matcher and greedy bookkeeping, and seed-averaged quality trends on the
synthetic generator.  Instance families are frozen by seed so failures are
reproducible.
"""

import csv
import itertools
import random
import statistics
import time

import pytest

from abfuse import solver_ip, synthgen
from abfuse.baselines import best_individual, majority_vote
from abfuse.deduction import (IntegrityConstraintSet, default_domain,
                              find_violations, violation_budget)
from abfuse.edr import RuleSet, apply_rules, learn_ruleset
from abfuse.evaluation import (SweepDataset, per_model_metrics, run_sweep,
                               score_atoms)
from abfuse.model_io import Observation, Truth, match_detections
from abfuse.solver_hs import HsConfig, heuristic_search
from abfuse.tiebreak import apply_tiebreaker, candidates_from_atoms

from conftest import (DELTA_GRID, assigned_atoms, random_instance, row_labels, survivors,
                      tables)
from oracles import (BoundingBox, Detection, GroundTruthObject, Hypothesis,
                     brute_force_optimal, calc_incon, fixpoint, flags,
                     get_filtered_preds, labels_to_atoms, observation_set,
                     selected, sibling_index)

EPSILON_GRID = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _hs(obs, ic, delta, mode, directed):
    filters = survivors(obs, RuleSet((0.5,)), (0.5,))
    return heuristic_search(obs, HsConfig(delta, (0.5,)), filters, ic, mode, directed)


def _hs_pattern_is_exact_feasible(obs, ic, delta, mode, directed, result):
    """Would the greedy selection satisfy the exact solver's constraints?"""
    budget = violation_budget(delta, len(obs.objects), ic, mode, directed)
    atoms = result.atoms()
    covered = {w for _, w in atoms}
    coverable = {e.object_id for e in obs.entries}
    return coverable <= covered and len(find_violations(atoms, ic)) <= budget


def test_c01_exact_solver_matches_exhaustive_reference(shared_instances, warm_kernels):
    times = []
    for obs, ic, delta, mode, directed in shared_instances:
        instance = solver_ip.build_instance(obs, ic, delta, mode, directed)
        t0 = time.perf_counter()
        sol = solver_ip.solve(instance)
        times.append(time.perf_counter() - t0)
        ref = brute_force_optimal(instance)
        assert sol.status == ref.status
        if sol.status == solver_ip.STATUS_OPTIMAL:
            assert sol.objective == ref.objective
    assert statistics.median(times) < 0.100


def test_c02_optimal_solutions_survive_constraint_audit(shared_instances):
    audited = 0
    for obs, ic, delta, mode, directed in shared_instances:
        instance = solver_ip.build_instance(obs, ic, delta, mode, directed)
        sol = solver_ip.solve(instance)
        if sol.status != solver_ip.STATUS_OPTIMAL:
            continue
        assert solver_ip.audit_solution(instance, sol) == []
        audited += 1
    assert audited > 0


def test_c03_greedy_selection_feasible_at_every_step(shared_instances):
    for obs, ic, delta, mode, directed in shared_instances:
        result = _hs(obs, ic, delta, mode, directed)
        n = len(obs.objects)
        running = set()
        for step in result.trace.steps:
            if step.chosen_epsilon is not None:
                running |= get_filtered_preds(step.model_id, step.class_id,
                                              step.chosen_epsilon, obs,
                                              RuleSet((0.5,)))
            inc = calc_incon(running, ic, mode, n_objects=n,
                             directed_ground_rules=directed)
            assert inc <= delta + 1e-12
            assert inc == pytest.approx(step.incon_after, abs=1e-12)
            atoms = {(e.class_id, e.object_id) for e in running}
            assert len(atoms) == step.s_size_after
        assert frozenset(running) == selected(result)
        assert result.inconsistency <= delta + 1e-12


def test_c04_exact_objective_dominates_feasible_greedy_patterns(shared_instances):
    optimal = infeasible = 0
    for obs, ic, delta, mode, directed in shared_instances:
        result = _hs(obs, ic, delta, mode, directed)
        sol = solver_ip.solve(solver_ip.build_instance(obs, ic, delta, mode, directed))
        if sol.status == solver_ip.STATUS_OPTIMAL:
            optimal += 1
            # on this family the exact optimum never loses; in general that
            # is guaranteed whenever the greedy pattern is itself feasible
            # for the exact program, which the second assert relies on
            assert sol.objective >= result.n_atoms
        else:
            infeasible += 1
            assert not _hs_pattern_is_exact_feasible(obs, ic, delta, mode,
                                                     directed, result)
    assert optimal == 218 and infeasible == 2


def test_c05_objective_monotone_in_delta(warm_kernels):
    for seed in range(2000, 2020):
        obs, ic, _, mode, directed = random_instance(seed)
        objectives = []
        for delta in DELTA_GRID:
            sol = solver_ip.solve(
                solver_ip.build_instance(obs, ic, delta, mode, directed))
            objectives.append(sol.objective
                              if sol.status == solver_ip.STATUS_OPTIMAL else -1)
        assert objectives == sorted(objectives), (seed, objectives)


def test_c06_learned_rules_respect_flag_budget():
    for seed in range(50):
        scenario = synthgen.preset("EG_1", n_models=4, n_train=200,
                                   n_test=0, seed=seed)
        data = synthgen.generate(scenario)
        ruleset = learn_ruleset(data.train, data.train_labels, EPSILON_GRID)
        siblings = sibling_index(data.train)
        by_pair = {}
        for e in data.train.entries:
            by_pair.setdefault((e.model_id, e.class_id), []).append(e)
        for (model, cls), entries in by_pair.items():
            correct = [e for e in entries
                       if data.train_labels[e.object_id] == e.class_id]
            if not correct:
                continue
            for eps in EPSILON_GRID:
                rule = ruleset.rule_for(model, cls, eps)
                flagged = sum(flags(rule, e, siblings[e.object_id])
                              for e in correct)
                assert flagged / len(correct) <= eps + 1e-12


def test_c07_epsilon_sweep_trades_recall_for_precision():
    n_eps = len(EPSILON_GRID)
    sums = {"precision": [0.0] * n_eps, "recall": [0.0] * n_eps,
            "inconsistency": [0.0] * n_eps}
    n_seeds = 10
    for seed in range(n_seeds):
        data = synthgen.generate(
            synthgen.preset("MM_1", n_train=1000, n_test=2000, seed=seed))
        ruleset = learn_ruleset(data.train, data.train_labels, EPSILON_GRID)
        domain = default_domain(data.test.classes)
        labels = data.test_labels
        n_objects = len(data.test.objects)
        n_correct_raw = sum(labels[e.object_id] == e.class_id
                            for e in data.test.entries)
        for i, eps in enumerate(EPSILON_GRID):
            surviving = apply_rules(data.test, ruleset, eps)[0]
            kept = surviving.entries
            correct = sum(labels[e.object_id] == e.class_id for e in kept)
            sums["precision"][i] += correct / len(kept) if kept else 1.0
            sums["recall"][i] += correct / n_correct_raw
            sums["inconsistency"][i] += calc_incon(
                kept, domain.ic, domain.normalizer_mode, n_objects=n_objects)

    def adjacent_violations(seq, increasing):
        sign = 1.0 if increasing else -1.0
        return sum(sign * (b - a) < -1e-12 for a, b in zip(seq, seq[1:]))

    precision = [v / n_seeds for v in sums["precision"]]
    recall = [v / n_seeds for v in sums["recall"]]
    incon = [v / n_seeds for v in sums["inconsistency"]]
    assert adjacent_violations(precision, increasing=True) <= 1, precision
    assert adjacent_violations(recall, increasing=False) <= 1, recall
    assert adjacent_violations(incon, increasing=False) <= 1, incon


def test_c08_fusion_beats_individual_and_vote_baselines(warm_kernels):
    delta, eps = 0.8, 0.1
    ge_best = gt_vote = 0
    n_seeds = 50
    for seed in range(n_seeds):
        data = synthgen.generate(
            synthgen.preset("EG_1", n_train=400, n_test=600, seed=seed))
        ruleset = learn_ruleset(data.train, data.train_labels, (eps,))
        domain = default_domain(data.test.classes)
        labels = data.test_labels
        n_objects = len(data.test.objects)

        filtered = apply_rules(data.test, ruleset, eps)[0]
        sol = solver_ip.solve(solver_ip.build_instance(
            filtered, domain.ic, delta,
            domain.normalizer_mode, domain.directed_ground_rules))
        assert sol.status == solver_ip.STATUS_OPTIMAL
        resolved = apply_tiebreaker(
            candidates_from_atoms(assigned_atoms(sol), filtered))
        fused_atoms = {(cls, obj) for obj, (cls, _, _) in resolved.items()}
        fused = score_atoms(fused_atoms, labels, n_objects=n_objects).f1

        per_model = per_model_metrics(
            data.test, Truth.of(labels, data.test.objects, data.test.classes), domain)
        best = per_model[best_individual(per_model)].f1
        vote = score_atoms(labels_to_atoms(row_labels(data.test, majority_vote(data.test))),
                           labels, n_objects=n_objects).f1
        ge_best += fused + 1e-12 >= best
        gt_vote += fused > vote
    assert ge_best >= 0.8 * n_seeds, ge_best
    assert gt_vote >= 0.9 * n_seeds, gt_vote


def _micro_closure_instance(seed):
    rng = random.Random(seed)
    models = [f"f{i}" for i in range(rng.randint(1, 3))]
    classes = list("ABC"[: rng.randint(2, 3)])
    objs = [f"o{i}" for i in range(rng.randint(1, 4))]
    entries = [Observation(w, f, rng.choice(classes), round(rng.random(), 3))
               for f in models for w in objs if rng.random() < 0.8]
    obs = observation_set(entries, objects=objs, models=models, classes=classes)
    ic = IntegrityConstraintSet(tuple(
        p for p in itertools.combinations(classes, 2) if rng.random() < 0.6))
    hyp = Hypothesis(frozenset((f, c) for f in models for c in classes
                               if rng.random() < 0.6))
    known = {(e.model_id, e.class_id, e.object_id)
             for e in entries if rng.random() < 0.15}
    if rng.random() < 0.2:  # a known error nobody predicted
        known.add((rng.choice(models), rng.choice(classes), rng.choice(objs)))
    mode = rng.choice(("per_object", "per_ground_rule"))
    return obs, hyp, ic, frozenset(known), mode, rng.random() < 0.3


def test_c09_fixpoint_matches_naive_closure():
    for seed in range(500):
        obs, hyp, ic, known, mode, directed = _micro_closure_instance(seed)
        res = fixpoint(obs, hyp, ic, known, mode, directed)

        assigned, errors = set(), set(known)
        for e in obs.entries:
            triple = (e.model_id, e.class_id, e.object_id)
            if not hyp.accepts(e.model_id, e.class_id):
                errors.add(triple)
            elif triple not in known:
                assigned.add((e.class_id, e.object_id))
        violations = set()
        for w in obs.objects:
            present = {c for c, ww in assigned if ww == w}
            for a, b in ic.pairs:
                if a in present and b in present:
                    violations.add((w, (a, b)))
        weight = 2 if directed else 1
        if not ic.pairs:
            inc = 0.0
        elif mode == "per_object":
            inc = min(1.0, weight * len(violations) / len(obs.objects))
        else:
            inc = len(violations) / (len(obs.objects) * len(ic.pairs))

        assert res.assigned == frozenset(assigned), seed
        assert res.errors == frozenset(errors), seed
        assert res.violations == frozenset(violations), seed
        assert res.pred == len(assigned), seed
        assert res.inc == pytest.approx(inc, abs=1e-12), seed


def test_c10_tiebreak_deterministic_and_idempotent():
    classes = ("A", "B", "C", "D")
    confs = (0.25, 0.5, 0.5, 0.75, 0.9)
    for seed in range(1000):
        rng = random.Random(seed)
        cands = []
        for i in range(rng.randint(1, 6)):
            for _ in range(rng.randint(1, 5)):
                cands.append((f"o{i}", rng.choice(classes),
                              f"f{rng.randint(1, 4)}", rng.choice(confs)))
        obj, cls, _, conf = rng.choice(cands)
        other = classes[0] if cls != classes[0] else classes[1]
        cands.append((obj, other, f"g{rng.randint(1, 3)}", conf))

        resolved = apply_tiebreaker(cands)
        for _ in range(3):
            rng.shuffle(cands)
            assert apply_tiebreaker(cands) == resolved
        again = apply_tiebreaker(
            [(o, c, m, v) for o, (c, m, v) in resolved.items()])
        assert again == resolved


def _reference_match(gt, dets, threshold):
    """Independent restatement of the two-stage matching contract."""
    def iou(a, b):
        ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
        iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
        if ix <= 0.0 or iy <= 0.0:
            return 0.0
        inter = ix * iy
        area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
        area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
        return inter / (area_a + area_b - inter)

    images = list(dict.fromkeys(g.image_id for g in gt))
    used, rows, covered = set(), set(), set()
    for img in images:
        for model in sorted({d.model_id for d in dets}):
            for g in (g for g in gt if g.image_id == img):
                pool = [(pos, d) for pos, d in enumerate(dets)
                        if pos not in used and d.image_id == img
                        and d.model_id == model
                        and iou(d.bbox, g.bbox) > threshold]
                if pool:
                    pos, d = min(pool, key=lambda pd: (-pd[1].confidence, pd[0]))
                    used.add(pos)
                    rows.add((g.object_id, model, d.class_id, d.confidence))
                    covered.add(g.object_id)
    for img in images:
        for g in (g for g in gt if g.image_id == img and g.object_id not in covered):
            pool = [(iou(d.bbox, g.bbox), pos, d) for pos, d in enumerate(dets)
                    if pos not in used and d.image_id == img]
            pool = [t for t in pool if t[0] > 0.0]
            if pool:
                v, pos, d = min(pool, key=lambda t: (-t[0], -t[2].confidence,
                                                     t[2].model_id, t[1]))
                used.add(pos)
                rows.add((g.object_id, d.model_id, d.class_id, d.confidence))
                covered.add(g.object_id)
    return rows


def _geometric_instance(seed):
    rng = random.Random(seed)
    classes = ("car", "person", "tree")
    models = [f"m{i}" for i in range(rng.randint(2, 3))]
    gt, dets = [], []
    for img in [f"img{k}" for k in range(rng.randint(1, 3))]:
        for i in range(rng.randint(2, 6)):
            x = 30.0 * i
            box = BoundingBox(x, 0.0, x + 10.0, 10.0)
            gt.append(GroundTruthObject(img, f"{img}-o{i}", rng.choice(classes), box))
            for m in models:
                r = rng.random()
                if r < 0.25:
                    continue  # model missed this object
                dx = 0.2 if r < 0.75 else 2.0  # tight vs loose overlap
                dets.append(Detection(img, m, rng.choice(classes),
                                      rng.randrange(1, 20) * 0.05,
                                      BoundingBox(x + dx, 0.0, x + dx + 10.0, 10.0)))
        for _ in range(rng.randint(0, 3)):  # clutter far from every object
            x = 30.0 * rng.randint(10, 20) + 15.0
            dets.append(Detection(img, rng.choice(models), rng.choice(classes),
                                  rng.randrange(1, 20) * 0.05,
                                  BoundingBox(x, 0.0, x + 10.0, 10.0)))
    rng.shuffle(dets)
    return gt, dets


def test_c11_matcher_matches_reference_two_stage():
    for seed in range(100):
        gt, dets = _geometric_instance(seed)
        obs = match_detections(*tables(gt, dets), primary_iou=0.90)
        expect = _reference_match(gt, dets, 0.90)
        assert set(map(tuple, obs.entries)) == expect, seed
        assert obs.objects == tuple(sorted(g.object_id for g in gt))


def test_c12_greedy_scales_cheaper_than_exact(tmp_path, warm_kernels):
    deltas = (0.1, 0.3, 0.5, 0.7, 0.9)
    epsilons = (0.01, 0.1, 0.2, 0.5)
    rules_data = synthgen.generate(
        synthgen.preset("MM_1", n_train=1000, n_test=2, seed=3))
    ruleset = learn_ruleset(rules_data.train, rules_data.train_labels, epsilons)

    for size in (100, 500, 1000, 2500, 5000):
        data = synthgen.generate(
            synthgen.preset("MM_1", n_train=2, n_test=size, seed=17))
        dataset = SweepDataset(data.test, data.test_labels, ruleset,
                               default_domain(data.test.classes),
                               name=f"mm1-{size}")
        # each cell's fastest of three runs, so one slow moment of the
        # machine does not decide the comparison
        result = run_sweep(dataset, methods=("ip", "hs"), delta_grid=deltas,
                           epsilon_grid=epsilons, repeats=3, timing=True)
        path = tmp_path / f"sweep_{size}.csv"
        result.to_csv(str(path))

        fastest = {}
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                cell = (row["method"], row["delta"], row["epsilon"])
                fastest[cell] = min(fastest.get(cell, float("inf")),
                                    float(row["runtime_per_object"]))
        by_method = {"ip": [], "hs": []}
        for (method, _, _), rpo in fastest.items():
            by_method[method].append(rpo)
        assert len(by_method["ip"]) == len(deltas) * len(epsilons)
        mean_ip = statistics.mean(by_method["ip"])
        mean_hs = statistics.mean(by_method["hs"])
        assert mean_hs < mean_ip, (size, mean_hs, mean_ip)
