"""Scoring, the method sweep, and its CSV/manifest outputs."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse import evaluation, tiebreak
from abfuse.cli import _parse_grid
from abfuse.deduction import (NORMALIZER_MODES, DomainConfig,
                              IntegrityConstraintSet, default_domain, violation_budget)
from abfuse.evaluation import (CSV_COLUMNS, METHODS, SweepCell, SweepDataset,
                               Truth, per_model_metrics, run_sweep, score,
                               score_atoms, solver_cells)
from abfuse.edr import Condition, RuleSet, apply_rules, learn_ruleset
from abfuse.model_io import InputError, ObservationSet
from abfuse.solver_hs import HsConfig, heuristic_search
from abfuse.solver_ip import build_instance, solve
from abfuse.synthgen import generate, preset, write_dataset
from abfuse.tiebreak import resolve

from conftest import cell_fields, empty_rules, obs_of, survivors
from oracles import fingerprint_reference, labels_to_atoms, score_reference

GT = {"o1": "car", "o2": "tree"}


# ------------------------------------------------------------------ scoring

def test_generation_solving_and_scoring_leave_entries_unbuilt(tmp_path):
    # every stage works on the set's arrays; the per-row Observation
    # records are only built when a caller asks for ``entries``
    data = generate(preset("MM_1", n_models=4, n_train=60, n_test=40, seed=2))
    write_dataset(data, str(tmp_path))
    rules = learn_ruleset(data.train, data.train_labels, epsilon_grid=(0.1, 0.5))
    obs = data.test
    dom = default_domain(obs.classes)
    filtered = apply_rules(obs, rules, 0.5)[0]
    res = heuristic_search(obs, HsConfig(0.5, (0.1, 0.5)), survivors(obs, rules, (0.1, 0.5)),
                           dom.ic)
    sol = solve(build_instance(filtered, dom.ic, 0.5))
    truth = Truth.of(data.test_labels, obs.objects, obs.classes)
    for solved, rows in ((obs, res.rows), (filtered, filtered.rows_within(sol.covered))):
        score(solved.coverage(resolve(solved, rows)), truth, domain=dom,
              n_objects=len(obs.objects))
    for built in (data.train, obs, filtered):
        assert "entries" not in built.__dict__
    assert len(filtered.entries) == len(filtered.obj)
    assert "entries" in filtered.__dict__


def test_ip_cell_rows_index_the_loaded_set():
    # the exact solver runs on the filtered copy; its cell maps the covered
    # cells back to the surviving rows of the loaded set
    data = generate(preset("MM_1", n_models=4, n_train=200, n_test=150, seed=3))
    rules = learn_ruleset(data.train, data.train_labels, epsilon_grid=(0.1, 0.5))
    obs, dom = data.test, default_domain(data.test.classes)
    statuses = set()
    for eps, delta in ((0.1, 0.0), (0.1, 0.5), (0.5, 0.2), (0.5, 1.0)):
        (cell,) = evaluation.solver_cells(obs, rules, dom, (eps,), (delta,), ("ip",))
        filtered, flagged, kept = apply_rules(obs, rules, eps)
        assert flagged
        sol = solve(build_instance(filtered, dom.ic, delta))
        assert cell.rows == [kept[r] for r in filtered.rows_within(sol.covered)]
        assert cell.cover == sol.covered == obs.coverage(cell.rows)
        statuses.add(cell.status)
    assert statuses == {"ok", "infeasible"}


@pytest.mark.parametrize("solvers, epsilons", [
    (("hs",), (0.5, 0.1, 0.5)), (("ip",), (0.1,)), (("ip", "hs"), (0.5,))])
def test_solver_cells_filter_once_per_epsilon(monkeypatch, solvers, epsilons):
    # every delta, repeat and solver shares each epsilon's one filter
    data = generate(preset("MM_1", n_models=4, n_train=80, n_test=40, seed=1))
    rules = learn_ruleset(data.train, data.train_labels, epsilon_grid=(0.1, 0.5))
    calls = []

    def counted(obs, ruleset, epsilon):
        calls.append(epsilon)
        return apply_rules(obs, ruleset, epsilon)

    monkeypatch.setattr(evaluation, "apply_rules", counted)
    cells = list(evaluation.solver_cells(data.test, rules, default_domain(data.test.classes),
                                         epsilons, (0.0, 0.2, 0.5), solvers, repeats=2))
    assert len(cells) == 3 * 2 * len(solvers)
    assert sorted(calls) == sorted(set(epsilons))


def test_score_perfect():
    m = score_atoms([("car", "o1"), ("tree", "o2")], GT)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)
    assert m.n_objects == 2


def test_score_nothing_assigned():
    m = score_atoms([], GT)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (0.0, 0.0, 0.0, 0.0)


def test_score_half_right():
    m = score_atoms([("car", "o1"), ("car", "o2")], GT)
    assert (m.precision, m.recall, m.f1, m.accuracy) == (0.5, 0.5, 0.5, 0.5)


def test_score_accuracy_needs_single_atom():
    m = score_atoms([("car", "o1"), ("tree", "o1")], {"o1": "car"})
    assert m.recall == 1.0
    assert m.accuracy == 0.0
    assert m.precision == 0.5


def test_score_rejects_empty_ground_truth():
    with pytest.raises(InputError):
        score_atoms([("car", "o1")], {})


def test_score_computes_inconsistency_with_domain():
    dom = default_domain(("car", "tree"))
    m = score_atoms([("car", "o1"), ("tree", "o1")], GT, domain=dom)
    assert m.inconsistency == 0.5
    assert score_atoms([("car", "o1")], GT, domain=dom).inconsistency == 0.0


def test_score_invariants_random():
    rng = random.Random(3)
    classes = ["a", "b", "c"]
    for _ in range(100):
        gt = {f"o{i}": rng.choice(classes) for i in range(rng.randint(1, 6))}
        atoms = {(rng.choice(classes), f"o{rng.randint(0, 7)}")
                 for _ in range(rng.randint(0, 8))}
        m = score_atoms(atoms, gt)
        assert m.accuracy <= m.recall
        if m.precision + m.recall:
            assert m.f1 == pytest.approx(
                2 * m.precision * m.recall / (m.precision + m.recall))
        else:
            assert m.f1 == 0.0


# ids outside the observed universe: class Z only in atoms, class Y only in
# labels, object o9 only in atoms, o5 only in labels
DOMAINS = st.builds(
    lambda pairs, mode, directed: DomainConfig(
        ("A", "B", "C", "Y", "Z"), IntegrityConstraintSet(tuple(pairs)), mode, directed),
    st.sets(st.sampled_from((("A", "B"), ("A", "C"), ("B", "C"), ("A", "Z"), ("B", "Y")))),
    st.sampled_from(NORMALIZER_MODES), st.booleans())
LABELS = st.dictionaries(st.sampled_from(("o1", "o2", "o3", "o5")),
                         st.sampled_from(("A", "B", "C", "Y")), min_size=1)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.tuples(st.sampled_from(("A", "B", "C", "Z")),
                         st.sampled_from(("o1", "o2", "o3", "o4", "o9")))),
       LABELS, DOMAINS, st.none() | st.integers(0, 6))
def test_score_atoms_match_the_per_atom_oracle(atoms, gt, dom, n_objects):
    # empty and multi-label atom sets, both normalizer modes, directed rules
    assert vars(score_atoms(atoms, gt, domain=dom, n_objects=n_objects)) == \
        vars(score_reference(atoms, gt, domain=dom, n_objects=n_objects))


@settings(max_examples=300, deadline=None)
@given(st.data(), LABELS, DOMAINS)
def test_score_of_view_rows_matches_the_per_atom_oracle(data, gt, dom):
    rows = data.draw(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3", "o4")),
                                        st.sampled_from(("f1", "f2", "f3")),
                                        st.sampled_from(("A", "B", "C")),
                                        st.sampled_from((0.5, 1.0))),
                              unique_by=lambda r: (r[0], r[1])))
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4"], classes=["A", "B", "C"])
    keep = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                             max_size=len(rows)))).tolist()
    atoms = {(e.class_id, e.object_id) for e in obs.subset(keep).entries}
    # a coverage is scored on its own classes: the pairs on Y and Z go, as
    # the CLI drops the pairs on classes its data lacks
    dom = DomainConfig(dom.classes, IntegrityConstraintSet(
        p for p in dom.ic.pairs if set(p) <= set(obs.classes)), dom.normalizer_mode,
        dom.directed_ground_rules)
    truth = Truth.of(gt, obs.objects, obs.classes)
    assert vars(score(obs.coverage(keep), truth, domain=dom, n_objects=4)) == \
        vars(score_reference(atoms, gt, domain=dom, n_objects=4))
    for f, m in per_model_metrics(obs, truth, dom).items():
        own = {(e.class_id, e.object_id) for e in obs.entries if e.model_id == f}
        assert vars(m) == vars(score_reference(own, gt, domain=dom, n_objects=4))


def test_labels_to_atoms():
    assert labels_to_atoms({"o1": "car", "o2": "tree"}) == \
        frozenset({("car", "o1"), ("tree", "o2")})


def test_per_model_metrics():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o2", "f1", "tree", 0.8),
                  ("o1", "f2", "tree", 0.4), ("o2", "f2", "tree", 0.5)])
    per = per_model_metrics(obs, Truth.of(GT, obs.objects, obs.classes))
    assert per["f1"].f1 == 1.0
    assert per["f2"].accuracy == 0.5
    assert per["f2"].precision == 0.5


# -------------------------------------------------------------------- sweep

def tiny_dataset():
    obs = obs_of([("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.8),
                  ("o2", "f1", "tree", 0.7), ("o2", "f2", "tree", 0.6)])
    return SweepDataset(obs, GT, empty_rules((0.1, 0.5)),
                        default_domain(("car", "tree")), name="tiny")


def infeasible_dataset():
    # o1 needs (f1, A), o3 needs (f2, B), and the pairs collide on o2
    obs = obs_of([("o1", "f1", "A", 0.9), ("o2", "f1", "A", 0.9),
                  ("o2", "f2", "B", 0.8), ("o3", "f2", "B", 0.8)])
    labels = {"o1": "A", "o2": "A", "o3": "B"}
    return SweepDataset(obs, labels, empty_rules((0.5,)),
                        default_domain(("A", "B")))


def test_sweep_row_shape_and_order():
    res = run_sweep(tiny_dataset(), methods=("ip", "hs", "mv"),
                    delta_grid=(0.5, 0.1), epsilon_grid=(0.1, 0.5),
                    timing=False)
    assert len(res.cells) == 3 * 4
    keys = [(c.delta, c.epsilon, c.method) for c in res.cells]
    # grids are sorted; solver rows come per cell, baselines as a block after
    solver = [(d, e, m) for d in (0.1, 0.5) for e in (0.1, 0.5)
              for m in ("ip", "hs")]
    vote = [(d, e, "mv") for d in (0.1, 0.5) for e in (0.1, 0.5)]
    assert keys == solver + vote
    assert {c.status for c in res.cells} == {"ok"}


def test_sweep_all_methods_once():
    res = run_sweep(tiny_dataset(), delta_grid=(1.0,), epsilon_grid=(0.5,),
                    timing=False)
    assert [c.method for c in res.cells] == list(METHODS)
    by_method = {c.method: c.metrics for c in res.cells}
    # everything kept at full budget: the exact solver scores like the raw
    # atom set, and the tie-broken variant resolves o1 to its strongest class
    assert by_method["ip"].recall == 1.0
    assert by_method["ip+tb"].accuracy == 1.0
    assert by_method["mv"].accuracy == 1.0


def test_sweep_repeats_duplicate_rows(tmp_path):
    res = run_sweep(tiny_dataset(), methods=("ip", "mv"), delta_grid=(0.5,),
                    epsilon_grid=(0.5,), repeats=3, timing=False)
    assert len(res.cells) == 6
    path = tmp_path / "sweep.csv"
    res.to_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 7
    assert len(set(lines[1:])) == 2  # three identical rows per method


def test_sweep_csv_deterministic_without_timing(tmp_path):
    a, b = (run_sweep(tiny_dataset(), methods=("ip", "hs", "best", "avg"),
                      delta_grid=(0.1, 1.0), epsilon_grid=(0.1,),
                      timing=False) for _ in range(2))
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    a.to_csv(pa)
    b.to_csv(pb)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_parallel_matches_serial(tmp_path):
    kw = dict(methods=("ip", "hs", "mv"), delta_grid=(0.1, 0.9),
              epsilon_grid=(0.1, 0.5), timing=False)
    serial = run_sweep(tiny_dataset(), jobs=1, **kw)
    parallel = run_sweep(tiny_dataset(), jobs=2, **kw)
    assert cell_fields(serial.cells) == cell_fields(parallel.cells)


def test_sweep_starts_at_most_one_worker_per_row(monkeypatch):
    # a process pool starts all its workers at the first submit, so the
    # sweep asks for no more workers than it has epsilon rows
    import concurrent.futures

    asked = []

    class SerialPool:
        """Records ``max_workers`` and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    kw = dict(methods=("ip", "hs", "mv"), delta_grid=(0.1, 0.9),
              epsilon_grid=(0.1, 0.5), timing=False)
    serial = run_sweep(tiny_dataset(), jobs=1, **kw)
    assert asked == []
    for jobs in (2, 64):
        res = run_sweep(tiny_dataset(), jobs=jobs, **kw)
        assert cell_fields(res.cells) == cell_fields(serial.cells)
        assert res.manifest["jobs"] == jobs
    assert asked == [2, 2]
    with pytest.raises(InputError, match="jobs must be >= 1"):
        run_sweep(tiny_dataset(), jobs=0, **kw)


def test_sweep_validates_inputs():
    ds = tiny_dataset()
    with pytest.raises(InputError, match="grid is empty"):
        run_sweep(ds, delta_grid=())
    with pytest.raises(InputError, match="grid is empty"):
        run_sweep(ds, epsilon_grid=())
    with pytest.raises(InputError):
        run_sweep(ds, delta_grid=(1.5,))
    with pytest.raises(InputError, match="unknown method"):
        run_sweep(ds, methods=("gradient",))
    with pytest.raises(InputError):
        run_sweep(ds, repeats=0)


# every epsilon or delta grid is checked by ``model_io.unit_grid``; each
# taker returns the grid it keeps
GRID_TAKERS = {
    "_parse_grid": lambda g: _parse_grid(",".join(map(str, g)), "--delta-grid"),
    "RuleSet": lambda g: RuleSet(g).epsilon_grid,
    "HsConfig": lambda g: HsConfig(0.5, g).epsilon_set,
    "run_sweep": lambda g: tuple(run_sweep(tiny_dataset(), ("mv",), delta_grid=g,
                                           timing=False).manifest["delta_grid"]),
}


@pytest.mark.parametrize("taker", sorted(GRID_TAKERS))
def test_every_grid_is_checked_alike(taker):
    take = GRID_TAKERS[taker]
    with pytest.raises(InputError, match=r": grid is empty$"):
        take(())
    # values are checked in input order, before sorting
    with pytest.raises(InputError, match=r": value out of \[0, 1\]: 1\.5$"):
        take((0.5, 1.5, -0.5))
    with pytest.raises(InputError, match=r": value out of \[0, 1\]: nan$"):
        take((0.5, float("nan")))
    assert take((0.5, 0.1, 0.5, 0.0, 1.0)) == (0.0, 0.1, 0.5, 1.0)


RULES = st.lists(st.sampled_from((Condition("confidence_below", threshold=0.6),
                                  Condition("confidence_below", threshold=0.9),
                                  Condition("disagree_with", model="f1"),
                                  Condition("disagree_with", model="f2"))),
                 max_size=2, unique=True).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.data(), LABELS)
def test_sweep_cells_score_like_their_solver_cell_alone(data, gt):
    # a row scores each distinct selection once; every cell must still read
    # what scoring its solver cell alone gives, its own timed runtime included
    rows = data.draw(st.lists(st.tuples(st.sampled_from(("o1", "o2", "o3", "o4")),
                                        st.sampled_from(("f1", "f2", "f3")),
                                        st.sampled_from(("A", "B", "C")),
                                        st.sampled_from((0.5, 0.7, 1.0))),
                              unique_by=lambda r: (r[0], r[1]), min_size=1))
    obs = obs_of(rows, objects=["o1", "o2", "o3", "o4"], classes=["A", "B", "C"])
    rule_grid = (0.1, 0.5)
    rules = RuleSet(rule_grid)
    for m in obs.models:
        for c in obs.classes:
            for e in rule_grid:
                rules.rules[m, c, e] = data.draw(RULES)
    dom = DomainConfig(obs.classes, IntegrityConstraintSet.all_pairs(obs.classes),
                       data.draw(st.sampled_from(NORMALIZER_MODES)), data.draw(st.booleans()))
    methods = data.draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True))
    deltas = data.draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 1.0)), min_size=1))
    epsilons = data.draw(st.lists(st.sampled_from(rule_grid), min_size=1))
    repeats = data.draw(st.integers(1, 3))

    solved = []

    def recorded(*args):
        for cell in solver_cells(*args):
            solved.append((args[3][0], cell))
            yield cell

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "solver_cells", recorded)
        res = run_sweep(SweepDataset(obs, gt, rules, dom), methods, deltas, epsilons,
                        repeats=repeats, timing=True)
    truth = Truth.of(gt, obs.objects, obs.classes)
    alone = []
    for eps, cell in solved:
        for m in (cell.solver, cell.solver + "+tb"):
            if m in methods:
                metrics = evaluation.score_cell(cell, obs, m.endswith("+tb"), truth, dom)[1]
                metrics.runtime_per_object = cell.seconds / len(obs.objects)
                alone.append(SweepCell(cell.delta, eps, m, metrics, cell.status))
    alone.sort(key=lambda c: (c.delta, c.epsilon))
    assert cell_fields(res.cells[:len(alone)]) == cell_fields(alone)
    assert all(c.metrics.runtime_per_object > 0 for c in alone)
    assert {c.method for c in res.cells[len(alone):]} <= {"mv", "best", "avg"}


def test_sweep_recovers_and_scores_each_distinct_selection_once(monkeypatch):
    # the exact cells of a row at delta 0.5 and up keep every pair and share
    # one selection; delta 0 is infeasible, and delta 0.3 at epsilon 0.1
    # drops some pairs: 3 + 2 distinct selections in 2 rows of 5 deltas
    data = generate(preset("MM_1", n_models=4, n_train=200, n_test=150, seed=3))
    rules = learn_ruleset(data.train, data.train_labels, epsilon_grid=(0.1, 0.5))
    obs, dom = data.test, default_domain(data.test.classes)
    truth = Truth.of(data.test_labels, obs.objects, obs.classes)
    deltas, epsilons = (0.0, 0.3, 0.5, 0.7, 1.0), (0.1, 0.5)
    alone = {}
    for e in epsilons:
        for d in deltas:
            (cell,) = solver_cells(obs, rules, dom, (e,), (d,), ("ip",))
            alone[d, e] = cell
    calls = {"resolve": 0, "rows_within": 0, "score": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tiebreak, "resolve", counted("resolve", tiebreak.resolve))
    monkeypatch.setattr(ObservationSet, "rows_within",
                        counted("rows_within", ObservationSet.rows_within))
    monkeypatch.setattr(evaluation, "score", counted("score", evaluation.score))
    res = run_sweep(SweepDataset(obs, data.test_labels, rules, dom), ("ip", "ip+tb"),
                    deltas, epsilons, repeats=2, timing=False)
    assert calls == {"resolve": 5, "rows_within": 5, "score": 10}
    monkeypatch.undo()
    assert [len({tuple(alone[d, e].rows) for d in deltas}) for e in epsilons] == [3, 2]
    assert len(res.cells) == 5 * 2 * 2 * 2
    for c in res.cells:
        cell = alone[c.delta, c.epsilon]
        assert c.status == cell.status
        assert vars(c.metrics) == \
            vars(evaluation.score_cell(cell, obs, c.method == "ip+tb", truth, dom)[1])


def test_sweep_builds_one_truth_and_each_cell_carries_its_solvers_budget(monkeypatch):
    # every method of a sweep is scored against the one Truth of its set,
    # and each solver cell reports the violation budget its solver enforced
    data = generate(preset("MM_1", n_models=4, n_train=200, n_test=150, seed=3))
    rules = learn_ruleset(data.train, data.train_labels, epsilon_grid=(0.1, 0.5))
    obs, dom = data.test, default_domain(data.test.classes)
    built, cells = [], []
    truth_of, cells_of = Truth.of, evaluation.solver_cells

    def counted_truth(*args):
        built.append(args)
        return truth_of(*args)

    def recorded_cells(*args, **kwargs):
        for cell in cells_of(*args, **kwargs):
            cells.append(cell)
            yield cell

    monkeypatch.setattr(Truth, "of", counted_truth)
    monkeypatch.setattr(evaluation, "solver_cells", recorded_cells)
    deltas = (0.0, 0.3, 1.0)
    run_sweep(SweepDataset(obs, data.test_labels, rules, dom),
              ("ip", "hs", "mv", "best", "avg"), deltas, (0.1, 0.5), timing=False)
    assert len(built) == 1
    assert sorted((c.solver, c.delta) for c in cells) == \
        sorted((s, d) for s in ("ip", "hs") for d in deltas for _ in range(2))
    assert "infeasible" in {c.status for c in cells}
    for c in cells:
        assert c.budget == violation_budget(c.delta, len(obs.objects), dom.ic,
                                            dom.normalizer_mode, dom.directed_ground_rules)


def test_sweep_marks_infeasible_cells():
    res = run_sweep(infeasible_dataset(), methods=("ip", "hs"),
                    delta_grid=(0.0, 1.0), epsilon_grid=(0.5,), timing=False)
    by = {(c.delta, c.method): c for c in res.cells}
    assert by[(0.0, "ip")].status == "infeasible"
    assert by[(0.0, "ip")].metrics.f1 == 0.0
    assert by[(1.0, "ip")].status == "ok"
    assert by[(0.0, "hs")].status == "ok"


def test_sweep_manifest(tmp_path):
    res = run_sweep(tiny_dataset(), methods=("mv",), delta_grid=(0.5,),
                    epsilon_grid=(0.5,), timing=False)
    path = tmp_path / "sweep.manifest.json"
    res.write_manifest(str(path))
    man = json.loads(path.read_text())
    assert man["dataset"] == "tiny"
    assert man["methods"] == ["mv"]
    assert man["delta_grid"] == [0.5]
    assert len(man["dataset_fingerprint"]) == 64
    again = run_sweep(tiny_dataset(), methods=("mv",), delta_grid=(0.5,),
                      epsilon_grid=(0.5,), timing=False)
    assert again.manifest["dataset_fingerprint"] == man["dataset_fingerprint"]


IDS = st.sampled_from(("o1", "o10", "o2", "é", "a\"b", "c\\d", "\u2028", "z"))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(IDS, st.sampled_from(("f1", "f2", "m\u00fc")),
                          st.sampled_from(("car", "tree", "b\u00e4r")),
                          st.floats(0.0, 1.0)), unique_by=lambda r: (r[0], r[1])),
       st.dictionaries(IDS, st.sampled_from(("car", "tree"))))
def test_fingerprint_matches_the_reference(rows, labels):
    obs = obs_of(rows, objects=sorted(labels), classes=["car", "tree"])
    dataset = SweepDataset(obs, labels, empty_rules(), default_domain(obs.classes))
    assert dataset.fingerprint() == fingerprint_reference(dataset)


def test_fingerprint_changes_with_any_one_input():
    rows = [("o1", "f1", "car", 0.9), ("o1", "f2", "tree", 0.4), ("o2", "f1", "tree", 0.7)]
    labels = {"o1": "car", "o2": "tree"}
    ic = IntegrityConstraintSet((("car", "tree"),))

    def digest(rows=rows, labels=labels, objects=("o1", "o2"), classes=("car", "tree", "x"),
               ic=ic):
        obs = obs_of(rows, objects=sorted(objects), classes=sorted(classes))
        return SweepDataset(obs, labels, empty_rules(), DomainConfig(tuple(classes), ic)
                            ).fingerprint()

    base = digest()
    assert digest() == base
    variants = {
        "confidence": digest(rows=rows[:2] + [("o2", "f1", "tree", 0.7000001)]),
        "label": digest(labels={"o1": "car", "o2": "car"}),
        "exclusion pair": digest(ic=IntegrityConstraintSet((("car", "x"),))),
        "unpredicted object": digest(objects=("o1", "o2", "o3")),
    }
    assert all(v != base for v in variants.values()), variants
    assert len(set(variants.values())) == len(variants)


def test_sweep_full_grid_row_count():
    grid = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    res = run_sweep(tiny_dataset(), methods=("mv",), delta_grid=grid,
                    epsilon_grid=grid, timing=False)
    assert len(res.cells) == 121
    assert all(c.method == "mv" for c in res.cells)
    # the baseline ignores the knobs, so every row carries the same metrics
    assert len({(c.metrics.precision, c.metrics.accuracy)
                for c in res.cells}) == 1
