"""End-to-end command-line workflows."""

import ast
import csv
import gc
import hashlib
import json
import os
import pathlib
import random
import re
import shutil
import subprocess
import sys

import pytest

import abfuse
from abfuse.baselines import majority_vote
from abfuse.cli import DEFAULT_GRID, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, _parse_grid, main
from abfuse import evaluation, solver_ip
from abfuse.deduction import default_domain
from abfuse.edr import DEFAULT_EPSILON_GRID, RuleSet, apply_rules
from abfuse.evaluation import SweepDataset
from abfuse.model_io import load_dataset, observations_from_dataset, write_manifest
from abfuse.synthgen import preset, save_scenario

from conftest import row_labels
from oracles import (BoundingBox, Detection, GroundTruthObject, det_table,
                     fingerprint_reference, gt_table, score_reference, write_ground_truth,
                     write_predictions)


@pytest.fixture()
def dataset(tmp_path):
    """A small generated dataset plus learned rules."""
    out = tmp_path / "data"
    assert main(["gen", "--preset", "UM_1", "--models", "3", "--n-train", "60",
                 "--n-test", "80", "--seed", "1", "--out", str(out)]) == EXIT_OK
    rules = tmp_path / "rules.jsonl"
    assert main(["learn", "--manifest", str(out / "train" / "manifest.json"),
                 "--epsilon-grid", "0.1,0.5", "--out", str(rules)]) == EXIT_OK
    return str(out / "test" / "manifest.json"), str(rules)


def conflict_dataset(tmp_path):
    """Three objects where zero-budget coverage is provably impossible:
    o1 needs (f1, A), o3 needs (f2, B), and the pairs collide on o2."""
    def b(i):
        return BoundingBox(20.0 * i, 0.0, 20.0 * i + 10.0, 10.0)

    d = tmp_path / "conflict"
    d.mkdir()
    write_ground_truth(str(d / "gt.jsonl"), gt_table(
        GroundTruthObject("img", f"o{i}", cls, b(i))
        for i, cls in ((1, "A"), (2, "A"), (3, "B"))))
    write_predictions(str(d / "f1.jsonl"), det_table(
        [Detection("img", "f1", "A", 0.9, b(1)), Detection("img", "f1", "A", 0.9, b(2))]))
    write_predictions(str(d / "f2.jsonl"), det_table(
        [Detection("img", "f2", "B", 0.8, b(2)), Detection("img", "f2", "B", 0.8, b(3))]))
    write_manifest(str(d / "manifest.json"), ["f1", "f2"], ["A", "B"],
                   {"f1": "f1.jsonl", "f2": "f2.jsonl"}, "gt.jsonl")
    rules = d / "rules.jsonl"
    rows = [{"model_id": m, "class_id": c, "epsilon": 0.5, "conditions": []}
            for m, c in (("f1", "A"), ("f2", "B"))]
    rules.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(d / "manifest.json"), str(rules)


def test_default_grid_is_the_learners_default():
    # the CLI spells the grid out itself, so that importing it loads no numpy
    assert _parse_grid(DEFAULT_GRID, "--epsilon-grid") == DEFAULT_EPSILON_GRID


def test_gen_prints_manifests(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--preset", "BM_1", "--models", "2", "--n-train", "10",
                 "--n-test", "10", "--out", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("train/manifest.json")
    assert lines[1].endswith("test/manifest.json")
    assert (out / "scenario.json").exists()
    assert (out / "meta.json").exists()


def test_gen_needs_exactly_one_source(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path)]) == EXIT_INPUT
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["preset", "scenario"])
def test_gen_negative_seed_exits_one_without_traceback(tmp_path, route):
    # numpy's generator rejects a negative seed with a bare ValueError
    if route == "preset":
        argv = ["gen", "--preset", "MM_1", "--seed", "-1"]
    else:
        path = tmp_path / "scenario.json"
        save_scenario(str(path), preset("MM_1", n_train=5, n_test=5, seed=0))
        path.write_text(path.read_text().replace('"seed": 0', '"seed": -1'))
        argv = ["gen", "--scenario", str(path)]
    proc = _python("-m", "abfuse.cli", *argv, "--out", str(tmp_path / "gen"))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.endswith(
        "seed must be non-negative: -1\n"), proc.stderr


def test_gen_scenario_rejects_sample_counts_but_takes_a_seed(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    save_scenario(str(path), preset("UM_1", n_models=2, n_train=5, n_test=5, seed=0))
    out = str(tmp_path / "gen")
    for flags, named in ((["--n-test", "3"], "--n-test"),
                         (["--models", "2", "--n-train", "5"], "--models, --n-train")):
        assert main(["gen", "--scenario", str(path), *flags, "--out", out]) == EXIT_INPUT
        assert f"error: {named} cannot be used with --scenario" in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["gen", "--scenario", str(path), "--seed", "4", "--out", out]) == EXIT_OK
    assert json.loads((tmp_path / "gen" / "scenario.json").read_text())["seed"] == 4


@pytest.mark.parametrize("models", ["0", "-1"])
def test_gen_rejects_fewer_than_two_models(tmp_path, capsys, models):
    out = tmp_path / "gen"
    assert main(["gen", "--preset", "EG_1", "--models", models, "--out", str(out)]) == EXIT_INPUT
    assert f"error: need at least two models: {models}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_preset_default_sizes(tmp_path):
    assert main(["gen", "--preset", "UM_1", "--out", str(tmp_path)]) == EXIT_OK
    sc = json.loads((tmp_path / "scenario.json").read_text())
    assert (len(sc["models"]), sc["n_train"], sc["n_test"], sc["seed"]) == (6, 1000, 2000, 0)


def test_abduce_ip_writes_labels_and_metrics(dataset, tmp_path, capsys):
    manifest, rules = dataset
    out = tmp_path / "fused"
    assert main(["abduce", "--manifest", manifest, "--rules", rules,
                 "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1",
                 "--out", str(out)]) == EXIT_OK
    assert "ip+tb: f1=" in capsys.readouterr().out
    labels = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()]
    assert labels == sorted(labels, key=lambda r: r["object_id"])
    assert set(labels[0]) == {"object_id", "class_id", "model_id", "confidence"}
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "ok"
    assert 0.0 < metrics["f1"] <= 1.0
    assert metrics["n_objects"] == 80


def test_abduce_without_tiebreak_keeps_multi_labels(dataset, tmp_path):
    manifest, rules = dataset
    out = tmp_path / "plain"
    assert main(["abduce", "--manifest", manifest, "--rules", rules,
                 "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1",
                 "--tie-break", "off", "--out", str(out)]) == EXIT_OK
    labels = [json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines()]
    assert all(set(r) == {"object_id", "class_id"} for r in labels)


def test_abduce_hs_writes_trace(dataset, tmp_path, capsys):
    manifest, rules = dataset
    out = tmp_path / "greedy"
    assert main(["abduce", "--manifest", manifest, "--rules", rules,
                 "--solver", "hs", "--delta", "0.5",
                 "--out", str(out)]) == EXIT_OK
    assert "hs+tb: f1=" in capsys.readouterr().out
    steps = [json.loads(l) for l in (out / "trace.jsonl").read_text().splitlines()]
    assert len(steps) == 3 * 4  # models x classes
    chosen = {s["chosen_epsilon"] for s in steps}
    assert chosen <= {None, 0.1, 0.5}


@pytest.mark.parametrize("solver, flags", [("hs", []), ("ip", ["--epsilon", "0.1"])])
def test_abduce_writes_nothing_when_scoring_rejects_the_input(dataset, tmp_path, capsys,
                                                              solver, flags):
    manifest, rules = dataset
    open(os.path.join(os.path.dirname(manifest), "gt.jsonl"), "w").close()
    out = tmp_path / "fused"
    assert main(["abduce", "--manifest", manifest, "--rules", rules, "--solver", solver,
                 "--delta", "0.5", *flags, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] \
        == ["error: ground truth is empty"]
    assert not out.exists()


@pytest.mark.parametrize("solver, flags", [("hs", []), ("ip", ["--epsilon", "0.1"])])
def test_abduce_rejects_delta_out_of_range_on_either_solver(dataset, tmp_path, solver, flags):
    manifest, rules = dataset
    out = tmp_path / "fused"
    proc = _python("-m", "abfuse.cli", "abduce", "--manifest", manifest, "--rules", rules,
                   "--solver", solver, "--delta", "1.5", *flags, "--out", str(out))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "error: delta must be in [0, 1]: 1.5"
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("abduce", ["--solver", "hs", "--delta", "0.5"]),
    ("sweep", ["--methods", "ip,hs,mv"]),
    ("eval", ["--labels", "missing.jsonl"]),
    ("baseline", ["--method", "mv"]),
])
def test_empty_ground_truth_is_rejected_before_any_work(dataset, tmp_path, capsys,
                                                        monkeypatch, command, flags):
    manifest, rules = dataset
    open(os.path.join(os.path.dirname(manifest), "gt.jsonl"), "w").close()

    def no_work(*args, **kwargs):
        raise AssertionError("solved or scored an empty ground truth")

    for name in ("solver_cells", "baseline_cells", "score"):
        monkeypatch.setattr(evaluation, name, no_work)
    out = tmp_path / "out"
    argv = [command, "--manifest", manifest, *flags, "--out", str(out)]
    if command in ("abduce", "sweep"):
        argv += ["--rules", rules]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == ["error: ground truth is empty"]
    assert not out.exists()
    # learning from an empty training split is no error
    assert main(["learn", "--manifest", manifest, "--out", str(tmp_path / "rules.jsonl")]) \
        == EXIT_OK


def test_eval_reproduces_abduce_metrics(dataset, tmp_path):
    manifest, rules = dataset
    out = tmp_path / "fused"
    main(["abduce", "--manifest", manifest, "--rules", rules, "--solver", "ip",
          "--delta", "0.5", "--epsilon", "0.1", "--out", str(out)])
    metrics_path = tmp_path / "rescored.json"
    assert main(["eval", "--manifest", manifest,
                 "--labels", str(out / "labels.jsonl"),
                 "--out", str(metrics_path)]) == EXIT_OK
    abduced = json.loads((out / "metrics.json").read_text())
    # the budget depends on --delta, which eval does not take, and the node
    # count on the search, which eval does not run
    assert abduced.pop("violation_budget") == 40  # floor(0.5 * 80 objects)
    assert abduced.pop("nodes") >= 1
    assert json.loads(metrics_path.read_text()) == abduced


def test_metrics_report_raw_violations_next_to_clamped_inc(tmp_path):
    manifest, _ = conflict_dataset(tmp_path)
    # the data declares C too: exclusion pairs on a class the manifest
    # lacks are dropped when it loads
    write_manifest(manifest, ["f1", "f2"], ["A", "B", "C"],
                   {"f1": "f1.jsonl", "f2": "f2.jsonl"}, "gt.jsonl")
    domain = tmp_path / "abc.json"
    domain.write_text('{"classes": ["A", "B", "C"]}\n')
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(json.dumps({"object_id": o, "class_id": c}) + "\n"
                              for o in ("o1", "o2", "o3") for c in "ABC"))
    out = tmp_path / "m.json"
    assert main(["eval", "--manifest", manifest, "--labels", str(labels),
                 "--domain-config", str(domain), "--out", str(out)]) == EXIT_OK
    metrics = json.loads(out.read_text())
    # three violated pairs per object: Inc clamps at 1, the raw count does not
    assert metrics["inconsistency"] == 1.0
    assert metrics["violations"] == 9 > metrics["n_objects"] == 3


def test_abduce_metrics_carry_violations_and_budget(dataset, tmp_path):
    manifest, rules = dataset
    for solver, extra in (("ip", ["--epsilon", "0.1"]), ("hs", [])):
        out = tmp_path / solver
        assert main(["abduce", "--manifest", manifest, "--rules", rules,
                     "--solver", solver, "--delta", "0.3", "--tie-break", "off",
                     "--out", str(out)] + extra) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["violation_budget"] == 24  # floor(0.3 * 80 objects)
        assert 0 <= metrics["violations"] <= 24
        assert metrics["inconsistency"] == metrics["violations"] / 80


def test_abduce_ip_metrics_carry_the_node_count(dataset, tmp_path):
    manifest, rules = dataset
    data = ["--manifest", manifest, "--rules", rules, "--delta", "0.5"]
    assert main(["abduce", *data, "--solver", "ip", "--epsilon", "0.1",
                 "--out", str(tmp_path / "ip")]) == EXIT_OK
    ds = load_dataset(manifest)
    obs = observations_from_dataset(ds)
    filtered = apply_rules(obs, RuleSet.load(rules), 0.1)[0]
    dom = default_domain(ds.classes)
    sol = solver_ip.solve(solver_ip.build_instance(filtered, dom.ic, 0.5))
    metrics = json.loads((tmp_path / "ip" / "metrics.json").read_text())
    assert sol.nodes >= 1 and metrics["nodes"] == sol.nodes
    # the greedy's report has no search to count
    assert main(["abduce", *data, "--solver", "hs", "--out", str(tmp_path / "hs")]) == EXIT_OK
    assert "nodes" not in json.loads((tmp_path / "hs" / "metrics.json").read_text())


def test_eval_counts_labels_outside_the_universe(dataset, tmp_path):
    # atoms naming an unknown object or class are never correct but stay in
    # precision's denominator; an unknown class on a known object also
    # costs that object its accuracy
    manifest, _ = dataset
    ds = load_dataset(manifest)
    gt = ds.labels()
    (o1, c1), (o2, c2), (o3, _) = sorted(gt.items())[:3]
    wrong = next(c for c in ds.classes if c != c2)
    atoms = {(c1, o1), (c2, o2), (wrong, o2), ("ufo", o3), (c1, "nosuch"),
             ("ghostclass", "ghost")}
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(json.dumps({"object_id": o, "class_id": c}) + "\n"
                              for c, o in sorted(atoms)))
    out = tmp_path / "m.json"
    assert main(["eval", "--manifest", manifest, "--labels", str(labels),
                 "--out", str(out)]) == EXIT_OK
    got = json.loads(out.read_text())
    want = score_reference(atoms, gt, domain=default_domain(ds.classes),
                           n_objects=len(gt))
    assert got == {**want.__dict__, "status": "ok"}
    assert got["precision"] == 2 / 6
    assert got["accuracy"] == 1 / len(gt)


def test_eval_rejects_bad_labels(dataset, tmp_path, capsys):
    manifest, _ = dataset
    bad = tmp_path / "labels.jsonl"
    bad.write_text('{"object_id": "o1"}\n')
    assert main(["eval", "--manifest", manifest, "--labels", str(bad),
                 "--out", str(tmp_path / "m.json")]) == EXIT_INPUT
    assert "bad label record" in capsys.readouterr().err


def test_unknown_rule_kind_exits_one_naming_its_line(dataset, tmp_path, capsys):
    # the learner writes disagree_with and confidence_below conditions only
    manifest, rules = dataset
    bad = tmp_path / "class_is_rules.jsonl"
    lines = pathlib.Path(rules).read_text().splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec["conditions"] = [{"kind": "class_is", "class": rec["class_id"]}]
    bad.write_text(lines[0] + json.dumps(rec) + "\n" + "".join(lines[2:]))
    assert main(["abduce", "--manifest", manifest, "--rules", str(bad), "--solver", "hs",
                 "--delta", "0.5", "--out", str(tmp_path / "hs")]) == EXIT_INPUT
    assert (f"error: {bad}:2: bad rule record: unknown condition kind 'class_is'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("epsilon", ["1.5", "NaN"])
def test_bad_rule_epsilon_exits_one_naming_its_line(dataset, tmp_path, capsys, epsilon):
    manifest, rules = dataset
    bad = tmp_path / "bad_epsilon_rules.jsonl"
    lines = pathlib.Path(rules).read_text().splitlines(keepends=True)
    lines[2] = re.sub(r'"epsilon": [^,]*', f'"epsilon": {epsilon}', lines[2])
    bad.write_text("".join(lines))
    assert main(["abduce", "--manifest", manifest, "--rules", str(bad), "--solver", "hs",
                 "--delta", "0.5", "--out", str(tmp_path / "hs")]) == EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:3: bad rule record: epsilon: value out of [0, 1]: {float(epsilon)}"]
    assert not (tmp_path / "hs").exists()


def test_non_object_prediction_line_exits_one(tmp_path, capsys):
    manifest, _ = conflict_dataset(tmp_path)
    preds = tmp_path / "conflict" / "f1.jsonl"
    preds.write_text(preds.read_text() + "5\n")
    assert main(["baseline", "--manifest", manifest, "--method", "mv",
                 "--out", str(tmp_path / "mv")]) == EXIT_INPUT
    assert f"{preds}:3: expected a JSON object" in capsys.readouterr().err


def test_mistyped_manifest_exits_one(tmp_path, capsys):
    manifest, _ = conflict_dataset(tmp_path)
    raw = json.loads(pathlib.Path(manifest).read_text())
    raw["models"] = 5
    with open(manifest, "w") as fh:
        json.dump(raw, fh)
    assert main(["baseline", "--manifest", manifest, "--method", "mv",
                 "--out", str(tmp_path / "mv")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'models' must be a list of strings" in err


def test_non_numeric_confidence_exits_one(tmp_path, capsys):
    manifest, _ = conflict_dataset(tmp_path)
    preds = tmp_path / "conflict" / "f2.jsonl"
    rec = json.loads(preds.read_text().splitlines()[0])
    rec["confidence"] = "x"
    preds.write_text(json.dumps(rec) + "\n")
    assert main(["baseline", "--manifest", manifest, "--method", "mv",
                 "--out", str(tmp_path / "mv")]) == EXIT_INPUT
    assert f"error: {preds}:1: confidence must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("confidence", 1.5, "confidence out of [0, 1]: 1.5"),
    ("confidence", float("nan"), "confidence out of [0, 1]: nan"),
    ("class_id", "boats", "prediction for unknown class 'boats' (model 'f2')"),
])
def test_out_of_range_prediction_names_its_line(tmp_path, capsys, field, value, message):
    manifest, _ = conflict_dataset(tmp_path)
    preds = tmp_path / "conflict" / "f2.jsonl"
    lines = preds.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value
    preds.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
    assert main(["baseline", "--manifest", manifest, "--method", "mv",
                 "--out", str(tmp_path / "mv")]) == EXIT_INPUT
    assert f"error: {preds}:2: {message}\n" in capsys.readouterr().err


def test_eval_rejects_non_object_label_line(tmp_path, capsys):
    manifest, _ = conflict_dataset(tmp_path)
    bad = tmp_path / "labels.jsonl"
    bad.write_text("[1, 2]\n")
    assert main(["eval", "--manifest", manifest, "--labels", str(bad),
                 "--out", str(tmp_path / "m.json")]) == EXIT_INPUT
    assert f"{bad}:1: expected a JSON object" in capsys.readouterr().err


def _python(*argv, env=None):
    """Run ``python *argv`` in a fresh process with this checkout's package
    on the path, in ``env`` or else this process's environment."""
    src = os.path.dirname(os.path.dirname(abfuse.__file__))
    env = {**(os.environ if env is None else env), "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _spoil(path, line):
    """Put a byte that is not UTF-8 at the start of 1-based line ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("target", ["predictions", "rules", "manifest", "domain", "scenario"])
def test_non_utf8_input_exits_one_without_traceback(dataset, tmp_path, target):
    manifest, rules = dataset
    data = os.path.dirname(manifest)
    domain = tmp_path / "domain.json"
    domain.write_text('{\n  "classes": ["construction", "nature"]\n}\n')
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"models": ["m0", "m1"]}, indent=1) + "\n")
    abduce = ["abduce", "--manifest", manifest, "--rules", rules, "--solver", "hs",
              "--delta", "0.5", "--out", str(tmp_path / "out")]
    path, line, argv = {
        "predictions": (os.path.join(data, "preds_m1.jsonl"), 3, abduce),
        "rules": (rules, 2, abduce),
        "manifest": (manifest, 2, abduce),
        "domain": (str(domain), 2, abduce + ["--domain-config", str(domain)]),
        "scenario": (str(scenario), 3, ["gen", "--scenario", str(scenario),
                                        "--out", str(tmp_path / "gen")]),
    }[target]
    _spoil(pathlib.Path(path), line)
    proc = _python("-m", "abfuse.cli", *argv)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}:{line}: not valid UTF-8:"), proc.stderr


@pytest.mark.parametrize("target", ["epsilon", "threshold", "conf_wrong", "n_train"])
def test_huge_number_exits_one_without_traceback(dataset, tmp_path, target):
    # a 400-digit integer overflows float(), and 1e400 is read as infinity,
    # which overflows int()
    manifest, rules = dataset
    huge = "1" * 400
    if target in ("epsilon", "threshold"):
        path = tmp_path / "rules.jsonl"
        lines = pathlib.Path(rules).read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        if target == "epsilon":
            rec["epsilon"] = "@"
        else:
            rec["conditions"] = [{"kind": "confidence_below", "threshold": "@"}]
        path.write_text(lines[0] + json.dumps(rec).replace('"@"', huge) + "\n")
        argv = ["abduce", "--manifest", manifest, "--rules", str(path), "--solver", "hs",
                "--delta", "0.5", "--out", str(tmp_path / "out")]
    else:
        path = tmp_path / "scenario.json"
        scenario = json.loads((pathlib.Path(manifest).parent.parent / "scenario.json")
                              .read_text())
        scenario[target] = [huge, 4.0] if target == "conf_wrong" else "1e400"
        path.write_text(json.dumps(scenario).replace('"%s"' % huge, huge)
                        .replace('"1e400"', "1e400"))
        argv = ["gen", "--scenario", str(path), "--out", str(tmp_path / "gen")]
    proc = _python("-m", "abfuse.cli", *argv)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {path}:"), proc.stderr


@pytest.mark.parametrize("field, value", [
    ("class_prior", [1.5, -0.5, 0, 0]), ("class_prior", [float("nan")] * 4),
    ("conf_correct", [0, 0]), ("conf_wrong", [-1, 2]),
    ("conf_wrong", [1, 2, 3]), ("conf_wrong", [])])
def test_gen_rejects_bad_scenario_distributions(tmp_path, capsys, field, value):
    # numpy's sampler raised these from inside generate, with a traceback
    path = tmp_path / "scenario.json"
    save_scenario(str(path), preset("MM_1", n_train=5, n_test=5, seed=0))
    scenario = json.loads(path.read_text())
    scenario[field] = value
    path.write_text(json.dumps(scenario))
    out = tmp_path / "gen"
    assert main(["gen", "--scenario", str(path), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must be" in err, err
    assert not out.exists()


@pytest.mark.parametrize("route", ["--n-train", "--n-test", "n_train", "n_test"])
def test_gen_rejects_counts_beyond_int64_without_traceback(tmp_path, route):
    # numpy raised OverflowError for a count past a C long, with a traceback
    huge = "1" + "0" * 400
    if route.startswith("--"):
        argv = ["--preset", "MM_1", route, huge]
    else:
        path = tmp_path / "scenario.json"
        save_scenario(str(path), preset("MM_1", n_train=5, n_test=5, seed=0))
        scenario = json.loads(path.read_text())
        scenario[route] = "@"
        path.write_text(json.dumps(scenario).replace('"@"', huge))
        argv = ["--scenario", str(path)]
    proc = _python("-m", "abfuse.cli", "gen", *argv, "--out", str(tmp_path / "gen"))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.endswith("sample counts must be at most 2**63 - 1\n"), proc.stderr


def test_abduce_and_sweep_leave_numpy_ma_unloaded(dataset, tmp_path):
    # np.unique imports numpy.ma (~23 ms and ~1.4 MB per process)
    manifest, rules = dataset
    data = ["--manifest", manifest, "--rules", rules]
    runs = [["abduce", *data, "--solver", "hs", "--delta", "0.5", "--out", str(tmp_path / "hs")],
            ["abduce", *data, "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1",
             "--out", str(tmp_path / "ip")],
            ["sweep", *data, "--delta-grid", "0.1,0.5", "--epsilon-grid", "0.1,0.5",
             "--no-timing", "--out", str(tmp_path / "sweep.csv")]]
    code = ("import sys; from abfuse.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    print('exit', main(argv), 'numpy.ma' in sys.modules)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("exit ")] \
        == ["exit 0 False"] * 3, proc.stdout


def test_no_command_loads_openssl(dataset, tmp_path):
    # hashlib loads OpenSSL (~3.6 MB resident); the sweep's dataset
    # fingerprint hashes with CPython's built-in SHA-256 module instead
    manifest, rules = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    data = ["--manifest", manifest, "--rules", rules]
    runs = [["learn", "--manifest", train, "--epsilon-grid", "0.1,0.5",
             "--out", str(tmp_path / "rules.jsonl")],
            ["abduce", *data, "--solver", "hs", "--delta", "0.5", "--out", str(tmp_path / "hs")],
            ["abduce", *data, "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1",
             "--out", str(tmp_path / "ip")],
            ["sweep", *data, "--delta-grid", "0.5", "--epsilon-grid", "0.1",
             "--no-timing", "--out", str(tmp_path / "sweep.csv")],
            ["eval", "--manifest", manifest, "--labels", str(tmp_path / "hs" / "labels.jsonl"),
             "--out", str(tmp_path / "eval.json")],
            ["baseline", "--manifest", manifest, "--method", "mv", "--out", str(tmp_path / "mv")]]
    gen = ["gen", "--preset", "UM_1", "--models", "2", "--n-train", "20", "--n-test", "20",
           "--out", str(tmp_path / "gen")]
    # gen draws from numpy.random, whose import of ``secrets`` loads OpenSSL
    # through ``hmac``; gen runs last, after that import, with hashlib's
    # modules dropped from sys.modules, so an import of hashlib would
    # bring ``_hashlib`` back
    code = ("import sys; from abfuse.cli import main\n"
            "def run(argv):\n"
            "    print('exit', argv[0], main(argv), '_hashlib' in sys.modules,\n"
            "          'numpy.random' in sys.modules)\n"
            f"for argv in {runs!r}:\n"
            "    run(argv)\n"
            "import numpy.random\n"
            "sys.modules.pop('hashlib', None); sys.modules.pop('_hashlib', None)\n"
            f"run({gen!r})\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("exit ")] \
        == [f"exit {argv[0]} 0 False False" for argv in runs] + ["exit gen 0 False True"], \
        proc.stdout


def test_fingerprint_falls_back_to_hashlib(dataset):
    # an interpreter built without CPython's built-in SHA-256 module hashes
    # the same document through hashlib
    manifest, rules = dataset
    code = ("import sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from abfuse.deduction import default_domain\n"
            "from abfuse.edr import RuleSet\n"
            "from abfuse.evaluation import SweepDataset\n"
            "from abfuse.model_io import load_dataset, observations_from_dataset\n"
            f"ds = load_dataset({manifest!r})\n"
            "dataset = SweepDataset(observations_from_dataset(ds), ds.labels(),\n"
            f"                       RuleSet.load({rules!r}), default_domain(ds.classes))\n"
            "print(dataset.fingerprint(), 'hashlib' in sys.modules)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    ds = load_dataset(manifest)
    dataset = SweepDataset(observations_from_dataset(ds), ds.labels(), RuleSet.load(rules),
                           default_domain(ds.classes))
    assert proc.stdout.split() == [fingerprint_reference(dataset), "True"], proc.stdout


def test_learn_leaves_numpy_ma_unloaded(dataset, tmp_path):
    # np.quantile calls np.unique, which imports numpy.ma
    manifest, _ = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    argv = ["learn", "--manifest", train, "--epsilon-grid", "0.1,0.5",
            "--out", str(tmp_path / "rules.jsonl")]
    code = ("import sys; from abfuse.cli import main\n"
            f"print('exit', main({argv!r}), 'numpy.ma' in sys.modules)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 False", proc.stdout


# sha256 of ``labels.jsonl`` on the ``dataset`` fixture, taken before the
# writer encoded whole columns: the bytes must not change
PINNED_LABELS = {
    "hs+tb": ("793ddd97d544a44c43e6d3f50b0c4e5965a74912ccc87f16cf693ba6a2a0d3db",
              ["abduce", "--solver", "hs", "--delta", "0.5", "--tie-break", "on"]),
    "hs": ("3a2a07292db82196e2d7c2d47cb56f0fc0175c93cfcc880c30ea880772ba34c8",
           ["abduce", "--solver", "hs", "--delta", "0.5", "--tie-break", "off"]),
    "ip+tb": ("0d9c5581398629f19341ca1c8e9c26f541ba1e8cfc7f7e7611f1ece0670c97fb",
              ["abduce", "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1"]),
    "mv": ("5c60a9a9a43d608f486941328d3bf8a59884fe73c8d5492e2973b88e8e2c6f4f",
           ["baseline", "--method", "mv"]),
}


def test_rules_bytes_are_pinned(dataset):
    # sha256 of the ``dataset`` fixture's rules.jsonl, taken while
    # ``generate_candidates`` still called ``np.quantile``
    _, rules = dataset
    assert hashlib.sha256(pathlib.Path(rules).read_bytes()).hexdigest() \
        == "40193aca3f7c631dc8c807289a1aa2bfa8bb1728c537264aa2a4d1ef721ba825"


@pytest.mark.parametrize("name", sorted(PINNED_LABELS))
def test_labels_bytes_are_pinned(dataset, tmp_path, name):
    manifest, rules = dataset
    digest, argv = PINNED_LABELS[name]
    data = ["--manifest", manifest] + (["--rules", rules] if argv[0] == "abduce" else [])
    assert main([argv[0], *data, *argv[1:], "--out", str(tmp_path)]) == EXIT_OK
    labels = (tmp_path / "labels.jsonl").read_bytes()
    assert hashlib.sha256(labels).hexdigest() == digest


# sha256 of the JSON outputs on the ``dataset`` fixture that the pins above
# leave out, taken before every JSON writer went through
# ``model_io.write_json``/``write_jsonl``: the bytes must not change.  The
# sweep manifest's is taken since its ``dataset_fingerprint`` hashes the
# set's index columns and it carries no ``seed``
PINNED_JSON = {
    "hs/metrics.json": "e432d4ea111898c067c252bca56c09021bfd5485222222b8f5d0639976e50856",
    "hs/trace.jsonl": "5229e66d788110092a69f7c865707ccfd56509a3589ca30c3709546c3ebed575",
    "ip/metrics.json": "6e0298fa9d66023423036b7101f8ec501bee815b8ee359eadcfa0126239ca68a",
    "best/metrics.json": "a972c4828da0ce6520d44d57eff314053a22f0817badabfe9493909847cf040a",
    "eval.json": "35ab5895f00674150a49e93ce1d331f26425b648e2a91b7c75ae695df5803fa2",
    "sweep.csv.manifest.json":
        "31aa4354f587df11ee65b3ac2475686e12a49aaa882cceb6bd5e4c410044ad29",
}


def test_json_outputs_are_pinned(dataset, tmp_path):
    manifest, rules = dataset
    for argv in (
            ["abduce", "--rules", rules, "--solver", "hs", "--delta", "0.5",
             "--out", str(tmp_path / "hs")],
            ["abduce", "--rules", rules, "--solver", "ip", "--delta", "0.5",
             "--epsilon", "0.1", "--out", str(tmp_path / "ip")],
            ["baseline", "--method", "best", "--out", str(tmp_path / "best")],
            ["eval", "--labels", str(tmp_path / "hs" / "labels.jsonl"),
             "--out", str(tmp_path / "eval.json")],
            ["sweep", "--rules", rules, "--methods", "ip,hs,mv", "--delta-grid", "0.1,0.5",
             "--epsilon-grid", "0.1,0.5", "--no-timing", "--out", str(tmp_path / "sweep.csv")]):
        assert main([argv[0], "--manifest", manifest, *argv[1:]]) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_JSON} == PINNED_JSON


# sha256 of a ``sweep --no-timing`` CSV and its manifest on the ``dataset``
# fixture, taken while every sweep cell was tie-broken and scored on its
# own: all seven methods, two repeats, and a delta grid whose ip cells keep
# every pair (0.3, 0.5) or are infeasible (0.1 at epsilon 0.1)
PINNED_SWEEP = {
    "sweep.csv": "703a0c6304e737b8cffa2298215843f3bd54411b611554b3f557e5a7a7397323",
    "sweep.csv.manifest.json":
        "1debb25d67347eff6049630b9ffeb610a22a44976ff43049d57a49675610caf9",
}


def test_sweep_csv_bytes_are_pinned(dataset, tmp_path):
    manifest, rules = dataset
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--manifest", manifest, "--rules", rules,
                 "--delta-grid", "0.1,0.3,0.5", "--epsilon-grid", "0.1,0.5", "--repeats", "2",
                 "--no-timing", "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert {r["status"] for r in rows if r["method"] == "ip"} == {"ok", "infeasible"}
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in PINNED_SWEEP} == PINNED_SWEEP


def test_outputs_do_not_depend_on_input_line_order(dataset, tmp_path):
    # the loaders sort every table, so shuffling the lines of each input
    # file (predictions, ground truth, rules) changes no output byte, the
    # sweep manifest's dataset fingerprint included
    manifest, rules = dataset
    shuffled = tmp_path / "shuffled_data"
    shutil.copytree(pathlib.Path(manifest).parent, shuffled)
    rng = random.Random(0)
    inputs = {p: p for p in sorted(shuffled.glob("*.jsonl"))}
    inputs[pathlib.Path(rules)] = tmp_path / "shuffled_rules.jsonl"
    assert len(inputs) == 5
    for src, dst in inputs.items():
        lines = src.read_text().splitlines(keepends=True)
        order = list(lines)
        rng.shuffle(order)
        assert order != lines, src
        dst.write_text("".join(order))
    commands = [
        ("hs", ["abduce", "--solver", "hs", "--delta", "0.5"]),
        ("ip", ["abduce", "--solver", "ip", "--delta", "0.5", "--epsilon", "0.1"]),
        ("sweep.csv", ["sweep", "--delta-grid", "0.1,0.5", "--epsilon-grid", "0.1,0.5",
                       "--no-timing"]),
        ("mv", ["baseline", "--method", "mv"]),
    ]
    got = {}
    for side, data, rule_file in (("plain", manifest, rules),
                                  ("shuffled", str(shuffled / "manifest.json"),
                                   str(inputs[pathlib.Path(rules)]))):
        for name, argv in commands:
            out = tmp_path / side / name
            flags = ["--rules", rule_file] if argv[0] in ("abduce", "sweep") else []
            assert main([argv[0], "--manifest", data, *flags, *argv[1:],
                         "--out", str(out)]) == EXIT_OK, (side, name)
        got[side] = {p.relative_to(tmp_path / side): p.read_bytes()
                     for p in sorted((tmp_path / side).rglob("*")) if p.is_file()}
    assert len(got["plain"]) == 9
    assert got["plain"] == got["shuffled"]


def test_sweep_csv_and_manifest(dataset, tmp_path, capsys):
    manifest, rules = dataset
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--manifest", manifest, "--rules", rules,
                 "--methods", "ip,hs,mv", "--delta-grid", "0.1,0.5",
                 "--epsilon-grid", "0.1,0.5", "--repeats", "2", "--no-timing",
                 "--out", str(out)]) == EXIT_OK
    assert "wrote 24 rows" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("delta,epsilon,method,")
    assert len(lines) == 25
    man = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert man["repeats"] == 2 and man["timing"] is False


def test_sweep_identical_repeats_without_timing(dataset, tmp_path):
    manifest, rules = dataset
    out = tmp_path / "sweep.csv"
    main(["sweep", "--manifest", manifest, "--rules", rules, "--methods", "mv",
          "--delta-grid", "0.5", "--epsilon-grid", "0.5", "--repeats", "3",
          "--no-timing", "--out", str(out)])
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 and len(set(rows)) == 1


def test_sweep_runtime_charges_each_row_its_filter(dataset, tmp_path):
    # one filter per epsilon row is shared by the row's ip and hs cells, and
    # its time is part of every one of them, infeasible cells included
    manifest, rules = dataset
    for timed in (True, False):
        out = tmp_path / f"sweep_{timed}.csv"
        assert main(["sweep", "--manifest", manifest, "--rules", rules,
                     "--methods", "ip,ip+tb,hs,hs+tb,mv", "--delta-grid", "0,0.5",
                     "--epsilon-grid", "0.1,0.5", "--out", str(out)]
                    + ([] if timed else ["--no-timing"])) == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        solver = [float(r["runtime_per_object"]) for r in rows if r["method"] != "mv"]
        assert len(solver) == 2 * 2 * 4
        assert all(t > 0 for t in solver) if timed else set(solver) == {0.0}
        assert {r["runtime_per_object"] for r in rows if r["method"] == "mv"} \
            == {"0.000000000"}


def test_cli_import_leaves_the_generator_and_process_pool_unloaded():
    # every job compiles what it imports when bytecode is not cached, and
    # ``entry`` sizes OpenBLAS's thread pool before numpy loads
    code = ("import sys, abfuse.cli; print(sorted({'abfuse.synthgen', "
            "'concurrent.futures', 'numpy'} & set(sys.modules)))")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _blas_is_openblas():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2
                    or not _blas_is_openblas(),
                    reason="needs Linux's /proc, two or more cores and OpenBLAS")
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_entry_starts_one_blas_thread_unless_told_otherwise(tmp_path, setting, threads):
    # the process's thread count, read at exit after numpy has loaded
    code = ("import atexit, os, sys\n"
            "atexit.register(lambda: print(len(os.listdir('/proc/self/task'))))\n"
            "from abfuse import cli\n"
            "sys.argv = ['abfuse', 'gen', '--preset', 'UM_1', '--models', '2', "
            f"'--n-train', '5', '--n-test', '5', '--out', {str(tmp_path)!r}]\n"
            "cli.entry()\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = _python("-c", code, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(threads), proc.stdout


def test_package_names_resolve_on_first_use():
    # ``import abfuse`` compiles no submodule; ``from abfuse import`` loads
    # the one named and what it imports, and the package re-exports no names
    code = ("import sys, abfuse\n"
            "print(sorted(m for m in sys.modules if m.startswith('abfuse.')))\n"
            "from abfuse import solver_ip\n"
            "assert abfuse.kernels is sys.modules['abfuse.kernels']\n"
            "print(hasattr(abfuse, 'solve'))\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "False"], proc.stdout


_BASE_MODULES = {"cli", "model_io"}
_SOLVING_MODULES = _BASE_MODULES | {"deduction", "edr", "evaluation", "kernels", "tiebreak"}


@pytest.mark.parametrize("command, loaded", [
    ("gen", _BASE_MODULES | {"synthgen"}),
    ("learn", _BASE_MODULES | {"edr"}),
    ("abduce-hs", _SOLVING_MODULES | {"solver_hs"}),
    ("abduce-ip", _SOLVING_MODULES | {"solver_ip"}),
    ("sweep", _SOLVING_MODULES | {"solver_hs", "solver_ip", "baselines"}),
    ("eval", _BASE_MODULES | {"deduction", "edr", "evaluation"}),
    *((f"baseline-{m}", _BASE_MODULES | {"deduction", "edr", "evaluation", "baselines",
                                         "tiebreak"}) for m in ("mv", "best", "avg")),
    ("sweep-ip", _SOLVING_MODULES | {"solver_ip"}),
])
def test_each_command_loads_only_its_modules(dataset, tmp_path, command, loaded):
    # a process compiles every module it imports when bytecode is not cached
    manifest, rules = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    data = ["--manifest", manifest, "--rules", rules]
    argv = {
        "gen": ["gen", "--preset", "UM_1", "--models", "2", "--n-train", "20",
                "--n-test", "20", "--out", str(tmp_path / "gen")],
        "learn": ["learn", "--manifest", train, "--epsilon-grid", "0.1,0.5",
                  "--out", str(tmp_path / "rules.jsonl")],
        "abduce-hs": ["abduce", *data, "--solver", "hs", "--delta", "0.5",
                      "--out", str(tmp_path / "hs")],
        "abduce-ip": ["abduce", *data, "--solver", "ip", "--delta", "0.5",
                      "--epsilon", "0.1", "--out", str(tmp_path / "ip")],
        "sweep": ["sweep", *data, "--delta-grid", "0.5", "--epsilon-grid", "0.1",
                  "--no-timing", "--out", str(tmp_path / "sweep.csv")],
        "sweep-ip": ["sweep", *data, "--methods", "ip,ip+tb", "--delta-grid", "0.5",
                     "--epsilon-grid", "0.1", "--no-timing", "--out", str(tmp_path / "ip.csv")],
        "eval": ["eval", "--manifest", manifest, "--labels", str(_labels(tmp_path, manifest)),
                 "--out", str(tmp_path / "eval.json")],
        **{f"baseline-{m}": ["baseline", "--manifest", manifest, "--method", m,
                             "--out", str(tmp_path / m)] for m in ("mv", "best", "avg")},
    }[command]
    # no command runs the code ``dataclasses`` generates for a class, and
    # only gen, whose generator draws every dataset, loads numpy
    code = ("import sys; from abfuse.cli import main\n"
            f"print('exit', main({argv!r}))\n"
            "print(sorted(m[len('abfuse.'):] for m in sys.modules if m.startswith('abfuse.')))\n"
            "print('dataclasses' in sys.modules, 'numpy' in sys.modules)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == [
        "exit 0", repr(sorted(loaded)), f"False {command == 'gen'}"], proc.stdout


def _labels(tmp_path, manifest):
    """A label file naming the first object of ``manifest``'s ground truth."""
    gt = json.loads((pathlib.Path(manifest).parent / "gt.jsonl").read_text().splitlines()[0])
    path = tmp_path / "labels.jsonl"
    path.write_text(json.dumps({"class_id": gt["class_id"], "object_id": gt["object_id"]}) + "\n")
    return path


def test_only_the_generator_imports_numpy():
    # every other module of the package runs without it; the two accessors
    # that rebuild dense arrays for the benchmark tracer import it inside
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "abfuse"
    top = sorted(p.name for p in src.glob("*.py")
                 if re.search(r"^(import numpy|from numpy)", p.read_text(), re.M))
    assert top == ["synthgen.py"]


def test_every_top_level_import_is_read():
    # a module-level ``import`` or ``from ... import`` binds names; each must
    # be loaded somewhere in that module, or the import is dead weight
    root = pathlib.Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*(root / "src" / "abfuse").glob("*.py"), *(root / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.partition(".")[0] for a in stmt.names
                         if a.name != "*"]
                unused += [f"{path.relative_to(root)}: {name}" for name in bound
                           if name not in read]
    assert unused == []


def test_no_test_module_is_imported():
    # helpers shared between test modules live in conftest.py or oracles.py,
    # never in a test_* module that another module imports
    root = pathlib.Path(__file__).resolve().parent.parent
    found = []
    for path in sorted((root / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.relative_to(root)}: {name}" for name in names
                      if name.partition(".")[0].startswith("test_")]
    assert found == []


def test_process_exit_codes_and_outputs(dataset, tmp_path):
    # ``python -m abfuse.cli`` exits through ``entry``, which freezes the
    # heap before ``sys.exit``: same bytes and exit codes as ``main``
    manifest, rules = dataset
    argv = ["abduce", "--manifest", manifest, "--rules", rules, "--solver", "hs",
            "--delta", "0.5"]
    assert main([*argv, "--out", str(tmp_path / "in_process")]) == EXIT_OK
    proc = _python("-m", "abfuse.cli", *argv, "--out", str(tmp_path / "process"))
    assert proc.returncode == EXIT_OK, proc.stderr
    for name in ("labels.jsonl", "metrics.json", "trace.jsonl"):
        assert (tmp_path / "process" / name).read_bytes() \
            == (tmp_path / "in_process" / name).read_bytes(), name

    conflict, conflict_rules = conflict_dataset(tmp_path)
    proc = _python("-m", "abfuse.cli", "abduce", "--manifest", conflict,
                   "--rules", conflict_rules, "--solver", "ip", "--delta", "0",
                   "--epsilon", "0.5", "--out", str(tmp_path / "ip"))
    assert proc.returncode == EXIT_INFEASIBLE, proc.stderr
    assert "infeasible" in proc.stderr

    preds = tmp_path / "conflict" / "f1.jsonl"
    preds.write_text(preds.read_text() + '{"image_id": \n')
    proc = _python("-m", "abfuse.cli", "abduce", "--manifest", conflict, "--rules",
                   conflict_rules, "--solver", "hs", "--delta", "0.5",
                   "--out", str(tmp_path / "bad"))
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith(f"error: {preds}:3: invalid JSON"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_is_the_process_entry():
    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert 'abfuse = "abfuse.cli:entry"' in pyproject.read_text()


def test_entry_runs_the_command_without_a_collection(dataset, tmp_path):
    # ``entry`` turns the cyclic collector off; what a collection would
    # find afterwards, with the heap unfrozen, is import-time cycles only
    manifest, rules = dataset
    argv = ["abfuse", "sweep", "--manifest", manifest, "--rules", rules,
            "--delta-grid", "0.1,0.5", "--epsilon-grid", "0.1,0.5", "--no-timing",
            "--out", str(tmp_path / "sweep.csv")]
    code = ("import gc, sys\n"
            "starts = []\n"
            "gc.callbacks.append(lambda phase, info: starts.append(phase == 'start'))\n"
            "from abfuse import cli\n"
            f"sys.argv = {argv!r}\n"
            "starts.clear()\n"
            "try:\n"
            "    cli.entry()\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code, 'collections', sum(starts))\n"
            "gc.unfreeze()\n"
            "print('found', gc.collect())\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    done, found = proc.stdout.splitlines()[-2:]
    assert done == f"exit {EXIT_OK} collections 0", proc.stdout
    assert int(found.split()[1]) < 2000, proc.stdout


def test_in_process_main_leaves_the_collector_as_found(dataset, tmp_path):
    # only ``entry`` freezes the heap, and the collector stays on, also
    # when a line fails to decode
    manifest, rules = dataset
    conflict, _ = conflict_dataset(tmp_path)
    preds = tmp_path / "conflict" / "f2.jsonl"
    preds.write_text("[1, 2\n" + preds.read_text())
    frozen = gc.get_freeze_count()
    environ = dict(os.environ)
    for argv, code in (
            (["abduce", "--manifest", manifest, "--rules", rules, "--solver", "hs",
              "--delta", "0.5", "--out", str(tmp_path / "hs")], EXIT_OK),
            (["baseline", "--manifest", conflict, "--method", "mv",
              "--out", str(tmp_path / "mv")], EXIT_INPUT)):
        assert main(argv) == code
        assert gc.isenabled()
        assert gc.get_freeze_count() == frozen
        assert dict(os.environ) == environ


def test_sweep_rejects_bad_grids(dataset, tmp_path, capsys):
    manifest, rules = dataset
    out = str(tmp_path / "sweep.csv")
    base = ["sweep", "--manifest", manifest, "--rules", rules, "--out", out]
    assert main(base + ["--delta-grid", ""]) == EXIT_INPUT
    assert "grid is empty" in capsys.readouterr().err
    assert main(base + ["--delta-grid", "0.1,2.0"]) == EXIT_INPUT
    assert "out of [0, 1]" in capsys.readouterr().err
    assert main(base + ["--delta-grid", "0.1,frog"]) == EXIT_INPUT


@pytest.mark.parametrize("command, option, text, message", [
    ("sweep", "--methods", "mv,,best", "empty item"),
    ("sweep", "--delta-grid", "0.1,,0.5", "empty item"),
    ("sweep", "--delta-grid", "0.1,0.5,", "empty item"),
    ("sweep", "--epsilon-grid", "0.1, ,0.5", "empty item"),
    ("sweep", "--epsilon-grid", " ", "grid is empty"),
    ("sweep", "--delta-grid", ",", "grid is empty"),
    # an empty --epsilon-set used to fall back to the rules' whole grid
    ("abduce", "--epsilon-set", "", "grid is empty"),
    ("abduce", "--epsilon-set", "0.1,,0.5", "empty item"),
    ("learn", "--epsilon-grid", ",0.5", "empty item"),
])
def test_blank_list_items_are_rejected(dataset, tmp_path, capsys, command, option, text,
                                       message):
    manifest, rules = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    out = tmp_path / "rejected"
    argv = {"sweep": ["sweep", "--manifest", manifest, "--rules", rules],
            "abduce": ["abduce", "--manifest", manifest, "--rules", rules, "--solver", "hs",
                       "--delta", "0.5"],
            "learn": ["learn", "--manifest", train]}[command]
    assert main([*argv, option, text, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {option} {text!r}: {message}\n"
    assert not out.exists()


def test_learn_reports_the_epsilon_values_it_learned(dataset, tmp_path, capsys):
    manifest, _ = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    out = str(tmp_path / "rules.jsonl")
    capsys.readouterr()
    assert main(["learn", "--manifest", train, "--epsilon-grid", "0.5,0.1,0.1",
                 "--out", out]) == EXIT_OK
    n_rules = len(RuleSet.load(out).rules)
    assert capsys.readouterr().out == f"wrote {n_rules} rules over 2 epsilon values to {out}\n"


def test_sweep_rejects_no_jobs(dataset, tmp_path, capsys):
    manifest, rules = dataset
    assert main(["sweep", "--manifest", manifest, "--rules", rules, "--jobs", "0",
                 "--out", str(tmp_path / "sweep.csv")]) == EXIT_INPUT
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_baseline_mv_matches_library(dataset, tmp_path):
    manifest, _ = dataset
    out = tmp_path / "mv"
    assert main(["baseline", "--manifest", manifest, "--method", "mv",
                 "--out", str(out)]) == EXIT_OK
    got = {r["object_id"]: r["class_id"] for r in
           (json.loads(l) for l in (out / "labels.jsonl").read_text().splitlines())}
    obs = observations_from_dataset(load_dataset(manifest))
    assert got == row_labels(obs, majority_vote(obs))


def test_baseline_best_and_avg(dataset, tmp_path):
    manifest, _ = dataset
    best_dir, avg_dir = tmp_path / "best", tmp_path / "avg"
    assert main(["baseline", "--manifest", manifest, "--method", "best",
                 "--out", str(best_dir)]) == EXIT_OK
    best = json.loads((best_dir / "metrics.json").read_text())
    assert best["model_id"] in {"m0", "m1", "m2"}
    assert main(["baseline", "--manifest", manifest, "--method", "avg",
                 "--out", str(avg_dir)]) == EXIT_OK
    avg = json.loads((avg_dir / "metrics.json").read_text())
    assert "model_id" not in avg
    assert best["f1"] >= avg["f1"]


def _assert_metrics_match_row(metrics, row, label):
    """Every metrics.json field the sweep CSV also has equals the row."""
    for key in set(metrics) & set(row):
        if key == "status":
            assert metrics[key] == row[key], (label, key)
        else:
            assert float(row[key]) == pytest.approx(metrics[key], abs=1e-6), (label, key)


def _cross_check(manifest, rules, deltas, epsilons, out):
    """Run one sweep of every method, then ``abduce`` for each solver cell
    with the tie-break on and off and ``baseline`` for each reference method,
    and check that each run agrees with its sweep row.  Returns the number
    of infeasible cells seen."""
    sweep = out / "sweep.csv"
    assert main(["sweep", "--manifest", manifest, "--rules", rules,
                 "--delta-grid", ",".join(deltas), "--epsilon-grid", ",".join(epsilons),
                 "--no-timing", "--out", str(sweep)]) == EXIT_OK
    with open(sweep, newline="", encoding="utf-8") as fh:
        rows = {(r["delta"], r["epsilon"], r["method"]): r for r in csv.DictReader(fh)}
    infeasible = 0
    for delta in deltas:
        for eps in epsilons:
            for solver, flag in (("ip", "--epsilon"), ("hs", "--epsilon-set")):
                for tb in ("on", "off"):
                    method = solver + ("+tb" if tb == "on" else "")
                    row = rows[(f"{float(delta):g}", f"{float(eps):g}", method)]
                    target = out / f"{method}_{delta}_{eps}"
                    rc = main(["abduce", "--manifest", manifest, "--rules", rules,
                               "--solver", solver, "--delta", delta, flag, eps,
                               "--tie-break", tb, "--out", str(target)])
                    if row["status"] == "infeasible":
                        infeasible += 1
                        assert rc == EXIT_INFEASIBLE, (method, delta, eps)
                        continue
                    assert rc == EXIT_OK, (method, delta, eps)
                    _assert_metrics_match_row(
                        json.loads((target / "metrics.json").read_text()), row,
                        (method, delta, eps))
    for method in ("mv", "best", "avg"):
        target = out / method
        assert main(["baseline", "--manifest", manifest, "--method", method,
                     "--out", str(target)]) == EXIT_OK
        metrics = json.loads((target / "metrics.json").read_text())
        for key, row in rows.items():
            if key[2] == method:
                _assert_metrics_match_row(metrics, row, method)
    return infeasible


def test_abduce_and_baseline_agree_with_the_sweep(dataset, tmp_path):
    # abduce and baseline run one cell each; the sweep runs every cell of
    # the grid, and each of its rows must say what the single run says
    manifest, rules = dataset
    (tmp_path / "generated").mkdir()
    assert _cross_check(manifest, rules, ("0.3", "0.5", "0.9"), ("0.1", "0.5"),
                        tmp_path / "generated") == 0
    # at delta 0 the exact program is infeasible, and abduce exits 2 there
    manifest, rules = conflict_dataset(tmp_path)
    (tmp_path / "conflict_runs").mkdir()
    assert _cross_check(manifest, rules, ("0", "0.5"), ("0.5",),
                        tmp_path / "conflict_runs") == 2


def test_abduce_infeasible_exits_two(tmp_path, capsys):
    manifest, rules = conflict_dataset(tmp_path)
    rc = main(["abduce", "--manifest", manifest, "--rules", rules,
               "--solver", "ip", "--delta", "0.0", "--epsilon", "0.5",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err
    # the greedy solver always returns something on the same input
    assert main(["abduce", "--manifest", manifest, "--rules", rules,
                 "--solver", "hs", "--delta", "0.0",
                 "--out", str(tmp_path / "out_hs")]) == EXIT_OK


def test_domain_config_env_var(tmp_path, monkeypatch, capsys):
    manifest, rules = conflict_dataset(tmp_path)
    domain = tmp_path / "domain.json"
    domain.write_text('{"classes": ["A", "B"], "ic_pairs": []}\n')
    monkeypatch.setenv("ABFUSE_DOMAIN_CONFIG", str(domain))
    # with no exclusion rules the zero-budget instance becomes feasible
    rc = main(["abduce", "--manifest", manifest, "--rules", rules,
               "--solver", "ip", "--delta", "0.0", "--epsilon", "0.5",
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["recall"] == 1.0


@pytest.mark.parametrize("text, message", [
    ("5", "expected a JSON object"),
    ('{"classes": "AB"}', "'classes' must be a list of strings"),
    ('{"classes": ["A", 5]}', "'classes' must be a list of strings"),
    ('{"classes": ["A", "B"], "ic_pairs": [["A"]]}', "'ic_pairs' must be"),
    ('{"classes": ["A", "B"], "ic_pairs": [["A", "B", "C"]]}', "'ic_pairs' must be"),
    ('{"classes": ["A", "B"], "ic_pairs": [["A", 2]]}', "'ic_pairs' must be"),
    ('{"classes": ["A", "B"], "ic_pairs": "AB"}', "'ic_pairs' must be"),
    ('{"classes": ["A", "B"], "ic_pairs": [["A", "C"]]}', "outside the class universe"),
    ('{"classes": ["A", "B"], "directed_ground_rules": "false"}',
     "'directed_ground_rules' must be true or false"),
    ('{"classes": ["A", "B"], "all_pairs": 1}', "'all_pairs' must be true or false"),
])
def test_malformed_domain_config_exits_one(tmp_path, capsys, text, message):
    manifest, rules = conflict_dataset(tmp_path)
    domain = tmp_path / "domain.json"
    domain.write_text(text + "\n")
    rc = main(["abduce", "--manifest", manifest, "--rules", rules,
               "--solver", "hs", "--delta", "0.5", "--domain-config", str(domain),
               "--out", str(tmp_path / "out")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("classes", [["construction", "nature"], []])
def test_domain_config_must_name_every_dataset_class(dataset, tmp_path, monkeypatch, capsys,
                                                     classes):
    # the exclusions on a class the config leaves out used to be dropped
    # without a word; a superset of the dataset's classes stays valid
    manifest, rules = dataset
    domain = tmp_path / "domain.json"
    domain.write_text(json.dumps({"classes": classes}) + "\n")
    missing = [c for c in ("construction", "nature", "pedestrians", "vehicles")
               if c not in classes]
    out = str(tmp_path / "out")
    commands = [
        ["abduce", "--rules", rules, "--solver", "hs", "--delta", "0.1", "--out", out],
        ["sweep", "--rules", rules, "--methods", "mv", "--out", out + ".csv"],
        ["eval", "--labels", str(tmp_path / "never_read.jsonl"), "--out", out + ".json"],
        ["baseline", "--method", "mv", "--out", out],
    ]
    for argv in commands:
        for route in ("option", "environment"):
            monkeypatch.delenv("ABFUSE_DOMAIN_CONFIG", raising=False)
            if route == "option":
                argv_route = [*argv, "--domain-config", str(domain)]
            else:
                monkeypatch.setenv("ABFUSE_DOMAIN_CONFIG", str(domain))
                argv_route = argv
            assert main([argv[0], "--manifest", manifest, *argv_route[1:]]) == EXIT_INPUT, \
                (argv[0], route)
            assert capsys.readouterr().err == (
                f"error: {domain}: 'classes' omits the dataset's classes {missing}\n")
    assert not os.path.exists(out) and not os.path.exists(out + ".csv")


def test_domain_config_may_name_extra_classes(tmp_path):
    # a class the data lacks, and every exclusion pair on it, is never
    # violated, nor counted in the ``per_ground_rule`` normalizer: in each
    # mode, each command writes what it writes with the data's classes alone
    data = tmp_path / "data"
    assert main(["gen", "--preset", "MM_1", "--n-train", "60", "--n-test", "80",
                 "--seed", "1", "--out", str(data)]) == EXIT_OK
    rules = str(tmp_path / "rules.jsonl")
    assert main(["learn", "--manifest", str(data / "train" / "manifest.json"),
                 "--epsilon-grid", "0.1,0.5", "--out", rules]) == EXIT_OK
    classes = ["construction", "nature", "pedestrians", "vehicles"]

    def contents(path):
        if path.is_dir():
            return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
        return path.read_bytes()

    for mode in ({}, {"normalizer_mode": "per_ground_rule"},
                 {"normalizer_mode": "per_ground_rule", "directed_ground_rules": True}):
        runs = tmp_path / ("_".join(map(str, mode.values())) or "per_object")
        for run, extra in (("plain", []), ("superset", ["water"])):
            (runs / run).mkdir(parents=True)
            (runs / f"{run}.json").write_text(json.dumps({"classes": classes + extra, **mode}))
        commands = [
            ("hs", ["abduce", "--rules", rules, "--solver", "hs", "--delta", "0.05"]),
            ("ip", ["abduce", "--rules", rules, "--solver", "ip", "--delta", "0.5",
                    "--epsilon", "0.1"]),
            ("sweep.csv", ["sweep", "--rules", rules, "--epsilon-grid", "0.1,0.5",
                           "--no-timing"]),
            ("eval.json", ["eval", "--labels", str(runs / "plain" / "hs" / "labels.jsonl")]),
            ("mv", ["baseline", "--method", "mv"]),
        ]
        for name, argv in commands:
            got = []
            for run in ("plain", "superset"):
                out = runs / run / name
                assert main([argv[0], "--manifest", str(data / "test" / "manifest.json"),
                             *argv[1:], "--domain-config", str(runs / f"{run}.json"),
                             "--out", str(out)]) == EXIT_OK, (mode, name, run)
                got.append(contents(out))
            assert got[0] == got[1], (mode, name)
            assert got[0], (mode, name)
        # with no config, the default domain: all pairs over the data's classes
        assert main(["sweep", "--manifest", str(data / "test" / "manifest.json"), "--rules",
                     rules, "--epsilon-grid", "0.1,0.5", "--no-timing",
                     "--out", str(runs / "default.csv")]) == EXIT_OK
        assert ((runs / "default.csv").read_bytes()
                == (runs / "plain" / "sweep.csv").read_bytes()) == (not mode), mode


# sha256 of ``learn``'s rules on the MM_1 training split of seeds 1-3 at the
# default sizes and grid, as the numpy learner wrote them: the bitset
# learner and its quantiles must make the same choices and thresholds
LEARNED_RULES = {
    1: "686da886856e79daeda24c289b8d8f95a84d9f32a079336fda30fe247813579e",
    2: "6ecae7a4b2bc7cc5df5d230aebac13d1972d9c07f6d01a6b352bef1cbe3a4196",
    3: "7dd17fd326c9a4f38c11f44e4bb2fbaa40d598e0491bef59271fd76f4a54378a",
}


@pytest.mark.parametrize("seed", sorted(LEARNED_RULES))
def test_learned_rules_bytes_are_pinned(tmp_path, seed):
    assert main(["gen", "--preset", "MM_1", "--seed", str(seed), "--n-test", "0",
                 "--out", str(tmp_path)]) == EXIT_OK
    rules = tmp_path / "rules.jsonl"
    assert main(["learn", "--manifest", str(tmp_path / "train" / "manifest.json"),
                 "--out", str(rules)]) == EXIT_OK
    assert hashlib.sha256(rules.read_bytes()).hexdigest() == LEARNED_RULES[seed]


def test_learn_takes_no_domain_config(dataset, tmp_path, capsys):
    # learn never read the option, so a path to nothing was accepted
    manifest, _ = dataset
    train = os.path.join(os.path.dirname(os.path.dirname(manifest)), "train", "manifest.json")
    out = tmp_path / "unwritten_rules.jsonl"
    assert main(["learn", "--manifest", train, "--domain-config", "/does/not/exist.json",
                 "--out", str(out)]) == EXIT_INPUT
    assert "error: unrecognized arguments: --domain-config" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["abduce", "--solver", "ip"]) == EXIT_INPUT
    assert main(["learn", "--manifest", "does/not/exist.json",
                 "--out", str(tmp_path / "r.jsonl")]) == EXIT_INPUT
    assert "cannot open" in capsys.readouterr().err
    assert main(["abduce", "--manifest", "x", "--rules", "y", "--solver",
                 "hs", "--delta", "1.5", "--out", str(tmp_path)]) == EXIT_INPUT


def test_abduce_ip_requires_epsilon(dataset, tmp_path, capsys):
    manifest, rules = dataset
    assert main(["abduce", "--manifest", manifest, "--rules", rules,
                 "--solver", "ip", "--delta", "0.5",
                 "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "--epsilon is required" in capsys.readouterr().err


@pytest.mark.parametrize("solver, flags, named", [
    ("hs", ["--epsilon", "0.3"], "--epsilon cannot be used with --solver hs"),
    ("ip", ["--epsilon", "0.1", "--epsilon-set", "0.3"],
     "--epsilon-set cannot be used with --solver ip"),
])
def test_abduce_rejects_the_other_solvers_filter(dataset, tmp_path, capsys, solver, flags,
                                                 named):
    manifest, rules = dataset
    out = tmp_path / "o"
    assert main(["abduce", "--manifest", manifest, "--rules", rules, "--solver", solver,
                 "--delta", "0.5", *flags, "--out", str(out)]) == EXIT_INPUT
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    (",", "methods must be non-empty and distinct: []"),
    ("mv,mv", "methods must be non-empty and distinct: ['mv', 'mv']"),
])
def test_sweep_rejects_empty_or_repeated_methods(dataset, tmp_path, capsys, methods, message):
    manifest, rules = dataset
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--manifest", manifest, "--rules", rules, "--methods", methods,
                 "--out", str(out)]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point():
    proc = subprocess.run(["abfuse", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "abduce" in proc.stdout
