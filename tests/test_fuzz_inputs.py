"""One-leaf fuzz of every input file the CLI reads.

Each example starts from a valid file of one kind, replaces one leaf (a
scalar anywhere in its JSON, or in one record of a JSONL file) with a value
that is wrong in some way, and runs the command that reads it in-process.
Whatever the value, the command must return 0, 1 or 2 without letting an
exception escape, and an input error must come with an ``error:`` line.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abfuse.cli import EXIT_INPUT, main

HUGE = "@HUGE@"     # stands for a 400-digit integer, which json cannot dump
VALUES = (None, True, -1, 0, math.nan, math.inf, -math.inf, HUGE, "", [], {}, "x" * 300)


def _dump(doc) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE), "1" + "0" * 400)


def _leaves(doc, path=()):
    """The path of every scalar in ``doc``, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A tiny valid dataset and one valid file of every input kind."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main(["gen", "--preset", "UM_1", "--models", "2", "--n-train", "12",
                 "--n-test", "6", "--seed", "2", "--out", str(data)]) == 0
    scenario = json.loads((data / "scenario.json").read_text())
    scenario.update(n_train=4, n_test=4)
    (root / "scenario.json").write_text(json.dumps(scenario))
    assert main(["learn", "--manifest", str(data / "train" / "manifest.json"),
                 "--epsilon-grid", "0.1,0.5", "--out", str(root / "rules.jsonl")]) == 0
    test = data / "test"
    classes = json.loads((test / "manifest.json").read_text())["classes"]
    (root / "domain.json").write_text(json.dumps({
        "classes": classes, "ic_pairs": [classes[:2], classes[2:4]],
        "normalizer_mode": "per_object", "directed_ground_rules": False}))
    assert main(["abduce", "--manifest", str(test / "manifest.json"), "--rules",
                 str(root / "rules.jsonl"), "--solver", "hs", "--delta", "0.5",
                 "--out", str(root / "fused")]) == 0
    return root


# kind -> (the file, relative to the base, and whether it is JSONL)
KINDS = {
    "manifest": ("data/test/manifest.json", False),
    "predictions": ("data/test/preds_m0.jsonl", True),
    "ground_truth": ("data/test/gt.jsonl", True),
    "rules": ("rules.jsonl", True),
    "domain_config": ("domain.json", False),
    "labels": ("fused/labels.jsonl", True),
    "scenario": ("scenario.json", False),
}


def _read(path, jsonl):
    text = path.read_text()
    return [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)


def _write(path, doc, jsonl):
    path.write_text("".join(_dump(r) + "\n" for r in doc) if jsonl else _dump(doc))


def _argv(kind, root):
    test = root / "data" / "test"
    if kind == "scenario":
        return ["gen", "--scenario", str(root / "scenario.json"), "--out", str(root / "gen")]
    if kind == "labels":
        return ["eval", "--manifest", str(test / "manifest.json"), "--labels",
                str(root / "fused" / "labels.jsonl"), "--out", str(root / "eval.json")]
    return ["abduce", "--manifest", str(test / "manifest.json"), "--rules",
            str(root / "rules.jsonl"), "--solver", "hs", "--delta", "0.5",
            "--domain-config", str(root / "domain.json"), "--out", str(root / "out")]


def _check_one_leaf(base, kind, doc, path, value):
    name, jsonl = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(shutil.copytree(base, os.path.join(tmp, "case")))
        _write(root / name, _replace(doc, path, value), jsonl)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_argv(kind, root))
    assert code in (0, 1, 2), (kind, path, value, code)
    if code == EXIT_INPUT:
        # a note about unmatched objects may come first
        lines = [l for l in err.getvalue().splitlines() if not l.startswith("note: ")]
        assert len(lines) == 1 and lines[0].startswith("error: "), (kind, path, value, lines)


def test_every_kind_is_valid_as_generated(base):
    for kind in KINDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(_argv(kind, base)) == 0, (kind, err.getvalue())


# the scenario's leaves times the values are few enough to try them all
@pytest.mark.parametrize("kind, examples", [
    ("manifest", 60), ("predictions", 60), ("ground_truth", 60), ("rules", 60),
    ("domain_config", 60), ("labels", 60), ("scenario", 300)])
def test_one_bad_leaf_exits_cleanly(base, kind, examples):
    name, jsonl = KINDS[kind]
    doc = _read(base / name, jsonl)
    leaves = _leaves(doc)
    if kind == "scenario":
        assert len(leaves) * len(VALUES) <= examples

    @settings(max_examples=examples, deadline=None, database=None)
    @given(path=st.sampled_from(leaves), value=st.sampled_from(VALUES))
    def check(path, value):
        _check_one_leaf(base, kind, doc, path, value)

    check()
