"""Output checks for benchmark jobs.

Every check returns a list of problem strings; an empty list means the
output passed.  F1 is recomputed here from ``gt.jsonl`` and the job's own
label file, independently of ``abfuse.evaluation``.
"""

import csv
import hashlib
import json
import os

SWEEP_COLUMNS = ["delta", "epsilon", "method", "precision", "recall", "f1",
                 "accuracy", "inconsistency", "runtime_per_object",
                 "n_objects", "status"]
_TOL = 1e-9


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(paths):
    """One digest over several files, in the order given."""
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        h.update(sha256_file(p).encode())
    return h.hexdigest()


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_truth(manifest_path):
    """Ground-truth labels and the class list of a dataset manifest."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    gt_path = os.path.join(os.path.dirname(manifest_path), manifest["ground_truth"])
    labels = {r["object_id"]: r["class_id"] for r in read_jsonl(gt_path)}
    return labels, set(manifest["classes"])


def f1_from_atoms(atoms, truth):
    """F1 over (class, object) atoms, as the paper scores a labelling:
    precision over atoms, recall over ground-truth objects."""
    correct = sum(1 for c, w in atoms if truth.get(w) == c)
    precision = correct / len(atoms) if atoms else 0.0
    covered = {}
    for c, w in atoms:
        covered.setdefault(w, set()).add(c)
    recall = sum(1 for w, c in truth.items() if c in covered.get(w, ())) / len(truth)
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def check_abduce(out_dir, truth, classes):
    """Checks a tie-broken ``abduce`` output; returns (f1, digest, problems)."""
    labels_path = os.path.join(out_dir, "labels.jsonl")
    metrics_path = os.path.join(out_dir, "metrics.json")
    for p in (labels_path, metrics_path):
        if not os.path.isfile(p):
            return None, None, [f"missing output {os.path.basename(p)}"]
    problems = []
    rows = read_jsonl(labels_path)
    seen = set()
    for r in rows:
        obj, cls = r["object_id"], r["class_id"]
        if obj not in truth:
            problems.append(f"label for unknown object {obj!r}")
        if cls not in classes:
            problems.append(f"unknown class {cls!r} for object {obj!r}")
        if obj in seen:
            problems.append(f"object {obj!r} has more than one label after tie-break")
        seen.add(obj)
    f1 = f1_from_atoms({(r["class_id"], r["object_id"]) for r in rows}, truth)
    with open(metrics_path, "r", encoding="utf-8") as fh:
        reported = json.load(fh)["f1"]
    if abs(f1 - reported) > _TOL:
        problems.append(f"metrics.json f1 {reported} != recomputed {f1}")
    return f1, sha256_file(labels_path), problems


def check_sweep(csv_path, methods, n_cells, f1_methods):
    """Checks a ``sweep --no-timing`` CSV; returns (f1, digest, problems).

    F1 is the mean over rows with status ``ok`` of ``f1_methods``.
    """
    if not os.path.isfile(csv_path):
        return None, None, ["missing sweep CSV"]
    problems = []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [dict(zip(SWEEP_COLUMNS, r)) for r in reader]
    if header != SWEEP_COLUMNS:
        problems.append(f"unexpected CSV header {header}")
        return None, None, problems
    if len(rows) != n_cells * len(methods):
        problems.append(f"{len(rows)} rows, expected {n_cells * len(methods)}")
    f1s = []
    for r in rows:
        if r["method"] not in methods:
            problems.append(f"unexpected method {r['method']!r}")
        if r["status"] not in ("ok", "infeasible"):
            problems.append(f"unexpected status {r['status']!r}")
        if r["status"] != "ok":
            continue
        p, rc, f1 = float(r["precision"]), float(r["recall"]), float(r["f1"])
        expect = 2 * p * rc / (p + rc) if p + rc else 0.0
        if abs(expect - f1) > 2e-6:
            problems.append(f"row {r['method']} d={r['delta']} e={r['epsilon']}: "
                            f"f1 {f1} inconsistent with precision/recall")
        if r["method"] in ("ip", "hs") and float(r["inconsistency"]) > float(r["delta"]) + _TOL:
            problems.append(f"row {r['method']} d={r['delta']} e={r['epsilon']}: "
                            f"inconsistency {r['inconsistency']} above delta")
        if float(r["runtime_per_object"]) != 0.0:
            problems.append("runtime column not zeroed under --no-timing")
        if r["method"] in f1_methods:
            f1s.append(f1)
    f1 = sum(f1s) / len(f1s) if f1s else 0.0
    return f1, sha256_file(csv_path), problems
