"""Scoring and grid sweeps.

``score`` turns a set of assignment atoms into precision / recall / F1 /
accuracy against ground-truth labels.  ``run_sweep`` evaluates the
configured methods over a (delta, epsilon) grid and renders a flat CSV plus
a JSON run manifest.  One row is emitted per repeat per method per cell:
the methods are deterministic, so repeated rows differ only in measured
runtime and collapse to identical bytes when timing is disabled.
"""

import csv
import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import baselines, solver_hs, solver_ip, tiebreak
from .deduction import DomainConfig, find_violations, inc_from_count
from .edr import RuleSet, apply_rules
from .model_io import InputError, ObservationSet

METHODS = ("ip", "ip+tb", "hs", "hs+tb", "mv", "best", "avg")

CSV_COLUMNS = ("delta", "epsilon", "method", "precision", "recall", "f1",
               "accuracy", "inconsistency", "runtime_per_object",
               "n_objects", "status")


@dataclass(frozen=True)
class Metrics:
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    inconsistency: float = 0.0
    runtime_per_object: float = 0.0
    n_objects: int = 0
    violations: int = 0     # raw violated ground rules behind ``inconsistency``


def score(atoms: Iterable[Tuple[str, str]],
          gt_labels: Mapping[str, str],
          *,
          domain: Optional[DomainConfig] = None,
          n_objects: Optional[int] = None,
          runtime_per_object: float = 0.0) -> Metrics:
    """Score assignment atoms ``(class_id, object_id)`` against labels.

    Precision is over atoms; recall counts ground-truth objects touched by a
    correct atom; accuracy additionally requires the object to carry exactly
    one atom.  Inconsistency, and the raw violation count it normalizes,
    are computed when a domain is given.
    """
    if not gt_labels:
        raise InputError("ground truth is empty")
    atoms = set(atoms)
    n_objects = len(gt_labels) if n_objects is None else n_objects

    per_object: dict = {}
    for c, w in atoms:
        per_object.setdefault(w, set()).add(c)

    correct = sum(1 for c, w in atoms if gt_labels.get(w) == c)
    precision = correct / len(atoms) if atoms else 0.0
    hit = sum(1 for w, label in gt_labels.items() if label in per_object.get(w, ()))
    recall = hit / len(gt_labels)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    exact = sum(1 for w, label in gt_labels.items()
                if per_object.get(w) == {label})
    accuracy = exact / len(gt_labels)

    incon = 0.0
    violations = 0
    if domain is not None:
        violations = len(find_violations(atoms, domain.ic))
        incon = inc_from_count(violations, n_objects, domain.ic,
                               domain.normalizer_mode, domain.directed_ground_rules)
    return Metrics(precision, recall, f1, accuracy, incon,
                   runtime_per_object, n_objects, violations)


def labels_to_atoms(labels: Mapping[str, str]) -> frozenset:
    return frozenset((c, w) for w, c in labels.items())


def per_model_metrics(obs: ObservationSet,
                      gt_labels: Mapping[str, str],
                      domain: Optional[DomainConfig] = None) -> Dict[str, Metrics]:
    """Each model scored alone on its raw surviving predictions."""
    out = {}
    for f in sorted(obs.models):
        atoms = {(e.class_id, e.object_id) for e in obs.entries if e.model_id == f}
        out[f] = score(atoms, gt_labels, domain=domain, n_objects=len(obs.objects))
    return out


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepDataset:
    observations: ObservationSet
    gt_labels: Mapping[str, str]
    ruleset: RuleSet
    domain: DomainConfig
    name: str = "dataset"

    def fingerprint(self) -> str:
        payload = json.dumps({
            "entries": sorted(self.observations.entries),
            "objects": sorted(self.observations.objects),
            "labels": sorted(self.gt_labels.items()),
            "classes": list(self.domain.classes),
            "ic": [list(p) for p in self.domain.ic.pairs],
        }, separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class SweepCell:
    delta: float
    epsilon: float
    method: str
    metrics: Metrics
    status: str = "ok"


@dataclass
class SweepResult:
    cells: list
    manifest: dict

    def to_csv(self, path: str) -> None:
        rows = sorted(self.cells, key=lambda c: (c.delta, c.epsilon, c.method))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_COLUMNS)
            for cell in rows:
                m = cell.metrics
                w.writerow([
                    f"{cell.delta:g}", f"{cell.epsilon:g}", cell.method,
                    f"{m.precision:.6f}", f"{m.recall:.6f}", f"{m.f1:.6f}",
                    f"{m.accuracy:.6f}", f"{m.inconsistency:.6f}",
                    f"{m.runtime_per_object:.9f}", m.n_objects, cell.status,
                ])

    def write_manifest(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _solve_ip_cell(dataset: SweepDataset, delta: float, epsilon: float,
                   want_plain: bool, want_tb: bool,
                   repeats: int, timing: bool) -> list:
    """The timer covers the same span as the greedy side: from raw
    observations plus rules to a solution (filtering, packing, search)."""
    dom = dataset.domain
    n = len(dataset.observations.objects)

    cells = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        filtered, _ = apply_rules(dataset.observations, dataset.ruleset, epsilon)
        instance = solver_ip.build_instance(
            filtered, dom.ic, delta, dom.normalizer_mode, dom.directed_ground_rules)
        sol = solver_ip.solve(instance)
        elapsed = time.perf_counter() - t0
        rpo = (elapsed / n) if (timing and n) else 0.0

        if sol.status != solver_ip.STATUS_OPTIMAL:
            empty = Metrics(runtime_per_object=rpo, n_objects=n)
            if want_plain:
                cells.append(SweepCell(delta, epsilon, "ip", empty, "infeasible"))
            if want_tb:
                cells.append(SweepCell(delta, epsilon, "ip+tb", empty, "infeasible"))
            continue

        atoms = sol.assigned_atoms()
        if want_plain:
            m = score(atoms, dataset.gt_labels, domain=dom, n_objects=n,
                      runtime_per_object=rpo)
            cells.append(SweepCell(delta, epsilon, "ip", m))
        if want_tb:
            resolved = tiebreak.apply_tiebreaker(
                tiebreak.candidates_from_atoms(atoms, filtered))
            tb_atoms = labels_to_atoms(tiebreak.labels_only(resolved))
            m = score(tb_atoms, dataset.gt_labels, domain=dom, n_objects=n,
                      runtime_per_object=rpo)
            cells.append(SweepCell(delta, epsilon, "ip+tb", m))
    return cells


def _solve_hs_cell(dataset: SweepDataset, delta: float, epsilon: float,
                   want_plain: bool, want_tb: bool,
                   repeats: int, timing: bool) -> list:
    dom = dataset.domain
    config = solver_hs.HsConfig(delta, (epsilon,))
    n = len(dataset.observations.objects)

    cells = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        res = solver_hs.heuristic_search(
            dataset.observations, config, dataset.ruleset, dom.ic,
            dom.normalizer_mode, dom.directed_ground_rules)
        elapsed = time.perf_counter() - t0
        rpo = (elapsed / n) if (timing and n) else 0.0

        if want_plain:
            m = score(res.atoms(), dataset.gt_labels, domain=dom, n_objects=n,
                      runtime_per_object=rpo)
            cells.append(SweepCell(delta, epsilon, "hs", m))
        if want_tb:
            resolved = tiebreak.apply_tiebreaker(
                tiebreak.candidates_from_entries(res.selected))
            tb_atoms = labels_to_atoms(tiebreak.labels_only(resolved))
            m = score(tb_atoms, dataset.gt_labels, domain=dom, n_objects=n,
                      runtime_per_object=rpo)
            cells.append(SweepCell(delta, epsilon, "hs+tb", m))
    return cells


def _baseline_cells(dataset: SweepDataset, methods: Sequence[str]) -> list:
    """Grid-independent rows, computed once and replicated over the grid."""
    dom = dataset.domain
    n = len(dataset.observations.objects)
    out = []
    if "mv" in methods:
        labels = baselines.majority_vote(dataset.observations)
        m = score(labels_to_atoms(labels), dataset.gt_labels, domain=dom, n_objects=n)
        out.append(("mv", m))
    if "best" in methods or "avg" in methods:
        per_model = per_model_metrics(dataset.observations, dataset.gt_labels, dom)
        if "best" in methods:
            out.append(("best", per_model[baselines.best_individual(per_model)]))
        if "avg" in methods:
            out.append(("avg", baselines.average_models(per_model)))
    return out


def _cell_worker(args) -> list:
    dataset, delta, epsilon, methods, repeats, timing = args
    cells = []
    if "ip" in methods or "ip+tb" in methods:
        cells.extend(_solve_ip_cell(dataset, delta, epsilon,
                                    "ip" in methods, "ip+tb" in methods,
                                    repeats, timing))
    if "hs" in methods or "hs+tb" in methods:
        cells.extend(_solve_hs_cell(dataset, delta, epsilon,
                                    "hs" in methods, "hs+tb" in methods,
                                    repeats, timing))
    return cells


def run_sweep(dataset: SweepDataset,
              methods: Sequence[str] = METHODS,
              delta_grid: Sequence[float] = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5,
                                             0.6, 0.7, 0.8, 0.9, 1.0),
              epsilon_grid: Sequence[float] = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5,
                                               0.6, 0.7, 0.8, 0.9, 1.0),
              repeats: int = 1,
              seed: int = 0,
              jobs: int = 1,
              timing: bool = True) -> SweepResult:
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; choose from {METHODS}")
    if repeats < 1:
        raise InputError("repeats must be >= 1")
    deltas = sorted(set(float(d) for d in delta_grid))
    epsilons = sorted(set(float(e) for e in epsilon_grid))
    for grid, name in ((deltas, "delta"), (epsilons, "epsilon")):
        if not grid:
            raise InputError(f"{name} grid must be non-empty")
        for v in grid:
            if not (0.0 <= v <= 1.0):
                raise InputError(f"{name} grid value out of [0, 1]: {v}")

    tasks = [(dataset, d, e, tuple(methods), repeats, timing)
             for d in deltas for e in epsilons]

    cells: list = []
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for got in pool.map(_cell_worker, tasks):
                cells.extend(got)
    else:
        for t in tasks:
            cells.extend(_cell_worker(t))

    for method, m in _baseline_cells(dataset, methods):
        for d in deltas:
            for e in epsilons:
                for _ in range(repeats):
                    cells.append(SweepCell(d, e, method, m))

    manifest = {
        "dataset": dataset.name,
        "dataset_fingerprint": dataset.fingerprint(),
        "methods": sorted(methods),
        "delta_grid": deltas,
        "epsilon_grid": epsilons,
        "repeats": repeats,
        "seed": seed,
        "jobs": jobs,
        "timing": timing,
        "n_objects": len(dataset.observations.objects),
        "n_models": len(dataset.observations.models),
        "classes": sorted(dataset.observations.classes),
        "normalizer_mode": dataset.domain.normalizer_mode,
        "directed_ground_rules": dataset.domain.directed_ground_rules,
    }
    return SweepResult(cells, manifest)
