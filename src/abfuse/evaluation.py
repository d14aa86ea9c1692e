"""Scoring, the solver and baseline cells, and grid sweeps.

``score`` reduces a per-class coverage of object bitsets against ground-truth
class sets to precision / recall / F1 / accuracy and inconsistency.
``solver_cells``, ``score_cell`` and ``baseline_cells`` run and score each
cell, one at a time for ``abduce`` and ``baseline`` and over a (delta,
epsilon) grid for ``run_sweep``, which renders a flat CSV plus a JSON run
manifest.  One row is emitted per repeat per method per cell: the methods
are deterministic, so repeated rows differ only in measured runtime and
collapse to identical bytes when timing is disabled.  A sweep's answers are
piecewise constant in delta, so each epsilon row scores each of its
distinct selections once.
"""

import json
import struct
import time
from functools import reduce
from itertools import chain, combinations
from operator import or_
from typing import (Dict, Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .deduction import DomainConfig, count_violations, inc_from_count
from .edr import DEFAULT_EPSILON_GRID, RuleSet, apply_rules
from .model_io import (InputError, ObservationSet, Truth, bitsets, index_of, unit_grid,
                       write_json, write_rows)

METHODS = ("ip", "ip+tb", "hs", "hs+tb", "mv", "best", "avg")   # solvers first

CSV_COLUMNS = ("delta", "epsilon", "method", "precision", "recall", "f1",
               "accuracy", "inconsistency", "runtime_per_object",
               "n_objects", "status")


class Metrics:
    """One method's scores; ``violations`` is the raw count of violated
    ground rules behind ``inconsistency``.  Its attributes are the keys of
    a metrics file."""

    def __init__(self, precision: float = 0.0, recall: float = 0.0, f1: float = 0.0,
                 accuracy: float = 0.0, inconsistency: float = 0.0,
                 runtime_per_object: float = 0.0, n_objects: int = 0, violations: int = 0):
        self.precision, self.recall, self.f1, self.accuracy = precision, recall, f1, accuracy
        self.inconsistency, self.runtime_per_object = inconsistency, runtime_per_object
        self.n_objects, self.violations = n_objects, violations

    def __eq__(self, other) -> bool:
        return isinstance(other, Metrics) and vars(self) == vars(other)


def score(cov: list,
          truth: Truth,
          *,
          domain: Optional[DomainConfig] = None,
          n_objects: Optional[int] = None) -> Metrics:
    """Score a coverage, ``cov[c]`` the set of objects that carry class
    ``truth.classes[c]`` as an int bitset, against ground truth.

    Precision is over atoms (covered cells); recall counts labels hit by a
    correct atom; accuracy additionally requires the object to carry exactly
    one atom.  Inconsistency, and the raw violation count it normalizes,
    are computed when a domain is given.  The metrics are untimed.
    """
    if not truth.n_labels:
        raise InputError("ground truth is empty")
    n_objects = truth.n_labels if n_objects is None else n_objects

    hits = [b & t for b, t in zip(cov, truth.bits)]
    twice = reduce(or_, (a & b for a, b in combinations(cov, 2)), 0)   # >1 class
    correct = sum(h.bit_count() for h in hits)
    n_atoms = sum(b.bit_count() for b in cov)
    precision = correct / n_atoms if n_atoms else 0.0
    recall = correct / truth.n_labels
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    exact = sum((h & ~twice).bit_count() for h in hits)
    accuracy = exact / truth.n_labels

    incon, violations = 0.0, 0
    if domain is not None:
        violations = count_violations(cov, truth.classes, domain.ic)
        incon = inc_from_count(violations, n_objects, domain.ic,
                               domain.normalizer_mode, domain.directed_ground_rules)
    return Metrics(precision, recall, f1, accuracy, incon,
                   n_objects=n_objects, violations=violations)


def score_atoms(atoms: Iterable[Tuple[str, str]],
                gt_labels: Mapping[str, str], **kw) -> Metrics:
    """:func:`score` of ``(class_id, object_id)`` atoms, on the universe of
    the ids they, ``gt_labels`` and the domain name."""
    atoms = set(atoms)
    objects = sorted({w for _, w in atoms}.union(gt_labels))
    classes = sorted({c for c, _ in atoms}.union(gt_labels.values(),
                                                 getattr(kw.get("domain"), "classes", ())))
    cov = bitsets(index_of(classes, (c for c, _ in atoms), "class"),
                  index_of(objects, (w for _, w in atoms), "object"), len(classes), len(objects))
    return score(cov, Truth.of(gt_labels, objects, classes), **kw)


def per_model_metrics(obs: ObservationSet,
                      truth: Truth,
                      domain: Optional[DomainConfig] = None) -> Dict[str, Metrics]:
    """Each model scored alone on its raw surviving predictions against ``truth``."""
    n_classes = len(obs.classes)
    return {m: score(obs.pair_masks[f * n_classes:(f + 1) * n_classes],
                     truth, domain=domain, n_objects=len(obs.objects))
            for f, m in enumerate(obs.models)}


# ---------------------------------------------------------------------------
# sweep


def _sha256(data: bytes):
    """A SHA-256 hash object over ``data``, from CPython's built-in module
    (``_sha2`` from 3.12, ``_sha256`` before): ``hashlib`` would load
    OpenSSL's libcrypto, ~3.6 MB resident, to hash one document.  An
    interpreter built without the module falls back to ``hashlib``."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


class SweepDataset(NamedTuple):
    observations: ObservationSet
    gt_labels: Mapping[str, str]
    ruleset: RuleSet
    domain: DomainConfig
    name: str = "dataset"

    def fingerprint(self) -> str:
        """sha256 of the set's ``obj``, ``model`` and ``cls`` index columns
        as little-endian int64s and its ``confidence`` column as float64s,
        in row order, then one compact JSON array: the row count, the
        object, model and class universes, the sorted labels, the domain's
        classes and its exclusion pairs."""
        obs, n = self.observations, len(self.observations.obj)
        h = _sha256(struct.pack(f"<{3 * n}q{n}d", *obs.obj, *obs.model, *obs.cls,
                                *obs.confidence))
        h.update(json.dumps([n, obs.objects, obs.models, obs.classes,
                             sorted(self.gt_labels.items()), self.domain.classes,
                             self.domain.ic.pairs], separators=(",", ":")).encode())
        return h.hexdigest()


class SweepCell(NamedTuple):
    delta: float
    epsilon: float
    method: str
    metrics: Metrics
    status: str = "ok"


class SweepResult(NamedTuple):
    cells: list
    manifest: dict

    def to_csv(self, path: str) -> None:
        """A header of ``CSV_COLUMNS``, then one row per cell in (delta,
        epsilon, method) order, each line ended by CRLF; no field holds a
        comma or a quote, so none is quoted."""
        cells = sorted(self.cells, key=lambda c: (c.delta, c.epsilon, c.method))
        write_rows(path, "%s\r\n", [",".join(CSV_COLUMNS)] + [
            f"{c.delta:g},{c.epsilon:g},{c.method},{m.precision:.6f},{m.recall:.6f},"
            f"{m.f1:.6f},{m.accuracy:.6f},{m.inconsistency:.6f},"
            f"{m.runtime_per_object:.9f},{m.n_objects},{c.status}"
            for c, m in zip(cells, (c.metrics for c in cells))])

    def write_manifest(self, path: str) -> None:
        write_json(path, self.manifest, sort_keys=True)


class SolverCell(NamedTuple):
    """One solver's accepted ``rows`` of the loaded set at one delta, none if
    the exact program is infeasible, and their coverage ``cover``; ``budget``
    is the violation count the solver enforced, and ``seconds`` the cell's
    solve plus the filter (and exact packing) it shares."""
    solver: str
    delta: float
    rows: list
    cover: list
    status: str                           # "ok" or "infeasible"
    budget: int
    nodes: int                            # exact search nodes, 0 for hs
    trace: Optional["SelectionTrace"]     # greedy steps, None for ip
    seconds: float


def solver_cells(obs: ObservationSet, ruleset: RuleSet, domain: DomainConfig,
                 epsilons: Sequence[float], deltas: Sequence[float],
                 solvers: Sequence[str], repeats: int = 1) -> Iterator[SolverCell]:
    """Solve one rule filter's cells per delta, then per solver ("ip" before
    "hs"), ``repeats`` times each, yielding each once solved.  The rules
    filter once per epsilon (:func:`apply_rules`) for every cell: the exact
    solver takes one epsilon and packs its survivors once, and the greedy
    search takes every epsilon's survivors.  Exact cells with the same
    coverage share one list of rows, recovered once."""
    if "hs" in solvers:
        from . import solver_hs
        configs = {d: solver_hs.HsConfig(d, epsilons) for d in deltas}
    if "ip" in solvers:
        from . import solver_ip
        (epsilon,) = epsilons
    t0 = time.perf_counter()
    survivors = {e: apply_rules(obs, ruleset, e) for e in sorted(set(map(float, epsilons)))}
    shared = {"hs": time.perf_counter() - t0}
    if "ip" in solvers:
        # ``loaded[r]`` is the loaded row behind row ``r`` of ``kept``
        kept, _, loaded = survivors[epsilon]
        packed = solver_ip.build_instance(kept, domain.ic, deltas[0],
                                          domain.normalizer_mode, domain.directed_ground_rules)
        shared["ip"] = time.perf_counter() - t0
        within = {}                       # the rows of each distinct coverage
    for delta in deltas:
        for solver in ("ip", "hs"):
            for _ in range(repeats if solver in solvers else 0):
                t0 = time.perf_counter()
                if solver == "ip":
                    sol = solver_ip.solve(packed.with_delta(delta))
                    status = "ok" if sol.status == solver_ip.STATUS_OPTIMAL else "infeasible"
                    key = tuple(sol.covered)
                    if key not in within:
                        within[key] = list(map(loaded.__getitem__, kept.rows_within(sol.covered)))
                    got = (within[key], sol.covered, status, sol.instance.delta_budget,
                           sol.nodes, None)
                else:
                    res = solver_hs.heuristic_search(
                        obs, configs[delta], survivors, domain.ic, domain.normalizer_mode,
                        domain.directed_ground_rules)
                    got = (res.rows, res.cover, "ok", res.budget, 0, res.trace)
                yield SolverCell(solver, delta, *got, shared[solver] + time.perf_counter() - t0)


def score_cell(cell: SolverCell, obs: ObservationSet, tie_break: bool, truth: Truth,
               domain: DomainConfig) -> Tuple[list, Metrics]:
    """A solver cell's rows of the loaded set ``obs``, first reduced to one
    per object under ``tie_break``, and their untimed :class:`Metrics`; an
    infeasible cell, keeping no rows, scores zeros."""
    from . import tiebreak

    rows = tiebreak.resolve(obs, cell.rows) if tie_break else cell.rows
    return rows, score(obs.coverage(rows) if tie_break else cell.cover, truth, domain=domain,
                       n_objects=len(obs.objects))


def baseline_cells(obs: ObservationSet, truth: Truth,
                   domain: DomainConfig, methods: Sequence[str]) -> list:
    """``(method, Metrics, detail)`` per reference method in ``methods``,
    scored against ``truth`` on the universe of ``obs``, in (mv, best, avg)
    order; ``detail`` is the rows of ``obs`` mv keeps, the model best picks,
    or None.  best and avg share each model's scoring."""
    from . import baselines

    out = []
    if "mv" in methods:
        rows = baselines.majority_vote(obs)
        out.append(("mv", score(obs.coverage(rows), truth, domain=domain,
                                n_objects=len(obs.objects)), rows))
    if "best" in methods or "avg" in methods:
        per_model = per_model_metrics(obs, truth, domain)
        if "best" in methods:
            winner = baselines.best_individual(per_model)
            out.append(("best", per_model[winner], winner))
        if "avg" in methods:
            out.append(("avg", baselines.average_models(per_model), None))
    return out


def _row_worker(args) -> list:
    """The sweep rows of one epsilon, timed as each cell's seconds per object.

    A cell's metrics depend only on its rows and the tie-break: the rows
    fix the coverage of either solver.  So the row scores each distinct
    selection once per tie-break setting, untimed, and each cell gets a
    copy carrying its own runtime.  The memo lives for this row only, so
    no row's work depends on the rows run before it."""
    dataset, truth, deltas, epsilon, methods, solvers, repeats, timing = args
    obs = dataset.observations
    n = len(obs.objects)
    scored = {}                           # (tie_break, rows) -> Metrics
    out = []
    for cell in solver_cells(obs, dataset.ruleset, dataset.domain,
                             (epsilon,), deltas, solvers, repeats):
        rpo = (cell.seconds / n) if (timing and n) else 0.0
        rows = tuple(cell.rows)
        for m in (cell.solver, cell.solver + "+tb"):
            if m not in methods:
                continue
            tb = m.endswith("+tb")
            metrics = scored.get((tb, rows))
            if metrics is None:
                metrics = scored[tb, rows] = score_cell(cell, obs, tb, truth, dataset.domain)[1]
            out.append(SweepCell(cell.delta, epsilon, m, Metrics(
                **{**vars(metrics), "runtime_per_object": rpo}), cell.status))
    return out


def run_sweep(dataset: SweepDataset,
              methods: Sequence[str] = METHODS,
              delta_grid: Sequence[float] = DEFAULT_EPSILON_GRID,
              epsilon_grid: Sequence[float] = DEFAULT_EPSILON_GRID,
              repeats: int = 1,
              jobs: int = 1,
              timing: bool = True) -> SweepResult:
    if not methods or len(set(methods)) < len(methods):
        raise InputError(f"methods must be non-empty and distinct: {list(methods)}")
    for m in methods:
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; choose from {METHODS}")
    if repeats < 1:
        raise InputError("repeats must be >= 1")
    if jobs < 1:
        raise InputError("jobs must be >= 1")
    deltas = unit_grid(delta_grid, "delta grid")
    epsilons = unit_grid(epsilon_grid, "epsilon grid")

    obs = dataset.observations
    truth = Truth.of(dataset.gt_labels, obs.objects, obs.classes)
    solvers = [s for s in ("ip", "hs") if s in methods or s + "+tb" in methods]
    tasks = [(dataset, truth, deltas, e, tuple(methods), solvers, repeats, timing)
             for e in epsilons if solvers]

    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a worker per row at most: each is started at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_row_worker, tasks))
    else:
        rows = list(map(_row_worker, tasks))
    # rows come per epsilon; the stable sort restores (delta, epsilon) order
    cells = sorted(chain.from_iterable(rows), key=lambda c: (c.delta, c.epsilon))
    for method, m, _ in baseline_cells(obs, truth, dataset.domain, methods):
        cells.extend(SweepCell(d, e, method, m) for d in deltas for e in epsilons
                     for _ in range(repeats))

    manifest = {
        "dataset": dataset.name,
        "dataset_fingerprint": dataset.fingerprint(),
        "methods": sorted(methods),
        "delta_grid": deltas,
        "epsilon_grid": epsilons,
        "repeats": repeats,
        "jobs": jobs,
        "timing": timing,
        "n_objects": len(obs.objects),
        "n_models": len(obs.models),
        "classes": list(obs.classes),
        "normalizer_mode": dataset.domain.normalizer_mode,
        "directed_ground_rules": dataset.domain.directed_ground_rules,
    }
    return SweepResult(cells, manifest)
