"""Command-line interface.

Subcommands cover the full workflow: ``gen`` (synthetic scenarios),
``learn`` (error-detection rules), ``abduce`` (fuse one dataset with either
solver), ``sweep`` (grid evaluation to CSV), ``eval`` (score a label file),
and ``baseline`` (reference methods).

Exit codes: 0 success, 1 invalid input or usage, 2 the exact solver proved
the instance infeasible.

Each subcommand imports the modules it needs when it runs, so a process
compiles only those: ``gen`` never loads the solvers, ``learn`` only
``model_io`` and ``edr``, and only ``gen`` loads numpy.  Importing this
module loads no numpy, so :func:`entry`, the process entry point, can size
OpenBLAS's thread pool before it starts; it also turns the cyclic garbage
collector off for the command and freezes the heap before exiting, so
interpreter shutdown has nothing to collect.
"""

import argparse
import gc
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2

DEFAULT_GRID = "0.01,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with code 2 on usage errors; keep 2 reserved
    for proven infeasibility and report usage problems as input errors."""

    def error(self, message):
        from .model_io import InputError

        self.print_usage(sys.stderr)
        raise InputError(message)


def _items(text: str, option: str) -> list:
    """The comma-separated items of ``text``, stripped: none when every item
    is blank, else an error naming ``option`` and its text if any one is."""
    from .model_io import InputError

    items = [v.strip() for v in text.split(",")]
    if not any(items):
        return []
    if "" in items:
        raise InputError(f"{option} {text!r}: empty item")
    return items


def _parse_grid(text: str, option: str) -> tuple:
    """The :func:`~abfuse.model_io.unit_grid` of ``option``'s comma-separated
    ``text``; every error starts with the option and its text."""
    from .model_io import InputError, unit_grid

    items = _items(text, option)
    try:
        vals = list(map(float, items))
    except ValueError as exc:
        raise InputError(f"{option} {text!r}: {exc}") from exc
    return unit_grid(vals, f"{option} {text!r}")


def _load_obs(args):
    from .model_io import coverage_report, load_dataset, observations_from_dataset

    ds = load_dataset(args.manifest)
    obs = observations_from_dataset(ds, primary_iou=args.iou)
    report = coverage_report(obs)
    if report.uncovered:
        print(f"note: {report.n_uncovered} ground-truth objects have no "
              f"matched prediction", file=sys.stderr)
    return ds, obs


def _load_with_domain(args):
    """:func:`_load_obs` of a dataset with ground truth to score against,
    plus the domain of ``--domain-config`` or ``$ABFUSE_DOMAIN_CONFIG``,
    which must name every class the manifest declares, else all-pairs over
    those classes.  Pairs on a class the manifest lacks are dropped: none
    can be violated, nor count in the ``per_ground_rule`` normalizer."""
    from .deduction import IntegrityConstraintSet, default_domain, load_domain_config
    from .model_io import InputError

    ds, obs = _load_obs(args)
    if not len(ds.ground_truth):
        raise InputError("ground truth is empty")
    path = args.domain_config or os.environ.get("ABFUSE_DOMAIN_CONFIG")
    if not path:
        return ds, obs, default_domain(ds.classes)
    domain = load_domain_config(path)
    missing = [c for c in ds.classes if c not in domain.classes]
    if missing:
        raise InputError(f"{path}: 'classes' omits the dataset's classes {missing}")
    domain.ic = IntegrityConstraintSet(p for p in domain.ic.pairs if set(p) <= set(ds.classes))
    return ds, obs, domain


def _write_labels(path: str, obs, rows, sources: bool = False) -> None:
    """With ``sources``, each row's object, class and model ids and its
    confidence; without, each (object, class) atom of the rows once, in order."""
    from .model_io import json_numbers, json_strings, write_rows
    from .tiebreak import first_per_group

    def ids(universe, index):
        return map(json_strings(universe).__getitem__, map(index.__getitem__, rows))

    # keys in sorted order
    if sources:
        write_rows(path, '{"class_id": %s, "confidence": %s, "model_id": %s, '
                         '"object_id": %s}\n',
                   ids(obs.classes, obs.cls), json_numbers([obs.confidence[r] for r in rows]),
                   ids(obs.models, obs.model), ids(obs.objects, obs.obj))
    else:
        rows = list(map(rows.__getitem__, first_per_group(
            [obs.obj[r] * len(obs.classes) + obs.cls[r] for r in rows])))
        write_rows(path, '{"class_id": %s, "object_id": %s}\n',
                   ids(obs.classes, obs.cls), ids(obs.objects, obs.obj))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    from . import synthgen
    from .model_io import InputError

    if bool(args.preset) == bool(args.scenario):
        raise InputError("exactly one of --preset / --scenario is required")
    if args.preset:
        scenario = synthgen.preset(
            args.preset, n_models=6 if args.models is None else args.models,
            n_train=1000 if args.n_train is None else args.n_train,
            n_test=2000 if args.n_test is None else args.n_test,
            seed=0 if args.seed is None else args.seed)
    else:
        given = [f"--{k.replace('_', '-')}" for k in ("models", "n_train", "n_test")
                 if getattr(args, k) is not None]
        if given:
            raise InputError(f"{', '.join(given)} cannot be used with --scenario: "
                             "the scenario file sets the counts")
        scenario = synthgen.load_scenario(args.scenario, seed=args.seed)
    data = synthgen.generate(scenario)
    train_manifest, test_manifest = synthgen.write_dataset(data, args.out)
    print(train_manifest)
    print(test_manifest)
    return EXIT_OK


def cmd_learn(args) -> int:
    from .edr import learn_ruleset

    grid = _parse_grid(args.epsilon_grid, "--epsilon-grid")
    ds, obs = _load_obs(args)
    ruleset = learn_ruleset(obs, ds.labels(), epsilon_grid=grid)
    ruleset.save(args.out)
    print(f"wrote {len(ruleset.rules)} rules over {len(ruleset.epsilon_grid)} epsilon values "
          f"to {args.out}")
    return EXIT_OK


def cmd_abduce(args) -> int:
    from . import evaluation
    from .edr import RuleSet
    from .model_io import InputError, write_json

    if args.solver == "ip" and args.epsilon is None:
        raise InputError("--epsilon is required with --solver ip")
    other, value = (("--epsilon-set", args.epsilon_set) if args.solver == "ip"
                    else ("--epsilon", args.epsilon))
    if value is not None:
        raise InputError(f"{other} cannot be used with --solver {args.solver}")
    epsilons = (args.epsilon,) if args.solver == "ip" else None
    if args.epsilon_set is not None:
        epsilons = _parse_grid(args.epsilon_set, "--epsilon-set")
    ds, obs, domain = _load_with_domain(args)
    ruleset = RuleSet.load(args.rules)
    tb = args.tie_break == "on"

    (cell,) = evaluation.solver_cells(obs, ruleset, domain, epsilons or ruleset.epsilon_grid,
                                      (args.delta,), (args.solver,))
    rows, metrics = evaluation.score_cell(
        cell, obs, tb, evaluation.Truth.of(ds.labels(), obs.objects, obs.classes), domain)
    os.makedirs(args.out, exist_ok=True)
    if cell.status == "infeasible":
        print("infeasible: no acceptance set satisfies coverage within "
              f"the delta budget ({cell.budget})", file=sys.stderr)
        return EXIT_INFEASIBLE
    if cell.trace is not None:
        cell.trace.write(os.path.join(args.out, "trace.jsonl"))
    _write_labels(os.path.join(args.out, "labels.jsonl"), obs, rows, sources=tb)
    payload = {**vars(metrics), "status": "ok", "violation_budget": cell.budget}
    if args.solver == "ip":
        payload["nodes"] = cell.nodes
    write_json(os.path.join(args.out, "metrics.json"), payload, sort_keys=True)
    print(f"{args.solver}{'+tb' if tb else ''}: f1={metrics.f1:.4f} "
          f"precision={metrics.precision:.4f} recall={metrics.recall:.4f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import evaluation
    from .edr import RuleSet

    methods = evaluation.METHODS if args.methods is None else \
        tuple(_items(args.methods, "--methods"))
    delta_grid = _parse_grid(args.delta_grid, "--delta-grid")
    epsilon_grid = _parse_grid(args.epsilon_grid, "--epsilon-grid")
    ds, obs, domain = _load_with_domain(args)
    dataset = evaluation.SweepDataset(obs, ds.labels(), RuleSet.load(args.rules), domain,
                                      name=os.path.basename(args.manifest))
    result = evaluation.run_sweep(
        dataset, methods, delta_grid=delta_grid, epsilon_grid=epsilon_grid,
        repeats=args.repeats, jobs=args.jobs, timing=not args.no_timing)
    result.to_csv(args.out)
    result.write_manifest(args.out + ".manifest.json")
    print(f"wrote {len(result.cells)} rows to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evaluation
    from .model_io import InputError, read_jsonl, write_json

    ds, obs, domain = _load_with_domain(args)
    atoms = set()
    for lineno, rec in read_jsonl(args.labels):
        try:
            atoms.add((str(rec["class_id"]), str(rec["object_id"])))
        except KeyError as exc:
            raise InputError(f"{args.labels}:{lineno}: bad label record: {exc}") from exc
    metrics = evaluation.score_atoms(atoms, ds.labels(), domain=domain,
                                     n_objects=len(obs.objects))
    write_json(args.out, {**vars(metrics), "status": "ok"}, sort_keys=True)
    print(f"f1={metrics.f1:.4f} precision={metrics.precision:.4f} "
          f"recall={metrics.recall:.4f} accuracy={metrics.accuracy:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    from . import evaluation
    from .model_io import write_json

    ds, obs, domain = _load_with_domain(args)
    os.makedirs(args.out, exist_ok=True)
    truth = evaluation.Truth.of(ds.labels(), obs.objects, obs.classes)
    ((_, metrics, detail),) = evaluation.baseline_cells(obs, truth, domain, (args.method,))
    if args.method == "mv":
        _write_labels(os.path.join(args.out, "labels.jsonl"), obs, detail)
    payload = {**vars(metrics), "status": "ok"}
    if args.method == "best":
        payload["model_id"] = detail
    write_json(os.path.join(args.out, "metrics.json"), payload, sort_keys=True)
    print(f"{args.method}: f1={metrics.f1:.4f} accuracy={metrics.accuracy:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="abfuse",
                description="Fuse predictions from multiple perception models.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--preset", help="scenario template such as UM_1 or MM_2 "
                                    "(an unknown name lists the families)")
    g.add_argument("--scenario", help="scenario config JSON file")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--models", type=int, default=None)
    g.add_argument("--n-train", type=int, default=None)
    g.add_argument("--n-test", type=int, default=None)
    g.set_defaults(fn=cmd_gen)

    def dataset_args(sp, domain=True, rules=False):
        sp.add_argument("--manifest", required=True, help="dataset manifest JSON")
        sp.add_argument("--iou", type=float, default=0.90,
                        help="primary matching overlap threshold")
        if domain:
            sp.add_argument("--domain-config", default=None,
                            help="class/exclusion config JSON (default: "
                                 "$ABFUSE_DOMAIN_CONFIG if set, else all-pairs)")
        if rules:
            sp.add_argument("--rules", required=True, help="learned rules JSONL")

    l = sub.add_parser("learn", help="learn error-detection rules")
    dataset_args(l, domain=False)
    l.add_argument("--epsilon-grid", default=DEFAULT_GRID)
    l.add_argument("--out", required=True, help="output rules JSONL")
    l.set_defaults(fn=cmd_learn)

    a = sub.add_parser("abduce", help="fuse one dataset")
    dataset_args(a, rules=True)
    a.add_argument("--solver", choices=("ip", "hs"), required=True)
    a.add_argument("--delta", type=float, required=True,
                   help="inconsistency budget in [0, 1]")
    a.add_argument("--epsilon", type=float, default=None,
                   help="filter strength for --solver ip")
    a.add_argument("--epsilon-set", default=None,
                   help="comma-separated strengths for --solver hs "
                        "(default: the rules' grid)")
    a.add_argument("--tie-break", choices=("on", "off"), default="on")
    a.add_argument("--out", required=True, help="output directory")
    a.set_defaults(fn=cmd_abduce)

    s = sub.add_parser("sweep", help="evaluate methods over a (delta, epsilon) grid")
    dataset_args(s, rules=True)
    s.add_argument("--methods", default=None,
                   help="comma-separated methods (default: every method)")
    s.add_argument("--delta-grid", default=DEFAULT_GRID)
    s.add_argument("--epsilon-grid", default=DEFAULT_GRID)
    s.add_argument("--repeats", type=int, default=1)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--no-timing", action="store_true",
                   help="zero the runtime column for reproducible bytes")
    s.add_argument("--out", required=True, help="output CSV path")
    s.set_defaults(fn=cmd_sweep)

    e = sub.add_parser("eval", help="score a labels.jsonl file")
    dataset_args(e)
    e.add_argument("--labels", required=True)
    e.add_argument("--out", required=True, help="output metrics JSON")
    e.set_defaults(fn=cmd_eval)

    b = sub.add_parser("baseline", help="run a reference method")
    dataset_args(b)
    b.add_argument("--method", choices=("mv", "best", "avg"), required=True)
    b.add_argument("--out", required=True, help="output directory")
    b.set_defaults(fn=cmd_baseline)
    return p


def main(argv=None) -> int:
    from .model_io import InputError

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    """Run the command named by ``sys.argv`` and exit the process with its
    code.

    Before numpy loads, OpenBLAS is limited to one thread unless
    ``OPENBLAS_NUM_THREADS`` is already set: abfuse makes no BLAS call, and
    the workers OpenBLAS would otherwise start, one per further core,
    spin-wait through the rest of numpy's import.  The cyclic garbage
    collector is off: a command's objects live until it ends, so its
    passes would only traverse them.  Sweep workers inherit both
    settings.  The heap is frozen before exiting, so the full collections
    of interpreter shutdown have nothing to traverse.  In-process
    :func:`main` calls leave the environment and the collector as they
    found them."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
