"""Run one ``abfuse`` CLI command with span tracing around each layer.

    PYTHONPATH=src python perfbench/tracer.py SPANS_JSON -- abduce --manifest ...

The command runs in this process as ``abfuse.cli.main(argv)``.  Before it
starts, the public functions of ``model_io``, ``edr``, ``solver_hs``,
``solver_ip``, ``kernels``, ``tiebreak``, ``evaluation``, ``baselines`` and
``synthgen`` are replaced by wrappers in every ``abfuse`` module namespace
that holds them, so callers that imported a name directly see the wrapper
too.  Nothing in the package itself is modified on disk.

Each wrapper records a span (name, start, end, parent) in memory.  Counts
and output checks, including the ``deduction.violation_budget`` check of
every solver selection, run after the wrapped call returns, inside a
``bench.check`` span, so they are kept out of the layer they inspect.  Spans,
counts and check findings are written to SPANS_JSON when the command ends;
the exit code is the command's own.
"""

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

CHECK_SPAN = "bench.check"


class Recorder:
    """In-memory span stack plus counters and check findings."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent_index]
        self._stack = []
        self.counts = Counter()
        self.problems = []

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(bound_args, result)`` runs in a
        separate check span once the call has returned."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                cidx = self._enter(CHECK_SPAN)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, out)
                finally:
                    self._exit(cidx)
            return out

        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts),
                "problems": self.problems}


def _replace_everywhere(original, wrapper):
    """Point every abfuse module attribute bound to ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "abfuse" or modname.startswith("abfuse.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec):
    """Patch the layer boundaries with span wrappers that feed ``rec``."""
    from abfuse import (baselines, deduction, edr, evaluation, kernels,
                        model_io, solver_hs, solver_ip, synthgen, tiebreak)

    violation_budget = deduction.violation_budget
    find_violations = deduction.find_violations
    audit_solution = solver_ip.audit_solution

    def after_match(a, out):
        rec.counts["model_io.detections"] += len(a["detections"])
        rec.counts["model_io.entries"] += len(out.entries)

    def after_coverage(a, out):
        rec.counts["model_io.uncovered"] += out.n_uncovered

    def after_apply(a, out):
        rec.counts["edr.apply_calls"] += 1
        rec.counts["edr.apply_entries"] += len(a["obs"].entries)
        rec.counts["edr.apply_flagged"] += len(out[1])

    def after_hs(a, out):
        rec.counts["solver_hs.calls"] += 1
        ic = a["ic"]
        budget = violation_budget(a["config"].delta, len(a["p_raw"].objects), ic,
                                  a["normalizer_mode"], a["directed_ground_rules"])
        raw = len(find_violations(out.atoms(), ic))
        rec.counts["deduction.budget"] += budget
        rec.counts["deduction.raw_violations"] += raw
        if raw > budget:
            rec.problems.append(f"greedy selection at delta={a['config'].delta} has "
                                f"{raw} raw violations, budget {budget}")

    def after_union_stats(a, out):
        rec.counts["kernels.union_stats_calls"] += 1

    def after_bnb(a, out):
        rec.counts["kernels.bnb_nodes"] += out[4]

    def after_ip_solve(a, out):
        inst = a["instance"]
        rec.counts["solver_ip.solves"] += 1
        rec.counts["solver_ip.branch_vars"] += int((inst.pred.sum(axis=2) > 0).sum())
        if out.status != solver_ip.STATUS_OPTIMAL:
            rec.counts["solver_ip.infeasible"] += 1
            return
        budget = violation_budget(inst.delta, len(inst.objects), inst.ic,
                                  inst.normalizer_mode, inst.directed_ground_rules)
        raw = out.n_violations()
        rec.counts["deduction.budget"] += budget
        rec.counts["deduction.raw_violations"] += raw
        if raw > budget:
            rec.problems.append(f"exact selection at delta={inst.delta} has "
                                f"{raw} raw violations, budget {budget}")
        for finding in audit_solution(inst, out):
            rec.problems.append(f"audit at delta={inst.delta}: {finding}")

    def after_tiebreak(a, out):
        classes = {}
        for obj, cls, _, _ in a["candidates"]:
            classes.setdefault(obj, set()).add(cls)
        rec.counts["tiebreak.multi_label_objects"] += sum(
            1 for s in classes.values() if len(s) > 1)

    def after_score(a, out):
        rec.counts["evaluation.score_calls"] += 1

    layers = [
        (model_io, "load_dataset", None),
        (model_io, "match_detections", after_match),
        (model_io, "coverage_report", after_coverage),
        (edr, "learn_ruleset", None),
        (edr, "apply_rules", after_apply),
        (solver_hs, "heuristic_search", after_hs),
        (kernels, "union_stats", after_union_stats),
        (kernels, "commit_atoms", None),
        (kernels, "bnb_search", after_bnb),
        (solver_ip, "build_instance", None),
        (solver_ip, "solve", after_ip_solve),
        (tiebreak, "apply_tiebreaker", after_tiebreak),
        (tiebreak, "candidates_from_atoms", None),
        (tiebreak, "candidates_from_entries", None),
        (tiebreak, "labels_only", None),
        (evaluation, "score", after_score),
        (evaluation, "run_sweep", None),
        (baselines, "majority_vote", None),
        (baselines, "best_individual", None),
        (baselines, "average_models", None),
        (synthgen, "write_dataset", None),
    ]
    for mod, attr, after in layers:
        original = getattr(mod, attr)
        short = mod.__name__.rsplit(".", 1)[-1]
        _replace_everywhere(original, rec.wrap(f"{short}.{attr}", original, after))

    fp = evaluation.SweepDataset.fingerprint
    evaluation.SweepDataset.fingerprint = rec.wrap("evaluation.fingerprint", fp)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <abfuse command and options>",
              file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], argv[2:]
    import abfuse.cli

    t_imported = time.perf_counter()
    rec = Recorder()
    install(rec)
    try:
        rc = abfuse.cli.main(cli_argv)
    finally:
        payload = rec.dump()
        payload["import_s"] = t_imported - T_START
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
