"""Turn the span files written by ``tracer.py`` into per-layer metrics."""

from collections import Counter

from tracer import CHECK_SPAN

# metric name -> (unit, better); the order is the order they are printed in
LAYER_METRICS = {
    "model_io.load_s": ("s", "lower"),
    "model_io.match_s": ("s", "lower"),
    "model_io.detections": ("count", "lower"),
    "model_io.entries": ("count", "higher"),
    "model_io.uncovered": ("count", "lower"),
    "edr.apply_s": ("s", "lower"),
    "edr.apply_calls": ("count", "lower"),
    "edr.flagged_ratio": ("ratio", "lower"),
    "edr.learn_s": ("s", "lower"),
    "solver_hs.search_s": ("s", "lower"),
    "solver_hs.self_s": ("s", "lower"),
    "solver_hs.calls": ("count", "lower"),
    "kernels.union_stats_s": ("s", "lower"),
    "kernels.union_stats_calls": ("count", "lower"),
    "kernels.bnb_search_s": ("s", "lower"),
    "kernels.bnb_nodes": ("count", "lower"),
    "kernels.us_per_node": ("us", "lower"),
    "solver_ip.build_s": ("s", "lower"),
    "solver_ip.solve_s": ("s", "lower"),
    "solver_ip.self_s": ("s", "lower"),
    "solver_ip.branch_vars": ("count", "lower"),
    "solver_ip.infeasible": ("count", "lower"),
    "tiebreak.s": ("s", "lower"),
    "tiebreak.multi_label_objects": ("count", "lower"),
    "evaluation.score_s": ("s", "lower"),
    "evaluation.score_calls": ("count", "lower"),
    "evaluation.fingerprint_s": ("s", "lower"),
    "baselines.s": ("s", "lower"),
    "deduction.raw_violations": ("count", "lower"),
    "deduction.budget": ("count", "higher"),
    "synthgen.write_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.other_s": ("s", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly from job to job and run to run
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items() if unit == "count")


def span_times(payload):
    """Per-name totals of a span file.

    Returns ``(net, self_time, top, checks)``: ``net`` is each name's total
    duration minus the check spans nested under it, ``self_time`` subtracts
    every child span, ``top`` sums the spans with no parent and ``checks``
    sums all check spans.
    """
    spans = payload["spans"]
    dur = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    checks_below = [0.0] * len(spans)
    # children are appended after their parent, so one backward pass suffices
    for i in range(len(spans) - 1, -1, -1):
        name, _, _, parent = spans[i]
        if parent >= 0:
            children[parent] += dur[i]
            checks_below[parent] += checks_below[i] + (dur[i] if name == CHECK_SPAN else 0.0)
    net, self_time = Counter(), Counter()
    top = checks = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        net[name] += dur[i] - checks_below[i]
        self_time[name] += dur[i] - children[i]
        if parent < 0:
            top += dur[i]
        if name == CHECK_SPAN:
            checks += dur[i]
    return net, self_time, top, checks


def job_layers(payload, wall):
    """Per-layer metrics of one traced CLI job whose wall time was ``wall``."""
    net, self_time, top, checks = span_times(payload)
    counts = payload["counts"]

    def total(prefix):
        return sum(v for k, v in net.items() if k.startswith(prefix))

    nodes = counts.get("kernels.bnb_nodes", 0)
    entries = counts.get("edr.apply_entries", 0)
    out = {
        "model_io.load_s": net["model_io.load_dataset"],
        "model_io.match_s": net["model_io.match_detections"],
        "edr.apply_s": net["edr.apply_rules"],
        "edr.flagged_ratio": counts.get("edr.apply_flagged", 0) / entries if entries else 0.0,
        "solver_hs.search_s": net["solver_hs.heuristic_search"],
        "solver_hs.self_s": self_time["solver_hs.heuristic_search"],
        "kernels.union_stats_s": net["kernels.union_stats"],
        "kernels.bnb_search_s": net["kernels.bnb_search"],
        "kernels.us_per_node": 1e6 * net["kernels.bnb_search"] / nodes if nodes else 0.0,
        "solver_ip.build_s": net["solver_ip.build_instance"],
        "solver_ip.solve_s": net["solver_ip.solve"],
        "solver_ip.self_s": self_time["solver_ip.solve"],
        "tiebreak.s": total("tiebreak."),
        "evaluation.score_s": net["evaluation.score"],
        "evaluation.fingerprint_s": net["evaluation.fingerprint"],
        "baselines.s": total("baselines."),
        "cli.import_s": payload["import_s"],
        "cli.other_s": wall - payload["import_s"] - top,
        "trace.job_s": wall,
        "wall_without_checks_s": wall - checks,
    }
    for k in COUNT_METRICS:
        out[k] = counts.get(k, 0)
    return out


def setup_layers(payloads):
    """Set-up layer times from the traced ``gen`` and ``learn`` commands."""
    out = {"synthgen.write_s": 0.0, "edr.learn_s": 0.0}
    for payload in payloads:
        net = span_times(payload)[0]
        out["synthgen.write_s"] += net["synthgen.write_dataset"]
        out["edr.learn_s"] += net["edr.learn_ruleset"]
    return out
