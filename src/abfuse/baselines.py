"""Reference fusion baselines."""

from typing import Dict, Mapping

from .model_io import ObservationSet


def majority_vote(obs: ObservationSet) -> Dict[str, str]:
    """Modal predicted class per object over the raw observations.

    Vote ties go to the class whose strongest supporting prediction has the
    higher confidence; remaining ties prefer the smaller supporting model
    id, then the smaller class id.
    """
    per_object: dict = {}
    for e in obs.entries:
        per_object.setdefault(e.object_id, []).append(e)
    out = {}
    for obj, group in per_object.items():
        stats: dict = {}  # class -> [votes, best_conf, best_model]
        for e in group:
            st = stats.setdefault(e.class_id, [0, -1.0, ""])
            st[0] += 1
            if e.confidence > st[1] or (e.confidence == st[1] and e.model_id < st[2]):
                st[1] = e.confidence
                st[2] = e.model_id
        out[obj] = min(stats,
                       key=lambda c: (-stats[c][0], -stats[c][1], stats[c][2], c))
    return out


def best_individual(per_model_metrics: Mapping[str, "Metrics"]) -> str:
    """Model id with the best F1; accuracy breaks ties, then model id."""
    if not per_model_metrics:
        raise ValueError("no models to choose from")
    return min(per_model_metrics,
               key=lambda m: (-per_model_metrics[m].f1,
                              -per_model_metrics[m].accuracy, m))


def average_models(per_model_metrics: Mapping[str, "Metrics"]):
    """Unweighted arithmetic mean of each metric across models."""
    from .evaluation import Metrics

    if not per_model_metrics:
        raise ValueError("no models to average")
    ms = list(per_model_metrics.values())
    n = len(ms)
    return Metrics(
        precision=sum(m.precision for m in ms) / n,
        recall=sum(m.recall for m in ms) / n,
        f1=sum(m.f1 for m in ms) / n,
        accuracy=sum(m.accuracy for m in ms) / n,
        inconsistency=sum(m.inconsistency for m in ms) / n,
        runtime_per_object=sum(m.runtime_per_object for m in ms) / n,
        n_objects=int(round(sum(m.n_objects for m in ms) / n)),
        violations=int(round(sum(m.violations for m in ms) / n)),
    )
