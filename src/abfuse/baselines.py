"""Reference fusion baselines."""

from collections import Counter
from typing import Mapping

from .model_io import ObservationSet
from .tiebreak import first_per_group


def majority_vote(obs: ObservationSet) -> list:
    """Modal predicted class per object over the raw observations, as the
    ``obs`` row of that class's strongest prediction, one per object
    with a prediction, ascending object.

    Vote ties go to the class whose strongest supporting prediction has the
    higher confidence; remaining ties prefer the smaller supporting model
    id, then the smaller class id.
    """
    cell = [w * len(obs.classes) + c for w, c in zip(obs.obj, obs.cls)]
    votes = Counter(cell)
    # a class's best row has its votes and its strongest confidence; rows run
    # in (model, class) order within an object, so ties keep that order
    return first_per_group(obs.obj, [-votes[k] for k in cell], [-c for c in obs.confidence])


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
    mean = {k: sum(getattr(m, k) for m in ms) / len(ms) for k in vars(ms[0])}
    for k in ("n_objects", "violations"):
        mean[k] = int(round(mean[k]))
    return Metrics(**mean)
