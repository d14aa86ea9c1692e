"""Confidence tie-breaking: reduce multi-class assignments to one label.

Objects that end up with several accepted classes keep the class whose
supporting prediction has the highest confidence.  Exact confidence ties go
to the smaller model id, then the smaller class id, so the reduction is a
deterministic pure function of its input.

:func:`resolve` reduces rows of an observation set with one stable sort;
:func:`apply_tiebreaker` runs the same reduction on candidate tuples.
"""

from typing import Dict, Iterable, Sequence, Tuple

from .model_io import Observation, ObservationSet, index_of

Candidate = Tuple[str, str, str, float]  # (object_id, class_id, model_id, confidence)


def first_per_group(group: Sequence[int], *keys: Sequence) -> list:
    """Position of each group's lexicographic minimum of ``keys``, the
    earlier position on ties, in ascending group order: one stable sort per
    key, the first key last; in reverse, a group's first position is its last."""
    order = list(range(len(group)))
    for key in reversed(keys):
        order.sort(key=key.__getitem__)
    first = dict(zip(map(group.__getitem__, reversed(order)), reversed(order)))
    return list(map(first.__getitem__, sorted(first)))


def resolve(obs: ObservationSet, rows: list) -> list:
    """The winning row per object among the ascending ``rows`` of ``obs``,
    ascending object.  Rows run in (model, class, object) order over sorted
    ids, so a stable sort by confidence of the reversed rows leaves each
    object's winner last, exact ties to the smaller model id, then class id."""
    order = sorted(rows[::-1], key=obs.confidence.__getitem__)
    best = dict(zip(map(obs.obj.__getitem__, order), order))
    return list(map(best.__getitem__, sorted(best)))


def apply_tiebreaker(candidates: Iterable[Candidate]) -> Dict[str, Tuple[str, str, float]]:
    """Pick one (class, model, confidence) per object, highest confidence first."""
    cands = list(candidates)
    obj, cls, model, conf = zip(*cands) if cands else ((),) * 4
    # each id as its rank among the distinct ids, which orders like the ids
    obj, cls, model = (index_of(sorted(set(ids)), ids, "id") for ids in (obj, cls, model))
    first = first_per_group(obj, [-float(c) for c in conf], model, cls)
    return {cands[i][0]: (cands[i][1], cands[i][2], float(cands[i][3])) for i in first}


def labels_only(resolved: Dict[str, Tuple[str, str, float]]) -> Dict[str, str]:
    return {obj: cls for obj, (cls, _, _) in resolved.items()}


def candidates_from_entries(entries: Iterable[Observation]) -> list:
    """Tie-break candidates straight from accepted prediction entries."""
    return [(e.object_id, e.class_id, e.model_id, e.confidence) for e in entries]


def candidates_from_atoms(atoms: Iterable[Tuple[str, str]],
                          obs: ObservationSet) -> list:
    """Tie-break candidates for assignment atoms ``(class_id, object_id)``,
    in the order of ``atoms``.

    Each atom is backed by the strongest surviving prediction of that class
    for that object (smaller model id on exact confidence ties).
    """
    rows = first_per_group([c * len(obs.objects) + w for c, w in zip(obs.cls, obs.obj)],
                           [-c for c in obs.confidence], obs.model)
    best = {(obs.classes[obs.cls[r]], obs.objects[obs.obj[r]]):
            (obs.models[obs.model[r]], float(obs.confidence[r])) for r in rows}
    return [(obj, cls, *best[cls, obj]) for cls, obj in atoms if (cls, obj) in best]
