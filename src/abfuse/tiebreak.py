"""Confidence tie-breaking: reduce multi-class assignments to one label.

Objects that end up with several accepted classes keep the class whose
supporting prediction has the highest confidence.  Exact confidence ties go
to the smaller model id, then the smaller class id, so the reduction is a
deterministic pure function of its input.
"""

from typing import Dict, Iterable, Tuple

import numpy as np

from .model_io import Observation, ObservationSet

Candidate = Tuple[str, str, str, float]  # (object_id, class_id, model_id, confidence)


def apply_tiebreaker(candidates: Iterable[Candidate]) -> Dict[str, Tuple[str, str, float]]:
    """Pick one (class, model, confidence) per object, highest confidence first."""
    best: Dict[str, Tuple] = {}
    for obj, cls, model, conf in candidates:
        key = (-float(conf), model, cls)
        if obj not in best or key < best[obj][0]:
            best[obj] = (key, cls, model, float(conf))
    return {obj: (cls, model, conf) for obj, (_, cls, model, conf) in best.items()}


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
    v = obs.view
    # per (class, object) cell, the first row by (-confidence, model index);
    # the view's models are sorted, so that is the smaller model id
    cell = v.cls * len(v.objects) + v.obj
    order = np.lexsort((v.model, -v.confidence, cell))
    first = order[np.diff(cell[order], prepend=-1) != 0]
    best = dict(zip(cell[first].tolist(), v.entries[first].tolist()))
    cls_at = {c: i for i, c in enumerate(v.classes)}
    obj_at = {o: i for i, o in enumerate(v.objects)}
    out = []
    for cls, obj in atoms:
        if cls in cls_at and obj in obj_at:
            e = best.get(cls_at[cls] * len(v.objects) + obj_at[obj])
            if e is not None:
                out.append((obj, cls, e.model_id, e.confidence))
    return out
