"""Mutual-exclusion constraints and the inconsistency measures over them.

The paper's deductive closure takes an observation set, a hypothesis saying
which (model, class) pairs are accepted, and a set of mutually-exclusive
class pairs, and derives:

* assignment atoms ``(class_id, object_id)`` — an object is assigned every
  class some accepted, non-error prediction gives it;
* error atoms for predictions whose (model, class) pair was rejected;
* violated ground rules ``(object_id, (class_a, class_b))`` where both
  classes of an exclusion pair got assigned to the same object.

The solvers compute that closure in bulk over per-class object bitsets; ``tests/oracles.py``
keeps a per-entry statement of it (``fixpoint``).  This module holds what
they share: the constraint set with its one class-index form
(:meth:`IntegrityConstraintSet.index_pairs`), the violated ground rules
(:func:`count_violations` on a per-class coverage,
:func:`find_violations` on atoms) and the inconsistency score Inc, which
normalizes the violation count in one of two modes.  Both solvers accept a
selection iff its raw count of violated ground rules is at most
:func:`violation_budget`, and every Inc score, the greedy trace's included,
comes from :func:`inc_from_count`.  The one intended difference between
them: the exact solver keeps every coverable object covered, while the
greedy search may leave an object without any assignment.
"""

import math
from typing import Iterable, Optional, Sequence, Tuple

from .model_io import DEFAULT_CLASSES, InputError, read_json

NORMALIZER_MODES = ("per_object", "per_ground_rule")

# guards against float dust in delta * n products (e.g. 0.3 * 10)
_FLOOR_EPS = 1e-9


def _canon_pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class IntegrityConstraintSet:
    """Unordered mutually-exclusive class pairs, held in ``pairs`` in
    sorted order, each as (smaller, larger) class id."""

    def __init__(self, pairs: Iterable[Tuple[str, str]]):
        canon = set()
        for a, b in pairs:
            if a == b:
                raise InputError(f"exclusion pair with identical classes: {a!r}")
            canon.add(_canon_pair(a, b))
        self.pairs = tuple(sorted(canon))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegrityConstraintSet) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    @classmethod
    def all_pairs(cls, classes: Iterable[str]) -> "IntegrityConstraintSet":
        cs = sorted(set(classes))
        return cls(tuple((a, b) for i, a in enumerate(cs) for b in cs[i + 1:]))

    def __len__(self):
        return len(self.pairs)

    def check_within(self, classes: Sequence[str]) -> None:
        """Reject a pair naming a class outside ``classes``."""
        for a, b in self.pairs:
            if a not in classes or b not in classes:
                raise InputError(f"exclusion pair ({a!r}, {b!r}) outside the class universe")

    def index_pairs(self, classes: Sequence[str]) -> list:
        """The pairs as ``(i, j)`` indices into ``classes``, in ``pairs``
        order; a pair naming a class outside ``classes`` is an error."""
        self.check_within(classes)
        at = {c: i for i, c in enumerate(classes)}
        return [(at[a], at[b]) for a, b in self.pairs]


def find_violations(assigned: Iterable[Tuple[str, str]],
                    ic: IntegrityConstraintSet) -> frozenset:
    """Ground rules violated by a set of (class_id, object_id) atoms."""
    atoms = set(assigned)
    return frozenset((w, (a, b)) for c, w in atoms for a, b in ic.pairs
                     if c == a and (b, w) in atoms)


def count_violations(cov: list, classes, ic: IntegrityConstraintSet) -> int:
    """Ground rules violated by a coverage: ``cov[c]`` is the set of objects
    carrying ``classes[c]``, as an int bitset."""
    return sum((cov[a] & cov[b]).bit_count() for a, b in ic.index_pairs(classes))


def _normalizer(n_objects: int, ic: IntegrityConstraintSet, normalizer_mode: str,
                directed_ground_rules: bool) -> Tuple[int, int]:
    """The units one (undirected) violated ground rule counts for, and the
    count of units Inc divides by: the observed objects under
    ``per_object``, every ground rule (objects x exclusion pairs, in those
    units) under ``per_ground_rule``."""
    if normalizer_mode not in NORMALIZER_MODES:
        raise InputError(f"unknown normalizer_mode {normalizer_mode!r}")
    weight = 2 if directed_ground_rules else 1
    return weight, n_objects if normalizer_mode == "per_object" else n_objects * len(ic) * weight


def inc_from_count(n_violations: int,
                   n_objects: int,
                   ic: IntegrityConstraintSet,
                   normalizer_mode: str = "per_object",
                   directed_ground_rules: bool = False) -> float:
    """Normalized inconsistency of ``n_violations`` (undirected) violated
    ground rules.

    ``per_object`` divides by the number of observed objects and clamps to
    [0, 1]; ``per_ground_rule`` divides by the total number of ground rules
    (objects x exclusion pairs).  With ``directed_ground_rules`` each
    unordered violation counts twice, as do the ``per_ground_rule``
    denominator's rules, so only ``per_object`` scores actually change.
    """
    weight, denom = _normalizer(n_objects, ic, normalizer_mode, directed_ground_rules)
    if not denom:
        return 0.0
    inc = n_violations * weight / denom
    return min(1.0, inc) if normalizer_mode == "per_object" else inc


def violation_budget(delta: float,
                     n_objects: int,
                     ic: IntegrityConstraintSet,
                     normalizer_mode: str = "per_object",
                     directed_ground_rules: bool = False) -> int:
    """Largest number of (undirected) violated ground rules with Inc <= delta.

    This is the single source of truth for turning the real-valued budget
    into an integer count, and the one range check of ``delta``, shared by
    the exact solver and the greedy search: both accept a selection iff its
    violation count is at most this.
    """
    weight, denom = _normalizer(n_objects, ic, normalizer_mode, directed_ground_rules)
    if not (0.0 <= delta <= 1.0):
        raise InputError(f"delta must be in [0, 1]: {delta!r}")
    return math.floor(delta * denom + _FLOOR_EPS) // weight


# ---------------------------------------------------------------------------
# domain configuration


class DomainConfig:
    """The classes, their exclusion pairs and how Inc normalizes."""

    def __init__(self, classes: Tuple[str, ...], ic: IntegrityConstraintSet,
                 normalizer_mode: str = "per_object", directed_ground_rules: bool = False):
        if normalizer_mode not in NORMALIZER_MODES:
            raise InputError(f"unknown normalizer_mode {normalizer_mode!r}")
        ic.check_within(classes)
        self.classes, self.ic = classes, ic
        self.normalizer_mode, self.directed_ground_rules = normalizer_mode, directed_ground_rules

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainConfig) and vars(self) == vars(other)


def default_domain(classes: Optional[Iterable[str]] = None) -> DomainConfig:
    cs = tuple(sorted(set(classes))) if classes is not None else DEFAULT_CLASSES
    return DomainConfig(cs, IntegrityConstraintSet.all_pairs(cs))


def load_domain_config(path: str) -> DomainConfig:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "classes" not in raw:
        raise InputError(f"{path}: missing field 'classes'")
    classes = raw["classes"]
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
        raise InputError(f"{path}: 'classes' must be a list of strings")
    for key in ("all_pairs", "directed_ground_rules"):
        if not isinstance(raw.get(key, False), bool):
            raise InputError(f"{path}: {key!r} must be true or false")
    if raw.get("all_pairs", False) or "ic_pairs" not in raw:
        ic = IntegrityConstraintSet.all_pairs(classes)
    else:
        pairs = raw["ic_pairs"]
        if not (isinstance(pairs, list) and all(
                isinstance(p, list) and len(p) == 2 and all(isinstance(c, str) for c in p)
                for p in pairs)):
            raise InputError(f"{path}: 'ic_pairs' must be a list of [class, class] pairs")
        ic = IntegrityConstraintSet(tuple((a, b) for a, b in pairs))
    return DomainConfig(
        classes=tuple(classes),
        ic=ic,
        normalizer_mode=raw.get("normalizer_mode", "per_object"),
        directed_ground_rules=raw.get("directed_ground_rules", False),
    )
