"""Shared fixtures and the frozen random-instance generator.

The acceptance tests exercise a fixed family of small fusion instances
(seeds 1000-1219).  Any change to `random_instance` silently changes that
family, so treat its draw order as frozen.
"""

import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import Phase, settings

from abfuse import solver_ip
from abfuse.deduction import IntegrityConstraintSet
from abfuse.edr import RuleSet, apply_rules
from abfuse.model_io import Observation, members
from oracles import det_table, gt_table, observation_set

# HYPOTHESIS_PROFILE=ci runs 5x the examples in tests that do not pin
# max_examples themselves, and reports the first falsifying example without
# shrinking it: a failing property test on wide scenes spends minutes there
settings.register_profile("ci", max_examples=5 * settings.get_profile("default").max_examples,
                          phases=tuple(p for p in Phase if p is not Phase.shrink))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

DELTA_GRID = (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
SHARED_SEEDS = tuple(range(1000, 1220))


def obs_of(rows, **universes):
    """Build an ObservationSet from (object, model, class, confidence) rows."""
    return observation_set([Observation(*r) for r in rows], **universes)


def row_labels(obs, rows):
    """{object_id: class_id} of the rows ``rows`` of ``obs``."""
    return {obs.objects[obs.obj[r]]: obs.classes[obs.cls[r]] for r in rows}


def cell_ids(sets, rows, cols):
    """The ``(rows[i], cols[j])`` id pairs for each member ``j`` of the int
    bitset ``sets[i]``."""
    return frozenset((rows[i], cols[j]) for i, b in enumerate(sets) for j in members(b))


def assigned_atoms(sol):
    """The ``(class_id, object_id)`` atoms an exact solution covers."""
    return cell_ids(sol.covered, sol.instance.classes, sol.instance.objects)


def pairs_with_bit(sol, bit):
    """The ``(model_id, class_id)`` pairs whose elimination bit is ``bit``."""
    models, classes = sol.instance.models, sol.instance.classes
    return frozenset((models[f], classes[c]) for f, row in enumerate(sol.eliminated)
                     for c, e in enumerate(row) if e == bit)


def accepted_pairs(sol):
    """The ``(model_id, class_id)`` pairs an exact solution keeps."""
    return pairs_with_bit(sol, 0)


def eliminated_pairs(sol):
    """The ``(model_id, class_id)`` pairs an exact solution eliminates."""
    return pairs_with_bit(sol, 1)


def obs_atoms(obs):
    """The distinct ``(class_id, object_id)`` atoms of an observation set."""
    return cell_ids(obs.coverage(range(len(obs.obj))), obs.classes, obs.objects)


def columns(obs):
    """The universes and rows of an observation set: two sets hold the same
    observations when these are equal."""
    return obs.models, obs.objects, obs.classes, obs.model, obs.obj, obs.cls, obs.confidence


def rule_fields(rule):
    """Each condition of ``rule`` as its ``(kind, model, threshold)``."""
    return tuple((c.kind, c.model, c.threshold) for c in rule)


def ruleset_fields(ruleset):
    """``ruleset.rules`` with each rule as its :func:`rule_fields`."""
    return {key: rule_fields(rule) for key, rule in ruleset.rules.items()}


def cell_fields(cells):
    """Sweep cells, each with its metrics as their attribute dict."""
    return [c._replace(metrics=vars(c.metrics)) for c in cells]


def tables(gt, dets):
    """Matcher inputs: the column tables of ground-truth and detection records."""
    return gt_table(gt), det_table(dets)


def empty_rules(grid=(0.5,)):
    """A RuleSet whose every rule is empty: filtering is the identity."""
    return RuleSet(tuple(grid))


def survivors(obs, ruleset, epsilons):
    """Each epsilon's :func:`apply_rules` filter of ``obs``: the ``survivors``
    input of :func:`abfuse.solver_hs.heuristic_search`."""
    return {e: apply_rules(obs, ruleset, e) for e in epsilons}


def random_instance(seed):
    """One small random fusion problem; the draw order is frozen (see module
    docstring).

    Returns (obs, ic, delta, normalizer_mode, directed).
    """
    rng = random.Random(seed)
    n_models, n_classes, n_objects = (rng.randint(1, 3), rng.randint(2, 3),
                                      rng.randint(2, 8))
    models = [f"f{i}" for i in range(n_models)]
    classes = list(("A", "B", "C")[:n_classes])
    objs = [f"o{i}" for i in range(n_objects)]
    entries = [Observation(w, f, rng.choice(classes), round(rng.random(), 3))
               for f in models for w in objs if rng.random() < 0.75]
    obs = observation_set(entries, objects=objs, models=models, classes=classes)
    all_pairs = list(itertools.combinations(classes, 2))
    ic = IntegrityConstraintSet(
        tuple(rng.sample(all_pairs, rng.randint(0, len(all_pairs)))))
    delta = rng.choice(DELTA_GRID)
    mode = rng.choice(("per_object", "per_ground_rule"))
    directed = rng.random() < 0.3
    return obs, ic, delta, mode, directed


@pytest.fixture(scope="session")
def shared_instances():
    """The frozen instance family used by the exactness/audit/feasibility
    acceptance checks."""
    return [random_instance(seed) for seed in SHARED_SEEDS]


@pytest.fixture(scope="session")
def warm_kernels():
    """Run one tiny exact solve first so timed tests measure steady state
    (imports and first-call set-up already done)."""
    obs = obs_of([("o0", "f0", "A", 0.9), ("o0", "f1", "B", 0.8),
                  ("o1", "f0", "B", 0.7)])
    ic = IntegrityConstraintSet((("A", "B"),))
    inst = solver_ip.build_instance(obs, ic, 0.5)
    solver_ip.solve(inst)
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(0)
