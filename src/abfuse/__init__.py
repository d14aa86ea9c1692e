"""abfuse: consistency-driven fusion of multi-model perception predictions.

The pipeline resolves per-model detections onto shared object identities
(:mod:`abfuse.model_io`), filters them with learned error-detection rules
under a recall budget (:mod:`abfuse.edr`), and then picks which
(model, class) prediction groups to accept so that the resulting object
labeling is as complete as possible while violating at most a budgeted
share of mutual-exclusion constraints.  An exact branch & bound
(:mod:`abfuse.solver_ip`) and a greedy search (:mod:`abfuse.solver_hs`)
implement that selection; a confidence tie-breaker
(:mod:`abfuse.tiebreak`) reduces multi-label outcomes to one class per
object.
"""

__version__ = "0.1.0"

from .deduction import DomainConfig, IntegrityConstraintSet, violation_budget
from .edr import RuleSet, apply_rules, learn_ruleset
from .evaluation import Metrics, SweepDataset, run_sweep, score
from .model_io import (DetectionTable, GroundTruthTable, InputError, Observation,
                       ObservationSet, load_dataset, match_detections)
from .solver_hs import HsConfig, heuristic_search
from .solver_ip import IpInstance, IpSolution, build_instance, solve

__all__ = [
    "DetectionTable", "DomainConfig", "GroundTruthTable", "HsConfig", "InputError",
    "IntegrityConstraintSet", "IpInstance", "IpSolution", "Metrics",
    "Observation", "ObservationSet", "RuleSet", "SweepDataset", "apply_rules",
    "build_instance", "heuristic_search", "learn_ruleset",
    "load_dataset", "match_detections", "run_sweep", "score", "solve",
    "violation_budget",
]
