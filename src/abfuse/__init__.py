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

Importing the package loads none of its modules: each public name, and
each submodule, is imported on first use (PEP 562), so a CLI process
compiles only the modules its command needs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "DomainConfig": "deduction", "IntegrityConstraintSet": "deduction",
    "violation_budget": "deduction",
    "RuleSet": "edr", "apply_rules": "edr", "learn_ruleset": "edr",
    "Metrics": "evaluation", "SweepDataset": "evaluation", "run_sweep": "evaluation",
    "score": "evaluation",
    "DetectionTable": "model_io", "GroundTruthTable": "model_io", "InputError": "model_io",
    "Observation": "model_io", "ObservationSet": "model_io", "load_dataset": "model_io",
    "match_detections": "model_io",
    "HsConfig": "solver_hs", "heuristic_search": "solver_hs",
    "IpInstance": "solver_ip", "IpSolution": "solver_ip", "build_instance": "solver_ip",
    "solve": "solver_ip",
}
_SUBMODULES = ("backend", "baselines", "cli", "deduction", "edr", "evaluation", "kernels",
               "model_io", "solver_hs", "solver_ip", "synthgen", "tiebreak")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
