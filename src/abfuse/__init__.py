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

Importing the package loads none of its modules, and it re-exports no
names: import each from its submodule (``from abfuse.solver_ip import
solve``), so a CLI process compiles only the modules its command needs.
"""

__version__ = "0.1.0"
