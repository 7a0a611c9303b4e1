"""MeRLiN core: the paper's primary contribution.

The package implements the three phases of Figure 2:

* **Preprocessing** — ACE-like vulnerable-interval profiling
  (:mod:`repro.core.intervals`) over the structure access trace of a single
  golden run, plus statistical initial fault-list creation (reused from
  :mod:`repro.faults.sampling`);
* **Fault list reduction** — the two-step grouping algorithm
  (:mod:`repro.core.grouping`);
* **Fault injection campaign** — representative injection and group-level
  outcome propagation (:mod:`repro.core.merlin`).

Supporting modules implement the evaluation machinery of Section 4: the
homogeneity/AVF/FIT metrics (:mod:`repro.core.metrics`), the classic
ACE-style upper bound (:mod:`repro.core.ace`), the Relyzer
control-equivalence heuristic used as a comparison point
(:mod:`repro.core.relyzer`), the statistical model of Section 4.4.5
(:mod:`repro.core.stats_model`) and the evaluation-time cost model
(:mod:`repro.core.timing`).
"""

from repro.core.intervals import IntervalSet, VulnerableInterval, build_interval_set
from repro.core.grouping import (
    FaultGroup,
    GroupedFaults,
    group_faults,
)
from repro.core.merlin import MerlinCampaign, MerlinResult
from repro.core.metrics import (
    coarse_homogeneity,
    fine_homogeneity,
    fit_rate,
    perfect_group_fraction,
)
from repro.core.ace import ace_like_avf, ace_like_fit
from repro.core.relyzer import RelyzerCampaign, RelyzerResult
from repro.core.timing import EvaluationCostModel
from repro.core.stats_model import TheoreticalComparison, analyze_groups

__all__ = [
    "IntervalSet",
    "VulnerableInterval",
    "build_interval_set",
    "FaultGroup",
    "GroupedFaults",
    "group_faults",
    "MerlinCampaign",
    "MerlinResult",
    "coarse_homogeneity",
    "fine_homogeneity",
    "fit_rate",
    "perfect_group_fraction",
    "ace_like_avf",
    "ace_like_fit",
    "RelyzerCampaign",
    "RelyzerResult",
    "EvaluationCostModel",
    "TheoreticalComparison",
    "analyze_groups",
]
