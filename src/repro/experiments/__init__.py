"""Evaluation harness (Chapter 4).

Scenario definitions regenerating every table and figure of the paper's
evaluation, a comparison runner executing the same workload under
different routing policies with matched seeds, and plain-text reporting
of paper-claim vs measured-value rows.
"""

from repro.experiments.runner import PolicyRun, run_policies
from repro.experiments.report import ExperimentResult, format_table
from repro.experiments import scenarios

__all__ = [
    "PolicyRun",
    "run_policies",
    "ExperimentResult",
    "format_table",
    "scenarios",
]
