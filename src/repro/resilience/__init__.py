"""End-to-end fault-injection campaigns with detect/recover policies.

Threads the paper's shift-fault model (section III-D) through event-mode
trace execution: seeded per-VPC fault sampling
(:mod:`~repro.resilience.plan`), guard-domain detection with
configurable recovery — bounded retry, typed abort, or subarray
quarantine (:mod:`~repro.resilience.session`) — bit-accurate silent
corruption (:mod:`~repro.resilience.corruption`), and Monte-Carlo
campaigns over seeds (:mod:`~repro.resilience.campaign`) whose reports
tie back to the analytic
:class:`~repro.core.redundancy.RedundancyAnalysis`.

Trace execution accepts a :class:`FaultSession` via
``execute_trace(..., faults=session)`` and is bit-identical under the
same seed; the CLI surface is ``repro-streampim faults run|campaign``.
"""

from repro.resilience.campaign import (
    build_session,
    run_campaign,
    run_with_faults,
)
from repro.resilience.corruption import corrupt_words
from repro.resilience.plan import (
    FaultCampaignConfig,
    FaultPlan,
    PlannedFault,
    RecoveryPolicy,
    build_fault_plan,
)
from repro.resilience.report import CampaignReport, ReliabilityRunReport
from repro.resilience.session import FaultSession

__all__ = [
    "CampaignReport",
    "FaultCampaignConfig",
    "FaultPlan",
    "FaultSession",
    "PlannedFault",
    "RecoveryPolicy",
    "ReliabilityRunReport",
    "build_fault_plan",
    "build_session",
    "corrupt_words",
    "run_campaign",
    "run_with_faults",
]
