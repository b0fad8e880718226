"""Static verification: trace/program analysis and repository lint.

Two halves, sharing one diagnostic vocabulary:

* :mod:`repro.verify.trace_verifier` — pre-execution verification of VPC
  traces and placement plans (``SPV`` rules): operand bounds, subarray
  capacity, Table II src/des overlap, pipeline data hazards, operand
  overwrites, and placement double-booking.  Runs in O(#VPC), so its
  SPV001 bounds rule gates every ``execute_trace`` and streamed chunk,
  and the full rule set is exposed as ``repro-streampim check``.
* :mod:`repro.verify.lint` — AST lint over the simulator source
  (``SPL`` rules), exposed as ``repro-streampim lint`` and gating CI.
* :mod:`repro.verify.dataflow` / :mod:`repro.verify.races` — whole-trace
  dataflow analysis over columnar traces (``SPV008``–``SPV012``): a
  def-use index seeded from the placement plan, plus uninitialised-read,
  dead-store, schedule-aware-race, scratch-leak and redundant-copy
  rules.  Exposed as ``repro-streampim check --deep``.
"""

from repro.verify.dataflow import DataflowAnalyzer, DataflowIndex
from repro.verify.diagnostics import (
    ALL_RULES,
    DATAFLOW_RULES,
    Diagnostic,
    LINT_RULES,
    Rule,
    Severity,
    TRACE_RULES,
    VerifyReport,
    make_diagnostic,
    validate_rule_ids,
)
from repro.verify.lint import lint_paths, lint_source
from repro.verify.trace_verifier import (
    DEFAULT_HAZARD_WINDOW,
    StreamingTraceVerifier,
    TraceVerificationError,
    TraceVerifier,
    verify_trace,
)

__all__ = [
    "ALL_RULES",
    "DATAFLOW_RULES",
    "DataflowAnalyzer",
    "DataflowIndex",
    "Diagnostic",
    "LINT_RULES",
    "Rule",
    "Severity",
    "TRACE_RULES",
    "VerifyReport",
    "make_diagnostic",
    "validate_rule_ids",
    "lint_paths",
    "lint_source",
    "DEFAULT_HAZARD_WINDOW",
    "StreamingTraceVerifier",
    "TraceVerificationError",
    "TraceVerifier",
    "verify_trace",
]
