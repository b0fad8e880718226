"""Whole-trace VPC walk of a :class:`~repro.verify.TraceVerifier`.

Always walks one VPC at a time, plan rules first — the reference the
vectorized SPV001/SPV007 scan and every chunking of the streamed scan
must reproduce exactly (diagnostics, order, suppressed tallies).
"""

from __future__ import annotations

from repro.verify.diagnostics import VerifyReport


def verify(verifier, trace, subject: str = "trace") -> VerifyReport:
    """Run ``verifier``'s enabled rules over ``trace`` VPC by VPC."""
    report = VerifyReport(
        subject=subject, max_diagnostics=verifier.max_diagnostics
    )
    if verifier.plan is not None:
        for diagnostic in verifier._check_plan(verifier.plan):
            report.emit(diagnostic)
    verifier._scan_vpcs(trace, report.emit, 0, [])
    return report
