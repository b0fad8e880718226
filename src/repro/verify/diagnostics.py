"""Typed diagnostics shared by the trace verifier and the repo linter.

Every check emits :class:`Diagnostic` objects carrying a stable rule ID
(``SPV0xx`` for trace/program rules, ``SPL1xx`` for repository lint
rules), a severity, a location (a trace index or a ``file:line``), and a
one-line fix hint.  A :class:`VerifyReport` aggregates them and decides
pass/fail, optionally promoting warnings to errors (``--strict``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


class Severity(enum.Enum):
    """Diagnostic severity; strict mode treats WARNING as ERROR.

    INFO marks optimisation hints (e.g. SPV012 redundant copy): they are
    reported and serialised like any other finding but never fail a
    run, strict or not.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Rule:
    """One entry of the rule catalogue.

    Attributes:
        rule_id: stable identifier ("SPV001", "SPL104", ...).
        title: short name of the invariant the rule guards.
        severity: default severity of violations.
        hint: one-line fix suggestion attached to every diagnostic.
    """

    rule_id: str
    title: str
    severity: Severity
    hint: str


#: Trace/program static-analysis rules (the ``check`` half).
TRACE_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "SPV001",
            "address range out of device bounds",
            Severity.ERROR,
            "clamp the operand to the device word space; the workload "
            "generator placed data past the last subarray",
        ),
        Rule(
            "SPV002",
            "operand range overflows its subarray",
            Severity.WARNING,
            "split the vector into per-subarray slices (section IV-C "
            "slicing); a VPC operand must live in one subarray",
        ),
        Rule(
            "SPV003",
            "source/destination ranges overlap within one VPC",
            Severity.ERROR,
            "stage the result in scratch words first; overlapping "
            "src/des is undefined per Table II",
        ),
        Rule(
            "SPV004",
            "data hazard between pipelined compute VPCs",
            Severity.WARNING,
            "separate the dependent VPCs by at least the pipeline "
            "window (or an intervening TRAN that drains the RM bus)",
        ),
        Rule(
            "SPV005",
            "TRAN writes into placed operand data",
            Severity.ERROR,
            "move-VPC destinations must target scratch or result-set "
            "rows; rerun placement with disjoint result sets",
        ),
        Rule(
            "SPV006",
            "placement double-books a subarray row slice",
            Severity.ERROR,
            "two matrices claim the same words of one (bank, subarray); "
            "the placer's cursors are inconsistent",
        ),
        Rule(
            "SPV007",
            "commanded shift exceeds the bounded segment length",
            Severity.ERROR,
            "a transfer longer than one RM-bus segment cannot be "
            "guard-checked per hop (the precondition of shift-fault "
            "recovery); split the VPC into per-segment chunks",
        ),
        Rule(
            "SPV008",
            "read of words with no prior writer or placement init",
            Severity.ERROR,
            "the operand reads nanowire state nothing initialised; "
            "materialize the matrix (placement init) or emit the "
            "producing VPC before the consumer",
        ),
        Rule(
            "SPV009",
            "dead store: written words never read before overwrite/end",
            Severity.WARNING,
            "the stored value is unobservable; drop the VPC or add the "
            "consumer that was meant to read it",
        ),
        Rule(
            "SPV010",
            "schedule-aware race on unserialised word accesses",
            Severity.ERROR,
            "two VPCs touch the same words through subarrays neither "
            "acquires, so no busy-until edge orders them; keep each "
            "operand inside the subarray its VPC serialises on",
        ),
        Rule(
            "SPV011",
            "scratch-slot leak: staged words never consumed",
            Severity.WARNING,
            "a scratch write is neither read nor recycled before "
            "end-of-trace; recycle the slot or wire its consumer",
        ),
        Rule(
            "SPV012",
            "redundant copy: source bytes already resident at dest",
            Severity.INFO,
            "an identical TRAN already ran and neither range was "
            "written since; drop the repeat copy",
        ),
    )
}

#: Rules computed by the whole-trace dataflow pass (``check --deep``),
#: not by the per-VPC :class:`~repro.verify.trace_verifier.TraceVerifier`
#: walk.
DATAFLOW_RULES = frozenset(
    {"SPV008", "SPV009", "SPV010", "SPV011", "SPV012"}
)

#: Repository-invariant lint rules (the ``lint`` half).
LINT_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "SPL101",
            "float equality in timing/energy accounting",
            Severity.ERROR,
            "compare accumulated ns/pJ with math.isclose or an explicit "
            "tolerance, never with == / !=",
        ),
        Rule(
            "SPL102",
            "nanowire/subarray state mutated outside repro.core/repro.rm",
            Severity.ERROR,
            "call the device model's methods instead of poking its "
            "attributes from a higher layer",
        ),
        Rule(
            "SPL103",
            "frozen config dataclass without __post_init__ validation",
            Severity.ERROR,
            "add a __post_init__ that rejects out-of-range fields; every "
            "*Config dataclass is a user-facing input surface",
        ),
        Rule(
            "SPL104",
            "bare assert used for input validation",
            Severity.ERROR,
            "raise ValueError/TypeError instead; asserts vanish under "
            "python -O",
        ),
    )
}

ALL_RULES: Dict[str, Rule] = {**TRACE_RULES, **LINT_RULES}


def validate_rule_ids(rules, catalogue=None):
    """Normalise a rule-ID selection to a frozenset, rejecting typos.

    ``None`` (meaning "all rules") passes through.  Any ID absent from
    ``catalogue`` (default: every known rule) raises ``ValueError``
    naming the unknown IDs — a silent no-match would disable checks
    without warning.
    """
    if rules is None:
        return None
    known = catalogue if catalogue is not None else ALL_RULES
    selected = frozenset(rules)
    unknown = sorted(selected - set(known))
    if unknown:
        raise ValueError(
            f"unknown rule ID(s): {', '.join(unknown)}; known rules: "
            f"{', '.join(sorted(known))}"
        )
    return selected


@dataclass(frozen=True)
class Diagnostic:
    """One reported violation.

    Attributes:
        rule_id: catalogue identifier.
        severity: effective severity (catalogue default unless a caller
            overrides it).
        location: where — ``"vpc #12"`` for trace rules, ``"path:line"``
            for lint rules, ``"placement"`` for plan-level rules.
        message: what went wrong, with concrete addresses/names.
        hint: one-line fix suggestion.
        index: trace position for trace rules (None otherwise).
    """

    rule_id: str
    severity: Severity
    location: str
    message: str
    hint: str = ""
    index: Optional[int] = None

    def render(self) -> str:
        tag = self.severity.value
        line = f"{self.rule_id} {tag}: {self.location}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self, subject: str = "") -> Dict[str, object]:
        """Stable machine-readable form (the ``--json`` schema).

        Keys (all always present): ``rule``, ``severity``, ``subject``,
        ``location``, ``index`` (trace position or null), ``offset``
        (byte offset of the VPC record in the binary trace encoding, or
        null), ``line`` (source line for lint rules, or null),
        ``message``, ``hint``.
        """
        offset: Optional[int] = None
        if self.index is not None and self.index >= 0:
            from repro.isa.columnar import binary_record_offset

            offset = binary_record_offset(self.index)
        line: Optional[int] = None
        path, sep, tail = self.location.rpartition(":")
        if sep and path and tail.isdigit():
            line = int(tail)
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "subject": subject,
            "location": self.location,
            "index": self.index,
            "offset": offset,
            "line": line,
            "message": self.message,
            "hint": self.hint,
        }


def make_diagnostic(
    rule_id: str,
    location: str,
    message: str,
    index: Optional[int] = None,
) -> Diagnostic:
    """Build a diagnostic from the catalogue entry for ``rule_id``."""
    rule = ALL_RULES[rule_id]
    return Diagnostic(
        rule_id=rule_id,
        severity=rule.severity,
        location=location,
        message=message,
        hint=rule.hint,
        index=index,
    )


@dataclass
class VerifyReport:
    """All diagnostics of one verification/lint run.

    :meth:`emit` is the one bounded sink every checker writes through:
    past ``max_diagnostics`` recorded findings it stops recording and
    tallies the rest by rule ID, and :meth:`ok` still fails on a
    suppressed finding of a failing severity.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: What was analysed ("trace gemm", "src/repro", ...).
    subject: str = ""
    #: Recording cap of :meth:`emit` (None records everything).
    max_diagnostics: Optional[int] = None
    #: Findings :meth:`emit` dropped past the cap, per rule ID.
    suppressed_by_rule: Dict[str, int] = field(default_factory=dict)

    def emit(self, diagnostic: Diagnostic) -> None:
        """Record one finding, or tally it once the cap is reached."""
        if (
            self.max_diagnostics is None
            or len(self.diagnostics) < self.max_diagnostics
        ):
            self.diagnostics.append(diagnostic)
        else:
            rule_id = diagnostic.rule_id
            self.suppressed_by_rule[rule_id] = (
                self.suppressed_by_rule.get(rule_id, 0) + 1
            )

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "VerifyReport") -> None:
        """Append another report's findings and suppressed tallies."""
        self.extend(other.diagnostics)
        for rule_id, count in other.suppressed_by_rule.items():
            self.suppressed_by_rule[rule_id] = (
                self.suppressed_by_rule.get(rule_id, 0) + count
            )

    def keep_rules(self, keep) -> None:
        """Drop findings (recorded and suppressed) whose rule fails
        the ``keep(rule_id)`` predicate."""
        self.diagnostics = [d for d in self.diagnostics if keep(d.rule_id)]
        self.suppressed_by_rule = {
            rule_id: count
            for rule_id, count in self.suppressed_by_rule.items()
            if keep(rule_id)
        }

    @property
    def suppressed(self) -> int:
        """Findings dropped after the recording cap was hit."""
        return sum(self.suppressed_by_rule.values())

    def suppressed_count(self, severity: Severity) -> int:
        """Suppressed findings whose rule has ``severity``."""
        return sum(
            count
            for rule_id, count in self.suppressed_by_rule.items()
            if ALL_RULES[rule_id].severity is severity
        )

    @property
    def errors(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.ERROR
        ]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.WARNING
        ]

    @property
    def infos(self) -> List[Diagnostic]:
        return [
            d for d in self.diagnostics if d.severity is Severity.INFO
        ]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def rule_ids(self) -> List[str]:
        """Distinct rule IDs present, in first-seen order."""
        seen: Dict[str, None] = {}
        for diagnostic in self.diagnostics:
            seen.setdefault(diagnostic.rule_id, None)
        return list(seen)

    def ok(self, strict: bool = False) -> bool:
        """Whether the run passes (strict promotes warnings to errors).

        Suppressed findings count too: an error dropped past the cap
        fails the run, and so does a dropped warning under strict.
        INFO findings are hints and never fail, even under strict.
        """
        failing = (
            (Severity.ERROR, Severity.WARNING) if strict else (Severity.ERROR,)
        )
        return not any(
            d.severity in failing for d in self.diagnostics
        ) and not any(self.suppressed_count(s) for s in failing)

    def render(self, strict: bool = False) -> str:
        """Human-readable multi-line summary."""
        lines = [d.render() for d in self.diagnostics]
        n_err = len(self.errors)
        n_warn = len(self.warnings)
        n_info = len(self.infos)
        verdict = "PASS" if self.ok(strict) else "FAIL"
        strict_note = " (strict)" if strict else ""
        summary = (
            f"{self.subject or 'verification'}: {verdict}{strict_note} — "
            f"{n_err} error(s), {n_warn} warning(s)"
        )
        if n_info:
            summary += f", {n_info} hint(s)"
        if self.suppressed:
            tallies = ", ".join(
                f"{rule_id} {count}"
                for rule_id, count in sorted(self.suppressed_by_rule.items())
            )
            summary += f" (+{self.suppressed} suppressed: {tallies})"
        lines.append(summary)
        return "\n".join(lines)
