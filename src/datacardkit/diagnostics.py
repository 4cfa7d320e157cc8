"""Diagnostic records emitted by validation and lint passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


# The rule catalog of docs/rules.md: each rule's one severity. A rule id that
# is not here cannot be emitted; a test holds this table and the docs equal.
RULE_SEVERITY: dict[str, Severity] = {
    "STRUCT-001": Severity.ERROR,
    "STRUCT-002": Severity.ERROR,
    "STRUCT-003": Severity.ERROR,
    "STRUCT-004": Severity.ERROR,
    "STRUCT-005": Severity.ERROR,
    "STRUCT-006": Severity.ERROR,
    "STRUCT-007": Severity.ERROR,
    "SCOPE-001": Severity.ERROR,
    "OFTEN-001": Severity.WARNING,
    "AUTO-001": Severity.WARNING,
    "STAT-001": Severity.ERROR,
    "STAT-002": Severity.ERROR,
    "COND-001": Severity.ERROR,
    "COND-002": Severity.WARNING,
    "COND-003": Severity.INFO,
    "PEND-001": Severity.WARNING,
    "CMP-001": Severity.WARNING,
    "REV-001": Severity.ERROR,
    "REV-002": Severity.ERROR,
    "REV-003": Severity.ERROR,
    "REV-004": Severity.ERROR,
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id from the published catalog, a location, and a message.

    ``path`` is a ``/``-joined chain of section/row/block ids; the empty string
    addresses the document root.
    """

    rule: str
    severity: Severity
    path: str
    message: str
    hint: str | None = None

    def sort_key(self) -> tuple[str, str]:
        return (self.path, self.rule)

    def format(self, prefix: str = "") -> str:
        where = self.path or "/"
        text = f"{self.severity.value}[{self.rule}] {prefix}{where}: {self.message}"
        if self.hint:
            text += f" ({self.hint})"
        return text

    def with_path_prefix(self, prefix: str) -> "Diagnostic":
        return Diagnostic(self.rule, self.severity, f"{prefix}{self.path}",
                          self.message, self.hint)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic order: by (path, rule id)."""
    return sorted(diags, key=Diagnostic.sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


@dataclass
class DiagnosticCollector:
    """Accumulates findings during a single pass; each takes its rule's
    severity from :data:`RULE_SEVERITY`, so an undocumented id raises
    ``KeyError``."""

    found: list[Diagnostic] = field(default_factory=list)

    def add(self, rule: str, path: str, message: str, hint: str | None = None) -> None:
        self.found.append(Diagnostic(rule, RULE_SEVERITY[rule], path, message, hint))

    def sorted(self) -> list[Diagnostic]:
        return sort_diagnostics(self.found)
