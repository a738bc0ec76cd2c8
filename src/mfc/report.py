"""Named lists of symbolic checks with pass/fail and residuals."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .superalg import SuperSeries


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: Optional[SuperSeries] = None

    def render(self) -> str:
        line = f"CHECK {self.name} {'PASS' if self.passed else 'FAIL'}"
        if not self.passed and self.residual is not None:
            from .textio import serialize
            line += f" residual={serialize(self.residual)}"
        return line


@dataclass
class Report:
    name: str
    checks: List[CheckResult] = field(default_factory=list)

    @classmethod
    def single(cls, name: str, residual: SuperSeries) -> "Report":
        """A report of one check, named like the report: ``residual`` is zero."""
        report = cls(name)
        report.check_zero(name, residual)
        return report

    def add(self, name: str, passed: bool,
            residual: Optional[SuperSeries] = None) -> CheckResult:
        r = CheckResult(name, passed, residual)
        self.checks.append(r)
        return r

    def append(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check

    def include(self, prefix: str, sub: "Report") -> None:
        """Append each check of ``sub``, renamed ``prefix:name``."""
        self.checks.extend(CheckResult(f"{prefix}:{c.name}", c.passed, c.residual)
                           for c in sub.checks)

    def check_zero(self, name: str, residual: SuperSeries) -> CheckResult:
        return self.add(name, residual.is_zero(), residual)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)
