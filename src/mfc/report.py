"""Lists of symbolic checks.  A check is a named residual: it passes when
the residual is zero, and a check with no residual (nothing to compare)
passes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .superalg import SuperSeries


@dataclass
class CheckResult:
    name: str
    residual: Optional[SuperSeries] = None

    @property
    def passed(self) -> bool:
        return self.residual is None or self.residual.is_zero()

    def render(self) -> str:
        line = f"CHECK {self.name} {'PASS' if self.passed else 'FAIL'}"
        if not self.passed:
            from .textio import serialize
            line += f" residual={serialize(self.residual)}"
        return line


@dataclass
class Report:
    checks: List[CheckResult] = field(default_factory=list)

    @classmethod
    def single(cls, name: str, residual: SuperSeries) -> "Report":
        """A report of one check: ``residual`` is zero."""
        return cls([CheckResult(name, residual)])

    def include(self, prefix: str, sub: "Report") -> None:
        """Append each check of ``sub``, renamed ``prefix:name``."""
        self.checks.extend(CheckResult(f"{prefix}:{c.name}", c.residual)
                           for c in sub.checks)

    def check_zero(self, name: str, residual: SuperSeries) -> None:
        self.checks.append(CheckResult(name, residual))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)
