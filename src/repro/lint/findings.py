"""Finding records and annotation parsing shared by every analyzer.

A :class:`Finding` names the rule, the file, the line and a one-line
message — the contract the CI gate and the test fixtures rely on.  Two
in-source annotations are recognized:

* ``# qlint: disable=QL010`` (comma-separated rule ids, or a bare
  ``disable`` for every rule) suppresses findings on that line;
* ``# qlint: guarded-by(_lock)`` asserts to the concurrency analyzer
  that the annotated line — or, on a ``def`` line, the whole method —
  only runs while the named lock attribute is held by the caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Set

#: Rule ids, their one-line meaning (also the ``lint --rules`` listing).
RULES: Dict[str, str] = {
    "QL010": "unseeded RNG construction (non-reproducible stream)",
    "QL011": "draw from the module-level random/np.random global state",
    "QL012": "stochastic-rounding draw stream advanced outside "
             "RoundingScheme.apply / executor-managed resume state",
    "QL020": "shared attribute of a lock-owning class accessed outside "
             "its lock (annotate # qlint: guarded-by(<lock>))",
    "QL022": "lock-order cycle: nested lock acquisitions whose order "
             "inverts elsewhere in the run (deadlock hazard)",
    "QL030": "runtime sanitizer: fixed-point overflow/saturation events",
    "QL031": "runtime sanitizer: NaN values reached a quantization hook",
    "QL040": "qlower: float-contaminated op blocks integer lowering",
    "QL041": "qlower: scale composition on the path is not a power of "
             "two (no exact shift rescale exists)",
    "QL042": "qlower: special-function integer approximation has no "
             "certified plan over the required domain/precision",
    "QL043": "qlower: missing/failed range certificate or accumulator "
             "exceeds 64-bit integer execution",
    "QL044": "float dtype construction or float-only numpy routine "
             "inside the integer backend (kernels and plan walk)",
}

_DISABLE_RE = re.compile(r"#\s*qlint:\s*disable(?:=([A-Z0-9,\s]+))?")
_GUARDED_RE = re.compile(r"#\s*qlint:\s*guarded-by\((\w+)\)")

#: Sentinel rule set meaning "every rule suppressed on this line".
ALL_RULES = frozenset(RULES)


@dataclass(frozen=True)
class Finding:
    """One lint finding: rule id, location, message."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Per-line suppressed rule ids from ``# qlint: disable=`` comments."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        rules = match.group(1)
        if rules is None:
            suppressed[lineno] = set(ALL_RULES)
        else:
            suppressed[lineno] = {
                rule.strip() for rule in rules.split(",") if rule.strip()
            }
    return suppressed


def parse_guards(source: str) -> Dict[int, str]:
    """Per-line lock names from ``# qlint: guarded-by(<lock>)`` comments."""
    guards: Dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _GUARDED_RE.search(text)
        if match is not None:
            guards[lineno] = match.group(1)
    return guards


def filter_suppressed(
    findings: List[Finding], suppressions: Dict[int, Set[str]]
) -> List[Finding]:
    """Drop findings whose line carries a matching disable comment."""
    return [
        finding
        for finding in findings
        if finding.rule not in suppressions.get(finding.line, ())
    ]
