"""Unified ``# repro: allow-<rule>`` waiver handling.

One implementation shared by every pass: a trailing
``# repro: allow-<rule>`` comment waives that rule's findings *on that
line only*.  The driver additionally audits the waivers themselves:

* a waiver naming a rule no pass defines is an **error**
  (``unknown-waiver``) — it is dead weight that would silently fail to
  suppress anything if the rule were ever added under a different name;
* a waiver whose rule *is* known but which matched no finding on its
  line is a **warning** (``stale-waiver``) — the violation it excused
  is gone and the waiver should be deleted.

Both audit findings belong to the synthetic pass name ``waivers``.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.verify.passes.base import (Finding, SEVERITY_ERROR,
                                      SEVERITY_WARNING, SourceFile)

WAIVER_RE = re.compile(r"#\s*repro:\s*allow-([A-Za-z0-9][A-Za-z0-9_-]*)")

#: rules the waiver audit itself can emit
WAIVER_RULES = {
    "unknown-waiver": "a waiver must name a rule some pass defines",
    "stale-waiver": "a waiver must suppress at least one finding",
}

WAIVER_PASS_NAME = "waivers"


@dataclass(frozen=True)
class Waiver:
    path: str
    line: int
    rule: str


def scan_waivers(file: SourceFile) -> List[Waiver]:
    """All waiver comments in ``file``, one per ``allow-`` mention.

    Tokenizes so only actual ``#`` comments count: a docstring that
    *documents* the waiver syntax (this one included) is not a waiver
    and must not be audited as stale.
    """
    waivers = []
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(file.text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in WAIVER_RE.finditer(token.string):
            waivers.append(Waiver(file.path, token.start[0],
                                  match.group(1)))
    return waivers


def apply_waivers(
    findings: Sequence[Finding],
    files: Sequence[SourceFile],
    known_rules: Set[str],
    audited_rules: Set[str],
) -> Tuple[List[Finding], List[Finding], List[Finding]]:
    """Split findings into (kept, waived) and audit the waivers.

    ``known_rules`` is every rule any registered pass can emit (waivers
    for rules outside it are ``unknown-waiver`` errors); ``audited_rules``
    is the subset belonging to passes that actually *ran* — staleness is
    only judged for those, so analyzing with ``--passes`` subsets never
    mislabels a waiver for a skipped pass as stale.
    """
    waivers_by_site: Dict[Tuple[str, int, str], Waiver] = {}
    for file in files:
        for waiver in scan_waivers(file):
            waivers_by_site[(waiver.path, waiver.line, waiver.rule)] = waiver
    used: Set[Tuple[str, int, str]] = set()
    kept: List[Finding] = []
    waived: List[Finding] = []
    for finding in findings:
        site = (finding.path, finding.line, finding.rule)
        if site in waivers_by_site:
            used.add(site)
            waived.append(finding)
        else:
            kept.append(finding)
    meta: List[Finding] = []
    for site, waiver in sorted(waivers_by_site.items()):
        if waiver.rule not in known_rules:
            meta.append(Finding(
                WAIVER_PASS_NAME, "unknown-waiver", waiver.path,
                waiver.line, 0,
                f"waiver 'allow-{waiver.rule}' names a rule no analysis "
                f"pass defines", SEVERITY_ERROR))
        elif site not in used and waiver.rule in audited_rules:
            meta.append(Finding(
                WAIVER_PASS_NAME, "stale-waiver", waiver.path, waiver.line,
                0,
                f"waiver 'allow-{waiver.rule}' suppresses nothing on this "
                f"line; delete it", SEVERITY_WARNING))
    return kept, waived, meta
