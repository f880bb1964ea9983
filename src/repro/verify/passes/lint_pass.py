"""The determinism/idiom lint, as a framework pass.

The rules live in ``repro.verify.lint``; this pass is their only
driver (``repro verify lint`` is ``repro verify analyze --passes
lint``), so their waivers are audited and their findings are
baselinable like any other pass's.
"""

from __future__ import annotations

from typing import List

from repro.verify import lint as lint_mod
from repro.verify.passes.base import (AnalysisPass, Finding, PassContext)


class LintPass(AnalysisPass):
    name = "lint"
    description = ("determinism and idiom lint: wall-clock reads, global "
                   "RNG draws, unordered set iteration, implicit "
                   "Optional, slot-less hot-path classes")
    rules = dict(lint_mod.RULES)

    def run(self, ctx: PassContext) -> List[Finding]:
        parsed = [file for file in ctx.files if file.tree is not None]
        # the known-set registry spans all analyzed files, so iteration
        # over e.g. ``DirEntry.holders()`` is flagged in coherence.py
        # although the annotation lives in directory.py
        registry = lint_mod._SetRegistry()
        for file in parsed:
            registry.scan(file.tree)
        findings: List[Finding] = []
        for file in parsed:
            linter = lint_mod._Linter(file.path, registry, file.lines)
            linter.visit(file.tree)
            findings.extend(self.finding(file, node, rule, message)
                            for node, rule, message in linter.findings)
        return findings
