"""RL012 — dead-public-API rule.

A public top-level symbol that nothing in the product reaches — not the
CLI, the experiments registry, the examples or the benchmark drivers —
is surface area that only tests (or nothing) exercise: it carries no
user, so it rots silently until a refactor trips over it.  Tests and
``__all__`` lists do not keep a symbol alive; a test oracle is declared
with ``# repro-lint: disable=RL012 -- oracle: <test>`` on its ``def``
line.  The reference graph and reachability walk live in
:mod:`repro.lint.dataflow.callgraph`.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..engine import Finding, ProjectRule


class DeadPublicApiRule(ProjectRule):
    """RL012: public symbols must be reachable from a product entry point."""

    rule_id = "RL012"
    severity = "warning"
    summary = "dead-public-api"
    rationale = (
        "public symbols that only tests reach carry no callers; they "
        "either deserve a caller, an underscore, an oracle mark, or deletion"
    )

    def check(self, project) -> Iterable[Finding]:
        from ..dataflow.callgraph import ReferenceGraph

        for path, line, col, message in ReferenceGraph(
            project
        ).dead_public_symbols():
            yield self.finding(path, line, col, message)
