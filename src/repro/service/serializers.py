"""Stable dict/JSON surfaces for the operator service.

``to_dict()`` lives on the report classes themselves
(:class:`~repro.rules.TcamRule`,
:class:`~repro.verify.checker.SwitchCheckResult` /
:class:`~repro.verify.checker.EquivalenceReport`,
:class:`~repro.core.hypothesis.Hypothesis`,
:class:`~repro.core.system.ScoutReport`,
:class:`~repro.online.monitor.MonitorPass`,
:class:`~repro.online.incidents.Incident`); this module adds the inverses
plus thin functional aliases, so payloads can cross a JSON boundary and come
back without the service layer reaching into report internals.

What round-trips exactly:

* equivalence reports — every per-switch verdict, engine, rule counts and
  full rule provenance, so ``EquivalenceReport.fingerprint()`` is
  byte-identical before and after;
* hypotheses — entry order (selection order), reasons and utility values;
  risk keys and observations are stringified, which is exact for the
  uid-keyed risks production models emit;
* incidents, via ``Incident.to_dict`` / ``Incident.from_dict``.

What deliberately does not: risk models and fault-signature matchers
(callables over live graph state) are rebuilt on demand rather than shipped
over the wire, so ``scout_report_from_dict`` returns a report with empty
``risk_models`` and no ``correlation`` object — the flattened correlation
findings stay available in the original payload.
"""

from __future__ import annotations

from typing import Dict

from ..core.hypothesis import Hypothesis, HypothesisEntry, SelectionReason
from ..core.system import ScoutReport
from ..rules import TcamRule
from ..verify.checker import EquivalenceReport, SwitchCheckResult

__all__ = [
    "equivalence_report_from_dict",
    "equivalence_report_to_dict",
    "hypothesis_from_dict",
    "hypothesis_to_dict",
    "rule_from_dict",
    "rule_to_dict",
    "scout_report_from_dict",
    "scout_report_to_dict",
    "switch_result_from_dict",
    "switch_result_to_dict",
]


# --------------------------------------------------------------------- #
# Functional aliases (one import site for both directions)
# --------------------------------------------------------------------- #
def rule_to_dict(rule: TcamRule) -> Dict:
    return rule.to_dict()


def switch_result_to_dict(result: SwitchCheckResult) -> Dict:
    return result.to_dict()


def equivalence_report_to_dict(report: EquivalenceReport) -> Dict:
    return report.to_dict()


def hypothesis_to_dict(hypothesis: Hypothesis) -> Dict:
    return hypothesis.to_dict()


def scout_report_to_dict(report: ScoutReport) -> Dict:
    return report.to_dict()


# --------------------------------------------------------------------- #
# Inverses
# --------------------------------------------------------------------- #
def rule_from_dict(data: Dict) -> TcamRule:
    return TcamRule.from_dict(data)


def switch_result_from_dict(data: Dict) -> SwitchCheckResult:
    return SwitchCheckResult.from_dict(data)


def equivalence_report_from_dict(data: Dict) -> EquivalenceReport:
    """Rebuild a report whose :meth:`fingerprint` matches the original's."""
    report = EquivalenceReport()
    switches = data.get("switches", {})
    for uid in sorted(switches):
        report.results[uid] = switch_result_from_dict(switches[uid])
    return report


def hypothesis_from_dict(data: Dict) -> Hypothesis:
    """Rebuild a hypothesis preserving entry (selection) order."""
    hypothesis = Hypothesis(
        algorithm=data.get("algorithm", ""),
        iterations=data.get("iterations", 0),
        explained=set(data.get("explained", ())),
        unexplained=set(data.get("unexplained", ())),
    )
    for entry in data.get("entries", ()):
        hypothesis.entries.append(
            HypothesisEntry(
                risk=entry["risk"],
                reason=SelectionReason(entry["reason"]),
                hit_ratio=entry.get("hit_ratio", 0.0),
                coverage_ratio=entry.get("coverage_ratio", 0.0),
                iteration=entry.get("iteration", 0),
                explained=set(entry.get("explained", ())),
            )
        )
    return hypothesis


def scout_report_from_dict(data: Dict) -> ScoutReport:
    """Rebuild a SCOUT report from its wire form (risk models stay behind)."""
    return ScoutReport(
        scope=data["scope"],
        equivalence=equivalence_report_from_dict(data["equivalence"]),
        hypothesis=hypothesis_from_dict(data["hypothesis"]),
        per_switch={
            uid: hypothesis_from_dict(entry)
            for uid, entry in data.get("per_switch", {}).items()
        },
    )
