"""Switch risk model (§III-B, Figure 4(a)).

One model per leaf switch: the elements are the EPG pairs deployed on that
switch, the shared risks are the policy objects those pairs rely on (VRF,
the two EPGs, contracts and filters).  A fault local to one switch — an agent
bug, a TCAM glitch, an overflow — only affects that switch's model, which is
why the paper uses the per-switch model to localize switch-level faults.
"""

from __future__ import annotations

from ..policy.graph import PolicyIndex
from .model import RiskModel, cached_model

__all__ = ["build_switch_risk_model"]


def build_switch_risk_model(index: PolicyIndex, switch_uid: str) -> RiskModel:
    """Build the (unaugmented) switch risk model for ``switch_uid``.

    The left-hand side holds every EPG pair with at least one endpoint on the
    switch; each pair has an edge to every policy object it relies on.  All
    edges start as ``success``; :mod:`repro.risk.augment` flips edges to
    ``fail`` from the equivalence checker's missing rules.  The model is the
    caller's own; its structure is computed once per ``index`` (see
    :func:`~repro.risk.model.cached_model`).
    """

    def build() -> RiskModel:
        model = RiskModel()
        for pair in index.pairs_on_switch(switch_uid):
            risks = index.risks_for_pair(pair)
            if risks:
                model.add_element(pair, risks)
        return model

    return cached_model(
        index,
        ("switch", switch_uid),
        build,
        f"switch-risk-model:{switch_uid}",
        leaf=switch_uid,
    )
