"""Controller risk model (§III-B, Figure 4(b)).

A single network-wide model whose elements are ``(switch, EPG pair)``
triplets: the same EPG pair deployed on three switches contributes three
elements, each wired to the policy objects the pair relies on.  The triplet
construction is what lets the model "clearly distinguish whether an object
deployment failed at a particular switch or in all switches" — a fault at the
controller (bad object pushed everywhere) fails the object's edges on *every*
switch, while a fault local to one switch only fails that switch's triplets.

Optionally the switch itself is added as a shared risk of its triplets
(``include_switch_risks``).  The paper's Figure 3 treats switches as shared
risk objects and its third use case localizes an unresponsive switch, so the
default is ``True``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..policy.graph import PolicyIndex
from ..policy.objects import EpgPair
from ..policy.tenant import NetworkPolicy
from .model import RiskModel, cached_model

__all__ = ["ControllerElement", "build_controller_risk_model"]

#: Elements of the controller risk model: (switch uid, EPG pair).
ControllerElement = Tuple[str, EpgPair]


def build_controller_risk_model(
    policy: NetworkPolicy,
    index: Optional[PolicyIndex] = None,
    include_switch_risks: bool = True,
) -> RiskModel:
    """The (unaugmented) network-wide controller risk model.

    The caller's own to augment and localize over; its structure is
    computed once per ``index`` and read-only (see
    :func:`~repro.risk.model.cached_model`).
    """
    index = index or PolicyIndex(policy)

    def build() -> RiskModel:
        model = RiskModel()
        for switch_uid in index.all_switches():
            for pair in index.pairs_on_switch(switch_uid):
                risks = list(index.risks_for_pair(pair))
                if include_switch_risks:
                    risks.append(switch_uid)
                if risks:
                    model.add_element((switch_uid, pair), risks)
        return model

    return cached_model(
        index, ("controller", include_switch_risks), build, "controller-risk-model"
    )
