"""Scenario builders: the paper's running example and the §V-B use cases.

Each scenario returns a fully wired :class:`Scenario` (policy + fabric +
controller, already deployed) plus whatever handles the caller needs to
reproduce the use case (e.g. the uid of the overflowing switch).  The
examples and the integration tests both build on these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..controller.controller import Controller
from ..fabric.fabric import Fabric
from ..policy.builder import PolicyBuilder, three_tier_policy
from ..policy.objects import Contract, Filter, FilterEntry
from ..policy.tenant import NetworkPolicy
from ..faults.physical import make_switch_unresponsive
from .generator import generate_workload
from .profiles import WorkloadProfile, resolve_profile, simulation_profile

__all__ = [
    "Scenario",
    "deploy_profile",
    "three_tier_scenario",
    "tcam_overflow_scenario",
    "unresponsive_switch_scenario",
    "large_unresponsive_switch_scenario",
]


@dataclass
class Scenario:
    """A deployed policy/fabric/controller triple plus scenario handles."""

    name: str
    policy: NetworkPolicy
    fabric: Fabric
    controller: Controller
    builder: PolicyBuilder
    uids: Dict[str, str] = field(default_factory=dict)
    #: Free-form scenario facts (e.g. which switch was made unresponsive).
    facts: Dict[str, object] = field(default_factory=dict)


def deploy_profile(name: str, seed: Optional[int] = None) -> Controller:
    """Generate the named workload profile and deploy it onto its fabric.

    The boot path every CLI and service entry point shares: resolve the
    profile (``ValueError`` listing the known names), generate the synthetic
    policy + fabric, deploy through a fresh controller.
    """
    workload = generate_workload(resolve_profile(name, seed=seed))
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return controller


def three_tier_scenario(
    tcam_capacity: Optional[int] = None,
    deploy: bool = True,
) -> Scenario:
    """The Figure 1 example: Web/App/DB on three leaves, one endpoint each."""
    builder, uids = three_tier_policy()
    uids = dict(uids)
    uids["ep_web"] = builder.endpoint("EP1", uids["web"], ip="10.0.0.1")
    uids["ep_app"] = builder.endpoint("EP2", uids["app"], ip="10.0.0.2")
    uids["ep_db"] = builder.endpoint("EP3", uids["db"], ip="10.0.0.3")
    policy = builder.build()
    fabric = Fabric(num_leaves=3, tcam_capacity=tcam_capacity)
    fabric.attach_endpoint(policy, uids["ep_web"], "leaf-1")
    fabric.attach_endpoint(policy, uids["ep_app"], "leaf-2")
    fabric.attach_endpoint(policy, uids["ep_db"], "leaf-3")
    controller = Controller(policy, fabric)
    if deploy:
        controller.deploy()
    return Scenario(
        name="three-tier",
        policy=policy,
        fabric=fabric,
        controller=controller,
        builder=builder,
        uids=uids,
    )


def tcam_overflow_scenario(
    tcam_capacity: int = 12,
    extra_filters: int = 12,
) -> Scenario:
    """§V-B use case 1: keep adding filters to Contract:App-DB until TCAM overflows.

    The initial 3-tier policy is deployed onto leaves whose TCAM holds only
    ``tcam_capacity`` entries; the scenario then mimics a dynamic policy by
    appending ``extra_filters`` new filters to the App-DB contract one after
    another and redeploying after each change.  The leaf hosting the App tier
    eventually rejects installs and raises ``TCAM_OVERFLOW`` faults.
    """
    scenario = three_tier_scenario(tcam_capacity=tcam_capacity)
    controller = scenario.controller
    builder = scenario.builder
    tenant = builder.tenant.name
    added_filters: List[str] = []
    contract_uid = scenario.uids["app_db_contract"]

    for port in range(7000, 7000 + extra_filters):
        filter_name = f"dynamic-port{port}"
        flt = Filter(
            uid=f"filter:{tenant}/{filter_name}",
            name=filter_name,
            entries=(FilterEntry(protocol="tcp", port=port),),
        )
        controller.add_object(tenant, flt, detail="add filter (dynamic policy change)")
        old_contract = builder.tenant.contracts[contract_uid]
        updated = Contract(
            uid=old_contract.uid,
            name=old_contract.name,
            filter_uids=old_contract.filter_uids + (flt.uid,),
        )
        controller.modify_object(tenant, updated, detail=f"attach {filter_name} to App-DB contract")
        controller.deploy(record_initial_changes=False)
        added_filters.append(flt.uid)

    scenario.name = "tcam-overflow"
    scenario.facts["added_filters"] = added_filters
    scenario.facts["tcam_capacity"] = tcam_capacity
    scenario.facts["overflow_switches"] = [
        uid
        for uid, switch in scenario.fabric.switches.items()
        if switch.tcam.rejected_installs > 0
    ]
    return scenario


def unresponsive_switch_scenario(extra_filters: int = 6) -> Scenario:
    """§V-B use case 2: a switch goes silent while 'add filter' pushes are in flight.

    The 3-tier policy is deployed normally; then the leaf hosting the App
    tier stops responding, further filters are added to the App-DB contract
    and redeployed, and the new rules never reach that leaf.
    """
    scenario = three_tier_scenario()
    controller = scenario.controller
    builder = scenario.builder
    tenant = builder.tenant.name
    victim = "leaf-2"  # hosts EP2 / the App tier
    make_switch_unresponsive(controller, victim)

    added_filters: List[str] = []
    contract_uid = scenario.uids["app_db_contract"]
    for port in range(8100, 8100 + extra_filters):
        filter_name = f"late-port{port}"
        flt = Filter(
            uid=f"filter:{tenant}/{filter_name}",
            name=filter_name,
            entries=(FilterEntry(protocol="tcp", port=port),),
        )
        controller.add_object(tenant, flt, detail="add filter while switch is down")
        old_contract = builder.tenant.contracts[contract_uid]
        updated = Contract(
            uid=old_contract.uid,
            name=old_contract.name,
            filter_uids=old_contract.filter_uids + (flt.uid,),
        )
        controller.modify_object(tenant, updated, detail=f"attach {filter_name} to App-DB contract")
        controller.deploy(record_initial_changes=False)
        added_filters.append(flt.uid)

    scenario.name = "unresponsive-switch"
    scenario.facts["unresponsive_switch"] = victim
    scenario.facts["added_filters"] = added_filters
    return scenario


def large_unresponsive_switch_scenario(
    profile: Optional[WorkloadProfile] = None,
    seed: int = 7,
) -> Scenario:
    """§V-B use case 3: a large policy pushed onto an unresponsive switch.

    A synthetic policy (the simulation profile by default) is generated, one
    heavily-loaded leaf is silenced *before* the first deployment, and the
    push happens anyway — producing a very large number of missing rules on
    that leaf, which SCOUT must collapse to a single root cause.
    """
    profile = profile or simulation_profile()
    workload = generate_workload(profile, seed=seed)
    controller = Controller(workload.policy, workload.fabric)
    # Pick the leaf hosting the most endpoints as the victim (uid-sorted
    # tie-break).
    per_leaf: Dict[str, int] = {}
    for endpoint in workload.policy.endpoints():
        if endpoint.switch_uid is not None:
            per_leaf[endpoint.switch_uid] = per_leaf.get(endpoint.switch_uid, 0) + 1
    victim = min(per_leaf, key=lambda uid: (-per_leaf[uid], uid))
    make_switch_unresponsive(controller, victim)
    controller.deploy()
    scenario = Scenario(
        name="large-unresponsive-switch",
        policy=workload.policy,
        fabric=workload.fabric,
        controller=controller,
        builder=workload.builder,
        uids={},
        facts={"unresponsive_switch": victim, "profile": profile.name},
    )
    return scenario
