"""The simulated fabric: topology + switches + shared clock.

A :class:`Fabric` owns one :class:`~repro.fabric.topology.LeafSpineTopology`
and a :class:`~repro.fabric.switch.Switch` object per leaf.  It also owns the
logical clock shared by every component that emits timestamped logs, and the
helpers the experiments use to attach endpoints and to collect the deployed
TCAM state (the ``T`` side of the L-T equivalence check).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clock import LogicalClock
from ..exceptions import FabricError, UnknownObjectError
from ..policy.tenant import NetworkPolicy
from ..rules import TcamSnapshot
from .faultlog import FaultRecord
from .switch import Switch
from .tcam import TcamTable
from .topology import LeafSpineTopology, SwitchRole

__all__ = ["Fabric"]


class Fabric:
    """Container of the physical substrate the policy is deployed onto."""

    def __init__(
        self,
        topology: Optional[LeafSpineTopology] = None,
        num_leaves: int = 3,
        num_spines: int = 2,
        tcam_capacity: Optional[int] = None,
    ) -> None:
        self.topology = topology or LeafSpineTopology.build(num_leaves, num_spines)
        self.topology.validate()
        self.clock = LogicalClock()
        self.switches: Dict[str, Switch] = {}
        for leaf_uid in self.topology.leaves():
            self.switches[leaf_uid] = Switch(
                uid=leaf_uid,
                role=SwitchRole.LEAF,
                tcam=TcamTable(capacity=tcam_capacity),
                clock=self.clock,
            )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def leaf_uids(self) -> List[str]:
        return sorted(self.switches)

    def switch(self, uid: str) -> Switch:
        try:
            return self.switches[uid]
        except KeyError as exc:
            raise FabricError(f"unknown leaf switch {uid!r}") from exc

    def __contains__(self, uid: str) -> bool:
        return uid in self.switches

    # ------------------------------------------------------------------ #
    # Endpoint attachment
    # ------------------------------------------------------------------ #
    def attach_endpoint(self, policy: NetworkPolicy, endpoint_uid: str, switch_uid: str) -> None:
        """Attach an endpoint of ``policy`` to a leaf switch of this fabric."""
        if switch_uid not in self.switches:
            raise FabricError(f"unknown leaf switch {switch_uid!r}")
        tenant = policy.tenant_of(endpoint_uid)
        endpoint = tenant.endpoints.get(endpoint_uid)
        if endpoint is None:
            raise UnknownObjectError(f"endpoint {endpoint_uid!r} not found")
        tenant.replace_endpoint(endpoint.attached_to(switch_uid))

    # ------------------------------------------------------------------ #
    # Deployed state collection (the "T" side of the L-T check)
    # ------------------------------------------------------------------ #
    def collect_tcam_rules(self) -> Dict[str, TcamSnapshot]:
        """Snapshot every leaf's TCAM contents, keyed by switch uid.

        Each snapshot reads its table's own dict, keyed by match key, which
        is what lets a sweep prove a healthy leaf equivalent without
        touching its rules; collecting copies no rule.
        """
        return {uid: switch.tcam.rule_sequence() for uid, switch in self.switches.items()}

    def total_installed_rules(self) -> int:
        return sum(len(switch.tcam) for switch in self.switches.values())

    # ------------------------------------------------------------------ #
    # Fault log aggregation
    # ------------------------------------------------------------------ #
    def fault_records(self) -> List[FaultRecord]:
        """All device fault records across the fabric, ordered by raise time."""
        records: list[FaultRecord] = []
        for switch in self.switches.values():
            records.extend(switch.fault_log.records())
        return sorted(records, key=lambda record: (record.raised_at, record.device_uid))

    def summary(self) -> Dict[str, int]:
        topo = self.topology.summary()
        return {
            "leaves": topo["leaves"],
            "spines": topo["spines"],
            "links": topo["links"],
            "installed_rules": self.total_installed_rules(),
            "fault_records": len(self.fault_records()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.summary()
        return (
            f"Fabric(leaves={s['leaves']}, spines={s['spines']}, "
            f"rules={s['installed_rules']}, faults={s['fault_records']})"
        )
