"""Leaf switch and its policy agent.

Each leaf switch runs a *switch agent* (§II-A): a software process that
receives instructions from the controller, maintains a partial logical view
of the network policy (Figure 1(c)) and renders that view into TCAM rules.
The agent — not the controller — is the component that writes TCAM, which is
why the paper distinguishes *controller-level* faults (instructions never
reach the agent) from *switch-level* faults (the agent or the TCAM
misbehaves).

Fault hooks modelled here:

* ``AgentState.UNRESPONSIVE`` — the agent silently ignores instruction
  batches (the "unresponsive switch" use case of §V-B);
* ``AgentState.CRASHED`` / ``crash_after`` — the agent dies mid-batch,
  leaving the logical view (and therefore the TCAM) partially updated;
* ``buggy_dropped_objects`` — a software bug makes the agent silently drop
  specific objects from its logical view (§III: "S2 may drop the filter
  'port 700/allow' from its logical view due to software bug");
* TCAM overflow / eviction / corruption are raised by the
  :class:`~repro.fabric.tcam.TcamTable` and logged by the switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..clock import LogicalClock
from ..exceptions import FabricError
from ..policy.objects import Contract, Epg, Filter, PolicyObject, Vrf
from ..protocol import AttachEndpoint, Instruction, Operation
from ..rules import MatchKey, TcamRule, rules_for_pair_entry
from .faultlog import FaultCode, FaultLogBook
from .tcam import InstallOutcome, TcamTable
from .topology import SwitchRole

__all__ = ["AgentState", "SwitchAgent", "Switch"]


class AgentState(str, enum.Enum):
    """Operational state of a switch agent."""

    RUNNING = "running"
    CRASHED = "crashed"
    UNRESPONSIVE = "unresponsive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class SwitchAgent:
    """The software agent holding the switch's local logical policy view."""

    def __init__(self, switch_uid: str) -> None:
        self.switch_uid = switch_uid
        self.state = AgentState.RUNNING
        #: Local logical view: policy objects known to this switch.
        self.logical_view: Dict[str, PolicyObject] = {}
        #: Locally attached endpoints: endpoint uid -> EPG uid.
        self.local_attachments: Dict[str, str] = {}
        #: If set, the agent crashes after applying this many more instructions.
        self.crash_after: Optional[int] = None
        #: Object uids a buggy agent silently drops from its logical view.
        self.buggy_dropped_objects: set[str] = set()

    # ------------------------------------------------------------------ #
    # Instruction handling
    # ------------------------------------------------------------------ #
    def receive_attachments(self, attachments: Iterable[AttachEndpoint]) -> int:
        """Learn locally attached endpoints; returns how many were accepted."""
        if self.state is not AgentState.RUNNING:
            return 0
        accepted = 0
        for attach in attachments:
            if attach.switch_uid != self.switch_uid:
                continue
            self.local_attachments[attach.endpoint_uid] = attach.epg_uid
            accepted += 1
        return accepted

    def receive(self, instructions: Sequence[Instruction]) -> Tuple[int, int]:
        """Apply an instruction batch to the logical view.

        Returns ``(applied, dropped)``.  An unresponsive agent drops the
        whole batch; a crash mid-batch drops the remainder.
        """
        if self.state is not AgentState.RUNNING:
            return 0, len(instructions)
        applied = 0
        dropped = 0
        for instruction in instructions:
            if self.crash_after is not None and self.crash_after <= 0:
                self.state = AgentState.CRASHED
            if self.state is AgentState.CRASHED:
                dropped += 1
                continue
            self._apply(instruction)
            applied += 1
            if self.crash_after is not None:
                self.crash_after -= 1
        return applied, dropped

    def _apply(self, instruction: Instruction) -> None:
        obj = instruction.obj
        if obj.uid in self.buggy_dropped_objects:
            # Software bug: the agent acknowledges the instruction but never
            # materialises the object in its view.
            return
        if instruction.operation is Operation.DELETE:
            self.logical_view.pop(obj.uid, None)
        else:
            self.logical_view[obj.uid] = obj

    # ------------------------------------------------------------------ #
    # Rendering the logical view into TCAM rules
    # ------------------------------------------------------------------ #
    def local_epg_uids(self) -> set[str]:
        """EPGs with at least one endpoint attached to this switch."""
        return set(self.local_attachments.values())

    def desired_rules(self) -> Dict[MatchKey, TcamRule]:
        """Render the local logical view into the rule set this switch needs,
        keyed by match key in rendering order (first provenance wins).

        For every contract in the view, every (provider, consumer) EPG pair
        in which at least one EPG is locally attached produces two rules per
        filter entry (Figure 2).  Objects missing from the view (because an
        instruction was lost or dropped) simply produce no rules — exactly
        the failure mode the equivalence checker later observes.
        """
        local_epgs = self.local_epg_uids()
        epgs = {uid: obj for uid, obj in self.logical_view.items() if isinstance(obj, Epg)}
        vrfs = {uid: obj for uid, obj in self.logical_view.items() if isinstance(obj, Vrf)}
        contracts = {uid: obj for uid, obj in self.logical_view.items() if isinstance(obj, Contract)}
        filters = {uid: obj for uid, obj in self.logical_view.items() if isinstance(obj, Filter)}

        providers: Dict[str, list[Epg]] = {}
        consumers: Dict[str, list[Epg]] = {}
        for epg in epgs.values():
            for contract_uid in epg.provides:
                providers.setdefault(contract_uid, []).append(epg)
            for contract_uid in epg.consumes:
                consumers.setdefault(contract_uid, []).append(epg)

        rules: Dict[MatchKey, TcamRule] = {}
        for contract_uid, contract in contracts.items():
            for provider in providers.get(contract_uid, ()):
                for consumer in consumers.get(contract_uid, ()):
                    if provider.uid == consumer.uid:
                        continue
                    if provider.uid not in local_epgs and consumer.uid not in local_epgs:
                        continue
                    # Same-VRF scoping, mirroring PolicyIndex: cross-VRF
                    # provide/consume relations do not whitelist traffic.
                    if provider.vrf_uid != consumer.vrf_uid:
                        continue
                    vrf = vrfs.get(provider.vrf_uid)
                    if vrf is None:
                        continue
                    for filter_uid in contract.filter_uids:
                        flt = filters.get(filter_uid)
                        if flt is None:
                            continue
                        for entry in flt.entries:
                            for rule in rules_for_pair_entry(
                                vrf, consumer, provider, contract_uid, filter_uid, entry
                            ):
                                rules.setdefault(rule.match_key(), rule)
        return rules


@dataclass
class Switch:
    """A leaf (or spine) switch: agent + TCAM + device fault log."""

    uid: str
    role: SwitchRole = SwitchRole.LEAF
    tcam: TcamTable = field(default_factory=TcamTable)
    agent: SwitchAgent = field(init=False)
    fault_log: FaultLogBook = field(default_factory=FaultLogBook)
    clock: LogicalClock = field(default_factory=LogicalClock)

    def __post_init__(self) -> None:
        self.agent = SwitchAgent(self.uid)

    # ------------------------------------------------------------------ #
    # Control-plane entry points (called by the controller's channel)
    # ------------------------------------------------------------------ #
    def receive_deployment(
        self,
        instructions: Sequence[Instruction],
        attachments: Sequence[AttachEndpoint] = (),
    ) -> Tuple[int, int]:
        """Accept a deployment batch and resynchronise the TCAM.

        Returns ``(applied, dropped)`` instruction counts.  A crash mid-batch
        is logged as an ``AGENT_CRASH`` fault; TCAM overflows encountered
        while synchronising are logged as ``TCAM_OVERFLOW`` faults.
        """
        if self.role is not SwitchRole.LEAF:
            raise FabricError(f"policy can only be deployed to leaf switches, not {self.uid!r}")
        self.agent.receive_attachments(attachments)
        before_state = self.agent.state
        applied, dropped = self.agent.receive(instructions)
        if before_state is AgentState.RUNNING and self.agent.state is AgentState.CRASHED:
            self.fault_log.raise_fault(
                self.clock.peek(),
                self.uid,
                FaultCode.AGENT_CRASH,
                detail=f"agent crashed after applying {applied} of {applied + dropped} instructions",
            )
        if self.agent.state is AgentState.RUNNING:
            self.sync_tcam()
        return applied, dropped

    def sync_tcam(self) -> Dict[str, int]:
        """Diff the agent's desired rules against the TCAM and apply the delta.

        Rules the agent no longer wants are removed; missing rules are
        installed.  Overflows and evictions are logged.  Returns counters for
        inspection.

        Both walks follow insertion order — removals in TCAM table order,
        installs in the agent's rendering order — never raw set-difference
        order, whose per-process hash randomization would make the install
        sequence (and, on a capacity-limited TCAM, *which* rules overflow)
        irreproducible across runs.  The campaign record/replay gate depends
        on this being a pure function of the instruction stream.
        """
        desired = self.agent.desired_rules()
        installed_keys = set(self.tcam.match_keys())

        # One write transaction: listeners hear of the whole reconcile once.
        with self.tcam.transaction():
            removed = 0
            for key in self.tcam.match_keys():
                if key in desired:
                    continue
                # Only remove rules this agent owns (rendered from its view);
                # corrupted entries keep provenance and are cleaned up as well,
                # which mirrors an agent reconciling unexpected TCAM content.
                if self.tcam.remove(key) is not None:
                    removed += 1

            installed = 0
            rejected = 0
            evicted = 0
            overflow_logged = False
            for key, rule in desired.items():
                if key in installed_keys:
                    continue
                outcome, evicted_rule = self.tcam.install(rule)
                if outcome is InstallOutcome.REJECTED_FULL:
                    rejected += 1
                    if not overflow_logged:
                        self.fault_log.raise_fault(
                            self.clock.peek(),
                            self.uid,
                            FaultCode.TCAM_OVERFLOW,
                            detail=(
                                f"TCAM full ({self.tcam.capacity} entries); "
                                f"rule install rejected"
                            ),
                        )
                        overflow_logged = True
                elif outcome is InstallOutcome.INSTALLED_WITH_EVICTION:
                    installed += 1
                    evicted += 1
                    self.fault_log.raise_fault(
                        self.clock.peek(),
                        self.uid,
                        FaultCode.RULE_EVICTION,
                        detail=f"evicted {evicted_rule.describe() if evicted_rule else 'rule'}",
                    )
                else:
                    installed += 1
        return {
            "installed": installed,
            "removed": removed,
            "rejected": rejected,
            "evicted": evicted,
        }

    # ------------------------------------------------------------------ #
    # Fault helpers (used by the fault injector and the use cases)
    # ------------------------------------------------------------------ #
    def make_unresponsive(self, log: bool = True) -> None:
        """Stop the agent from accepting controller messages."""
        self.agent.state = AgentState.UNRESPONSIVE
        if log:
            self.fault_log.raise_fault(
                self.clock.peek(),
                self.uid,
                FaultCode.SWITCH_UNREACHABLE,
                detail="switch stopped responding to the controller",
            )

    def restore(self) -> None:
        """Bring the agent back to a running state (faults stay in the log)."""
        self.agent.state = AgentState.RUNNING
        self.agent.crash_after = None
        self.fault_log.clear_device(self.uid, self.clock.peek())

    def deployed_rules(self) -> List[TcamRule]:
        """Rules currently present in the switch TCAM (the T side of L-T)."""
        return self.tcam.rules()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Switch(uid={self.uid!r}, role={self.role.value}, "
            f"rules={len(self.tcam)}, state={self.agent.state.value})"
        )
