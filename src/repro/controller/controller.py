"""The centralized policy controller (APIC-like).

The controller owns the desired state (the :class:`NetworkPolicy`), compiles
it into per-switch instructions and logical rules, pushes instructions over
the :class:`~repro.controller.channel.ControlChannel` — every push, a
deployment's or a churn event's, through :meth:`Controller.push` — and
maintains the two logs the SCOUT system consumes:

* the **change log** — every management action on a policy object;
* the **controller fault log** — reachability problems it observes while
  pushing (an unresponsive switch shows up here, matching the paper's §V-B
  use case where both logs are "maintained at the controller").

Index and logical rules are served from one :class:`CompiledPolicy` that is
compared with the live object tables on every call, so a repeat audit of an
unchanged policy pays for that comparison and nothing else, and an edit pays
for the pairs it touches.  It is the only incremental compiler of L: audits
and the online monitor both read it.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional

from ..clock import LogicalClock
from ..exceptions import DeploymentError
from ..fabric.fabric import Fabric
from ..fabric.faultlog import FaultCode, FaultLogBook
from ..obs import span
from ..policy.graph import PolicyIndex, object_tables
from ..policy.objects import PolicyObject
from ..policy.tenant import NetworkPolicy
from ..policy.validation import validate_policy
from ..protocol import DeliveryReport, DeliveryStatus, Operation
from ..rules import RuleSequence
from .changelog import ChangeLog
from .channel import ControlChannel
from .compiler import CompiledRules, SwitchBatch, build_instruction_batches

__all__ = ["CompiledPolicy", "Controller"]

#: The tally of the :meth:`Controller._compile_span` open in this context, if
#: any: what *its* requests cost, whatever other threads compile meanwhile.
_SPENT: contextvars.ContextVar[Optional[Dict[str, int]]] = contextvars.ContextVar(
    "compile_spent", default=None
)


@dataclass(frozen=True)
class CompiledPolicy:
    """What the controller has derived from the policy, and from which policy.

    Valid exactly while ``tables`` — the objects ``index`` was built from
    (:meth:`PolicyIndex.object_tables`) — equals the live
    :func:`~repro.policy.graph.object_tables`; there is no invalidation to
    forget.  On a difference the held index derives the next one.  ``rules``
    appears on the first request for logical rules and is carried across
    derivations as the memo the next compile reuses (it is current iff
    ``rules.index is index``; when ``index`` was derived from
    ``rules.index``, the next compile compares only the pairs that
    derivation moved).
    """

    tables: List[List[PolicyObject]]
    index: PolicyIndex
    rules: Optional[CompiledRules] = None


class Controller:
    """Central policy controller for one fabric."""

    def __init__(
        self,
        policy: NetworkPolicy,
        fabric: Fabric,
        validate: bool = True,
    ) -> None:
        if validate:
            validate_policy(policy)
        self.policy = policy
        self.fabric = fabric
        self.clock: LogicalClock = fabric.clock
        self.channel = ControlChannel(fabric)
        self.change_log = ChangeLog()
        self.fault_log = FaultLogBook()
        self.deployment_reports: List[Dict[str, DeliveryReport]] = []
        self._initial_changes_recorded = False
        #: Replaced whole, never edited: audits and monitor polls read it
        #: from different threads.
        self._compiled: Optional[CompiledPolicy] = None
        self._stats_lock = threading.Lock()
        self._compile_stats = {
            "reuses": 0,
            "rebuilds": 0,
            "patches": 0,
            "pairs_compared": 0,
            "pairs_recompiled": 0,
            "switches_reassembled": 0,
        }

    # ------------------------------------------------------------------ #
    # Change-log management
    # ------------------------------------------------------------------ #
    def record_change(
        self,
        obj: PolicyObject,
        operation: Operation,
        detail: str = "",
        timestamp: Optional[int] = None,
    ) -> None:
        """Record a management action against ``obj`` in the change log."""
        self.change_log.record(
            timestamp=self.clock.peek() if timestamp is None else timestamp,
            object_uid=obj.uid,
            object_type=obj.object_type,
            operation=operation,
            detail=detail,
        )

    def _record_initial_changes(self) -> None:
        """Record the creation of every object at first deployment time."""
        if self._initial_changes_recorded:
            return
        timestamp = self.clock.peek()
        for obj in self.policy.objects():
            self.change_log.record(
                timestamp=timestamp,
                object_uid=obj.uid,
                object_type=obj.object_type,
                operation=Operation.ADD,
                detail="initial deployment",
            )
        self._initial_changes_recorded = True

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def _compiled_policy(self) -> CompiledPolicy:
        """The compiled policy, brought up to the live tables first: the
        next index is derived from the held one, whatever the edit
        (:meth:`PolicyIndex.derive`); only the first request builds one."""
        compiled = self._compiled
        live = object_tables(self.policy)
        if compiled is not None and compiled.tables == live:
            self._count(reuses=1)
            return compiled
        if compiled is None:
            index = PolicyIndex(self.policy, live)
            self._count(rebuilds=1)
        else:
            index = compiled.index.derive(live)
            self._count(patches=1)
        compiled = CompiledPolicy(
            tables=index.object_tables(),
            index=index,
            rules=compiled.rules if compiled is not None else None,
        )
        self._compiled = compiled
        return compiled

    def _count(self, **deltas: int) -> None:
        spent = _SPENT.get()
        with self._stats_lock:
            for name, delta in deltas.items():
                self._compile_stats[name] += delta
                if spent is not None:
                    spent[name] += delta

    def build_index(self) -> PolicyIndex:
        """The dependency index over the current desired state.

        Shared by every caller and never edited: the next policy gets its
        own index, this one keeps describing the policy it was built from.
        """
        return self._compiled_policy().index

    def logical_rules(
        self, index: Optional[PolicyIndex] = None
    ) -> Dict[str, RuleSequence]:
        """The L-type rules: what every leaf should hold (desired state).

        Per switch equal to ``compile_logical_rules(self.policy)`` — same
        rules, same order — as immutable sequences in a dict of the
        caller's own.  ``index`` is accepted for the callers that thread
        :meth:`build_index`'s result through; any index of the live policy
        gives the same rules, so it is not consulted.
        """
        return dict(self._compiled_rules().by_switch)

    def _compiled_rules(self) -> CompiledRules:
        """The logical rules together with the index they were compiled
        from: one read of the compiled policy, so the two always agree."""
        compiled = self._compiled_policy()
        rules = compiled.rules
        if rules is None or rules.index is not compiled.index:
            rules = CompiledRules.build(compiled.index, previous=rules)
            self._compiled = dataclasses.replace(compiled, rules=rules)
            self._count(
                pairs_compared=rules.pairs_compared,
                pairs_recompiled=rules.pairs_recompiled,
                switches_reassembled=rules.switches_reassembled,
            )
        return rules

    def compile_stats(self) -> Dict[str, int]:
        """Calls served from the compiled policy versus work redone.

        ``reuses``/``patches``/``rebuilds`` count :meth:`build_index` and
        :meth:`logical_rules` calls that found the compiled policy valid /
        derived the next index from the held one (any edit) / built the
        first index cold — so ``rebuilds`` stays at one for the
        controller's life.  Of the logical-rule compiles,
        ``pairs_compared`` counts the pairs whose inputs were compared with
        the previous compile's (a derivation's moved pairs; every pair
        when the previous compile is not of the index this one was derived
        from), ``pairs_recompiled`` and ``switches_reassembled`` what could
        not be taken from it.  A daemon on the fast path shows only
        ``reuses`` moving.
        """
        with self._stats_lock:
            return dict(self._compile_stats)

    @contextlib.contextmanager
    def _compile_span(self, name: str) -> Iterator[Dict[str, int]]:
        """``span(name)`` carrying what the enclosed compile requests cost —
        the :meth:`compile_stats` movement these requests caused, not what
        another thread's did meanwhile.  Yields the tally (complete on exit)."""
        spent = dict.fromkeys(self._compile_stats, 0)
        token = _SPENT.set(spent)
        try:
            with span(name) as current:
                yield spent
                for key, value in spent.items():
                    current.count(key, value)
        finally:
            _SPENT.reset(token)

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def deploy(
        self,
        index: Optional[PolicyIndex] = None,
        record_initial_changes: bool = True,
    ) -> Dict[str, DeliveryReport]:
        """Push the full desired state to every leaf switch.

        Returns the per-switch delivery reports, booked like every push
        (:meth:`push`).
        """
        self.clock.tick()
        if record_initial_changes:
            self._record_initial_changes()
        index = index or self.build_index()
        batches = build_instruction_batches(
            self.policy,
            index=index,
            operation=Operation.ADD,
            issued_at=self.clock.peek(),
        )
        if not batches:
            raise DeploymentError(
                "nothing to deploy: no endpoint of the policy is attached to a switch"
            )
        reports = self.push(batches, "deployment", "instruction(s)")
        self.deployment_reports.append(reports)
        return reports

    def push(
        self, batches: Mapping[str, SwitchBatch], kind: str, unit: str
    ) -> Dict[str, DeliveryReport]:
        """Deliver per-switch batches in switch-uid order and book each
        outcome in the controller fault log: every push to a switch goes
        through here, a deployment's and a churn event's alike.

        A switch that took nothing is logged unreachable ("``kind`` push
        failed"), one that lost part of its batch as a channel disruption
        ("N ``unit`` were not applied").  A batch that landed whole clears
        the switch's earlier records: the switch is reachable again.
        """
        now = self.clock.peek()
        reports = {}
        for switch_uid, (instructions, attachments) in sorted(batches.items()):
            report = self.channel.deliver(switch_uid, instructions, attachments)
            reports[switch_uid] = report
            if report.status is DeliveryStatus.DELIVERED:
                self.fault_log.clear_device(switch_uid, now)
                continue
            if report.status is DeliveryStatus.UNREACHABLE:
                code = FaultCode.SWITCH_UNREACHABLE
                detail = f"{kind} push failed: switch did not acknowledge instructions"
            else:
                code = FaultCode.CHANNEL_DISRUPTION
                detail = f"{report.dropped} {unit} were not applied"
            self.fault_log.raise_fault(now, switch_uid, code, detail)
        return reports

    # ------------------------------------------------------------------ #
    # Policy mutation (management actions)
    # ------------------------------------------------------------------ #
    def add_object(
        self, tenant_name: str, obj: PolicyObject, detail: str = ""
    ) -> None:
        """Add a new object to the desired state and record the change."""
        tenant = self.policy.tenants[tenant_name]
        adders = {
            "vrf": tenant.add_vrf,
            "epg": tenant.add_epg,
            "contract": tenant.add_contract,
            "filter": tenant.add_filter,
            "endpoint": tenant.add_endpoint,
        }
        adder = adders.get(obj.object_type.value)
        if adder is None:
            raise DeploymentError(f"cannot add object of type {obj.object_type!r}")
        adder(obj)
        self.clock.tick()
        self.record_change(obj, Operation.ADD, detail=detail)

    def modify_object(
        self, tenant_name: str, obj: PolicyObject, detail: str = ""
    ) -> None:
        """Replace an existing object in the desired state and record the change."""
        self._table_holding(tenant_name, obj, "modify")[obj.uid] = obj
        self.clock.tick()
        self.record_change(obj, Operation.MODIFY, detail=detail)

    def delete_object(
        self, tenant_name: str, obj: PolicyObject, detail: str = ""
    ) -> None:
        """Remove an object from the desired state and record the change."""
        del self._table_holding(tenant_name, obj, "delete")[obj.uid]
        self.clock.tick()
        self.record_change(obj, Operation.DELETE, detail=detail)

    def _table_holding(
        self, tenant_name: str, obj: PolicyObject, action: str
    ) -> Dict[str, PolicyObject]:
        """The tenant table holding ``obj``'s uid (``action`` names the edit
        a :class:`DeploymentError` refuses when there is none)."""
        tenant = self.policy.tenants[tenant_name]
        table = {
            "vrf": tenant.vrfs,
            "epg": tenant.epgs,
            "contract": tenant.contracts,
            "filter": tenant.filters,
            "endpoint": tenant.endpoints,
        }.get(obj.object_type.value)
        if table is None or obj.uid not in table:
            raise DeploymentError(f"cannot {action} unknown object {obj.uid!r}")
        return table

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def collect_deployed_rules(self) -> Dict[str, RuleSequence]:
        """Collect the T-type rules from every leaf TCAM."""
        return self.fabric.collect_tcam_rules()

    def all_fault_records(self):
        """Device fault records plus the controller's own observations."""
        records = list(self.fabric.fault_records()) + self.fault_log.records()
        return sorted(records, key=lambda record: (record.raised_at, record.device_uid))

    def summary(self) -> Dict[str, int]:
        return {
            **self.policy.summary(),
            "epg_pairs": len(self.build_index().pairs),
            "deployments": len(self.deployment_reports),
            "change_records": len(self.change_log),
            "controller_faults": len(self.fault_log),
        }
