"""Policy compiler: desired state → per-switch logical rules and instructions.

Two outputs, both derived from the same :class:`~repro.policy.graph.PolicyIndex`:

* **Logical rules (L)** — the TCAM rules every leaf *should* hold if the
  policy were deployed perfectly.  The L-T equivalence checker compares
  these against the collected TCAM snapshots.
* **Instruction batches** — the per-switch stream of object add/modify/delete
  operations (plus endpoint attachment notifications) the controller pushes
  through the control channel.  A healthy agent that applies the whole batch
  renders exactly the logical rules for its switch.

:func:`compile_logical_rules` is the from-scratch compile and the reference;
:class:`CompiledRules` is the same result assembled with whatever an earlier
compile of a slightly different policy can still vouch for, which is what
:meth:`Controller.logical_rules` serves.  Its index is derived from the
earlier compile's, so it re-examines only the pairs that derivation moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..policy.graph import PolicyIndex
from ..policy.objects import EpgPair, PolicyObject
from ..policy.tenant import NetworkPolicy
from ..protocol import AttachEndpoint, Instruction, Operation
from ..rules import MatchKey, RuleSequence, TcamRule, pair_render_key, rules_for_pair

__all__ = [
    "CompiledRules",
    "compile_logical_rules",
    "compile_pair_rules",
    "pair_inputs",
    "build_instruction_batch_for_switch",
    "build_instruction_batches",
    "SwitchBatch",
]

#: Deterministic instruction ordering within a batch (see
#: :func:`build_instruction_batches`): VRFs, then filters, then contracts,
#: then EPGs, ties broken by uid.
_TYPE_ORDER = {"vrf": 0, "filter": 1, "contract": 2, "epg": 3}

#: Per-switch instruction batch: (instructions, endpoint attachments).
SwitchBatch = Tuple[List[Instruction], List[AttachEndpoint]]


def pair_inputs(index: PolicyIndex, pair) -> Tuple:
    """Everything one EPG pair's rules are a function of.

    The arguments of :func:`~repro.rules.rules_for_pair` — VRF, both EPGs,
    and per contract its filters — as one tuple of frozen policy objects.
    Two compiles tell that a pair's rules did not change by its
    :func:`~repro.rules.pair_render_key`, not by these whole objects.
    """
    epg_a = index.epg(pair.first)
    epg_b = index.epg(pair.second)
    vrf = index.vrf(epg_a.vrf_uid)
    contracts = []
    for contract_uid in index.contracts_for_pair(pair):
        contract = index.contract(contract_uid)
        filters = []
        for filter_uid in contract.filter_uids:
            try:
                filters.append((filter_uid, index.filter(filter_uid)))
            except KeyError:
                continue
        contracts.append((contract_uid, tuple(filters)))
    return vrf, epg_a, epg_b, tuple(contracts)


def _renders_alike(held: Tuple, inputs: Tuple) -> bool:
    """Whether two :func:`pair_inputs` render the same rules: whether their
    :func:`~repro.rules.pair_render_key` agree."""
    return pair_render_key(*held) == pair_render_key(*inputs)


def compile_pair_rules(index: PolicyIndex, pair) -> List[TcamRule]:
    """The rules one EPG pair contributes (before per-switch deduplication)."""
    return rules_for_pair(*pair_inputs(index, pair))


def compile_logical_rules(
    policy: NetworkPolicy,
    index: Optional[PolicyIndex] = None,
) -> Dict[str, List[TcamRule]]:
    """Compile the policy into the per-leaf logical rule sets (the L side).

    For every EPG pair the rules are installed on every switch that hosts an
    endpoint of either EPG (see :meth:`NetworkPolicy.pairs_on_switch`); rules
    for different pairs that happen to share a match are deduplicated per
    switch, mirroring TCAM behaviour.
    """
    index = index or PolicyIndex(policy)
    per_switch: Dict[str, Dict] = {}
    for pair in index.pairs:
        pair_rules = compile_pair_rules(index, pair)
        for switch_uid in index.switches_for_pair(pair):
            bucket = per_switch.setdefault(switch_uid, {})
            for rule in pair_rules:
                bucket.setdefault(rule.match_key(), rule)
    return {
        switch: list(rules.values()) for switch, rules in sorted(per_switch.items())
    }


#: One pair's rendered rules beside their match keys, position by position
#: (a switch's assembly zips them, which beats a ``match_key()`` call per rule).
PairRules = Tuple[Tuple[TcamRule, ...], Tuple[MatchKey, ...]]


@dataclass(frozen=True)
class CompiledRules:
    """:func:`compile_logical_rules` of one index, plus what lets the next
    compile reuse it piecewise.

    ``by_switch`` equals ``compile_logical_rules(index.policy, index)`` —
    same switches, same rules, same order.  ``pairs`` remembers each pair's
    rules (and their match keys, derived once per render) under the
    :func:`pair_inputs` they were rendered from and ``parts`` each switch's
    pair renders, so :meth:`build` over an edited policy re-renders only
    pairs whose :func:`~repro.rules.pair_render_key` differs — not a pair
    one of whose EPGs only gained or lost a contract — and re-assembles
    only switches one of whose pairs was re-rendered.  A switch that was
    not re-assembled keeps its previous :class:`~repro.rules.RuleSequence`
    *object*, which is how a holder of the previous compile tells what
    moved.
    """

    index: PolicyIndex
    by_switch: Dict[str, RuleSequence]
    pairs: Dict[EpgPair, Tuple[Tuple, PairRules]]
    parts: Dict[str, Tuple[PairRules, ...]]
    #: What building this compile cost beyond what ``previous`` vouched for.
    pairs_compared: int = 0
    pairs_recompiled: int = 0
    switches_reassembled: int = 0

    @classmethod
    def build(
        cls, index: PolicyIndex, previous: Optional["CompiledRules"] = None
    ) -> "CompiledRules":
        """The compile of ``index``, reusing what ``previous`` vouches for.

        When ``index`` was derived from ``previous.index`` only the pairs
        that derivation moved (:meth:`PolicyIndex.pairs_moved_since`) have
        their render keys compared; every other pair's render is
        ``previous``'s.  Otherwise every pair's key is.
        """
        known_pairs, moved = {}, None
        if previous is not None:
            known_pairs = previous.pairs
            moved = index.pairs_moved_since(previous.index)
        pairs: Dict[EpgPair, Tuple[Tuple, PairRules]] = {}
        pairs_compared = pairs_recompiled = 0
        for pair in index.pairs:
            known = known_pairs.get(pair)
            if known is None or moved is None or pair in moved:
                inputs = pair_inputs(index, pair)
                pairs_compared += 1
                if known is None or not _renders_alike(known[0], inputs):
                    rules = tuple(rules_for_pair(*inputs))
                    known = (inputs, (rules, tuple(map(TcamRule.match_key, rules))))
                    pairs_recompiled += 1
            pairs[pair] = known

        by_switch: Dict[str, RuleSequence] = {}
        parts: Dict[str, Tuple[PairRules, ...]] = {}
        switches_reassembled = 0
        for switch_uid in index.all_switches():
            switch_parts = tuple(
                pairs[pair][1] for pair in index.pairs_on_switch(switch_uid)
            )
            parts[switch_uid] = switch_parts
            if previous is not None and previous.parts.get(switch_uid) == switch_parts:
                by_switch[switch_uid] = previous.by_switch[switch_uid]
                continue
            bucket: Dict[MatchKey, TcamRule] = {}
            for rules, keys in switch_parts:
                for key, rule in zip(keys, rules):
                    bucket.setdefault(key, rule)
            by_switch[switch_uid] = RuleSequence.keyed(bucket)
            switches_reassembled += 1
        return cls(
            index=index,
            by_switch=by_switch,
            pairs=pairs,
            parts=parts,
            pairs_compared=pairs_compared,
            pairs_recompiled=pairs_recompiled,
            switches_reassembled=switches_reassembled,
        )


def _switch_batch(
    index: PolicyIndex,
    switch_uid: str,
    lookup: Callable[[str], Optional[PolicyObject]],
    attachments: List[AttachEndpoint],
    operation: Operation,
    issued_at: int,
) -> SwitchBatch:
    """One switch's batch; ``lookup`` resolves a uid to its object (or None)."""
    needed: Dict[str, PolicyObject] = {}
    for pair in index.pairs_on_switch(switch_uid):
        for uid in index.risks_for_pair(pair):
            obj = lookup(uid)
            if obj is not None:
                needed[uid] = obj
    # EPGs that are attached locally but have no pairs yet still need
    # their EPG and VRF objects (they may gain contracts later).
    for attach in attachments:
        epg = lookup(attach.epg_uid)
        if epg is not None:
            needed[epg.uid] = epg
            vrf = lookup(getattr(epg, "vrf_uid", ""))
            if vrf is not None:
                needed[vrf.uid] = vrf
    ordered = sorted(
        needed.values(),
        key=lambda obj: (_TYPE_ORDER.get(obj.object_type.value, 9), obj.uid),
    )
    instructions = [
        Instruction(operation=operation, obj=obj, sequence=seq, issued_at=issued_at)
        for seq, obj in enumerate(ordered)
    ]
    return instructions, attachments


def build_instruction_batch_for_switch(
    policy: NetworkPolicy,
    switch_uid: str,
    index: Optional[PolicyIndex] = None,
    operation: Operation = Operation.ADD,
    issued_at: int = 0,
) -> SwitchBatch:
    """Build one switch's full-state batch without compiling the whole fabric.

    For any switch the result equals the corresponding entry of
    :func:`build_instruction_batches` (same objects, same deterministic
    ordering), but only this switch's pairs are visited and object uids are
    resolved through the policy's own lookup instead of materializing a
    fabric-wide uid map — the per-switch resynchronisation path (a churn
    driver re-pushing a rebooted or drain-restored leaf) stays cheap even
    at datacenter scale.  The one remaining whole-policy walk is the
    endpoint scan for this switch's attachments.
    """
    index = index or PolicyIndex(policy)

    def lookup(uid: str) -> Optional[PolicyObject]:
        return policy.get(uid) if uid in policy else None

    attachments = [
        AttachEndpoint(
            endpoint_uid=endpoint.uid,
            epg_uid=endpoint.epg_uid,
            switch_uid=switch_uid,
            issued_at=issued_at,
        )
        for endpoint in policy.endpoints()
        if endpoint.switch_uid == switch_uid
    ]
    return _switch_batch(index, switch_uid, lookup, attachments, operation, issued_at)


def build_instruction_batches(
    policy: NetworkPolicy,
    index: Optional[PolicyIndex] = None,
    operation: Operation = Operation.ADD,
    issued_at: int = 0,
) -> Dict[str, SwitchBatch]:
    """Build the per-switch instruction batches for a full-state deployment.

    Each switch receives every policy object needed to render the rules of
    the EPG pairs present on it — the VRFs, both EPGs, the contracts and the
    filters (Figure 1(c) shows S1's partial logical view containing EPG:App
    even though no App endpoint is attached to S1) — plus the attachment
    notifications for its local endpoints.

    Instructions are ordered deterministically (VRFs, then filters, then
    contracts, then EPGs) so that a crash after *k* instructions is a
    reproducible fault.
    """
    index = index or PolicyIndex(policy)
    batches: Dict[str, SwitchBatch] = {}

    # Pre-index the objects by uid for quick lookup.
    objects_by_uid: Dict[str, PolicyObject] = {obj.uid: obj for obj in policy.objects()}

    # Endpoint attachments per switch.
    attachments_per_switch: Dict[str, List[AttachEndpoint]] = {}
    for endpoint in policy.endpoints():
        if endpoint.switch_uid is None:
            continue
        attachments_per_switch.setdefault(endpoint.switch_uid, []).append(
            AttachEndpoint(
                endpoint_uid=endpoint.uid,
                epg_uid=endpoint.epg_uid,
                switch_uid=endpoint.switch_uid,
                issued_at=issued_at,
            )
        )

    for switch_uid in index.all_switches():
        batches[switch_uid] = _switch_batch(
            index,
            switch_uid,
            objects_by_uid.get,
            attachments_per_switch.get(switch_uid, []),
            operation,
            issued_at,
        )

    # Switches that host endpoints but no pairs at all still need a batch
    # (attachments only) so the agent learns its local endpoints.
    for switch_uid, attaches in attachments_per_switch.items():
        if switch_uid not in batches:
            batches[switch_uid] = _switch_batch(
                index, switch_uid, objects_by_uid.get, attaches, operation, issued_at
            )

    return batches
