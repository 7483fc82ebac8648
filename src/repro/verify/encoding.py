"""Encoding of TCAM rules into BDD variables.

A rule matches packets on five header-derived fields: the VRF scope, the
source and destination EPG class ids, the protocol and the destination port.
Each field is encoded over a fixed number of boolean variables; a rule is the
conjunction (cube) of its field bits, and a rule *set* is the disjunction of
its rules' cubes.  Wildcards (protocol ``"any"``, port ``None``) simply leave
their field's variables unconstrained, which is what gives the BDD approach
its advantage over naive set comparison: a wildcard T rule correctly covers
the more specific L rules it subsumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from ..exceptions import VerificationError
from ..rules import TcamRule
from .bdd import BDD

__all__ = ["RuleSpace", "DEFAULT_RULE_SPACE"]

_PROTOCOL_CODES = {"tcp": 0, "udp": 1, "icmp": 2}


@dataclass(frozen=True)
class FieldLayout:
    """Bit layout of one match field inside the variable ordering."""

    name: str
    offset: int
    width: int

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class RuleSpace:
    """The variable space used to encode rules of one deployment.

    The default widths accommodate the paper's production-cluster scale
    (thousands of EPGs, dozens of VRFs) with headroom.
    """

    def __init__(
        self,
        vrf_bits: int = 13,
        epg_bits: int = 15,
        protocol_bits: int = 2,
        port_bits: int = 16,
    ) -> None:
        offset = 0
        self.vrf = FieldLayout("vrf_scope", offset, vrf_bits)
        offset += vrf_bits
        self.src_epg = FieldLayout("src_epg", offset, epg_bits)
        offset += epg_bits
        self.dst_epg = FieldLayout("dst_epg", offset, epg_bits)
        offset += epg_bits
        self.protocol = FieldLayout("protocol", offset, protocol_bits)
        offset += protocol_bits
        self.port = FieldLayout("port", offset, port_bits)
        offset += port_bits
        self.num_vars = offset

    # ------------------------------------------------------------------ #
    # Manager / encoding
    # ------------------------------------------------------------------ #
    def new_manager(self) -> BDD:
        """A fresh BDD manager sized for this rule space."""
        return BDD(self.num_vars)

    def _field_assignment(self, layout: FieldLayout, value: int) -> Dict[int, bool]:
        if value < 0 or value > layout.max_value:
            raise VerificationError(
                f"{layout.name} value {value} does not fit in {layout.width} bits"
            )
        assignment: Dict[int, bool] = {}
        for bit in range(layout.width):
            assignment[layout.offset + bit] = bool((value >> bit) & 1)
        return assignment

    def rule_assignment(self, rule: TcamRule) -> Dict[int, bool]:
        """The (partial) variable assignment describing one rule's match.

        Wildcarded fields are left out of the assignment.
        """
        assignment: Dict[int, bool] = {}
        assignment.update(self._field_assignment(self.vrf, rule.vrf_scope))
        assignment.update(self._field_assignment(self.src_epg, rule.src_epg))
        assignment.update(self._field_assignment(self.dst_epg, rule.dst_epg))
        if rule.protocol != "any":
            code = _PROTOCOL_CODES.get(rule.protocol)
            if code is None:
                raise VerificationError(f"unsupported protocol {rule.protocol!r}")
            assignment.update(self._field_assignment(self.protocol, code))
        if rule.port is not None:
            assignment.update(self._field_assignment(self.port, rule.port))
        return assignment

    def encode_rule(self, manager: BDD, rule: TcamRule) -> int:
        """The BDD cube of one rule's match."""
        return manager.cube(self.rule_assignment(rule))

    def encode_ruleset(self, manager: BDD, rules: Iterable[TcamRule]) -> int:
        """The BDD of the packet set allowed by ``rules``.

        Only ``allow`` rules contribute: the policy model is whitelisting and
        the implicit deny matches everything else, so the "allowed set" fully
        characterises the deployed behaviour (a corrupted rule whose action
        was flipped to deny simply stops contributing).
        """
        cubes = [
            self.encode_rule(manager, rule) for rule in rules if rule.action == "allow"
        ]
        return manager.union_all(cubes)

    # ------------------------------------------------------------------ #
    # Decoding (for reporting small differences)
    # ------------------------------------------------------------------ #

#: Shared default rule space used by the checker unless a caller overrides it.
DEFAULT_RULE_SPACE = RuleSpace()
