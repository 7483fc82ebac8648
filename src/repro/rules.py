"""TCAM rule representation shared by the controller, fabric and checker.

A TCAM rule in this model matches on the same fields the paper's Figure 2
shows: the VRF scope, the source and destination EPG class ids, the protocol
and the destination port.  Every rule additionally carries *provenance* — the
uids of the policy objects it was derived from — because both the risk-model
augmentation (§III-C) and the fault injector ("all TCAM rules associated with
an object", §VI-A) need to go from a rule back to the objects it depends on.

Two rules are considered the *same rule* for equivalence checking when their
match/action part (:meth:`TcamRule.match_key`) is identical; provenance is
metadata and does not participate in L-T comparison.

A rule computes its match key once, when it is made, and every rule in the
process draws that key from one table (:class:`_KeyTable`): equal matches
share one key object, so the compiled L, the agents' renders and the TCAMs
hold the very same tuples and a set probe between L and T succeeds on its
identity check.  Keys still compare by value everywhere, so sharing is only
a speed-up: a key that was not shared costs a tuple compare, never a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from sys import getrefcount
from typing import AbstractSet, Collection, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .policy.objects import Contract, Epg, Filter, FilterEntry, PolicyObject, Vrf

__all__ = [
    "Action",
    "TcamRule",
    "MatchKey",
    "RuleSequence",
    "TcamSnapshot",
    "RuleCarrier",
    "RENDERED_FIELDS",
    "PROVENANCE",
    "render_key",
    "pair_render_key",
    "rules_for_pair_entry",
    "rules_for_pair",
]

#: Rule actions.  The policy model is whitelisting, so compiled rules are
#: always ``"allow"``; the implicit catch-all deny is represented separately
#: by the TCAM table.
Action = str

#: The hashable match/action tuple used for set comparison between L and T.
MatchKey = Tuple[int, int, int, str, Optional[int], str]

#: A rule's provenance as one tuple, read without a Python call per rule:
#: ``(src_epg_uid, dst_epg_uid, vrf_uid, contract_uid, filter_uid)``.  An
#: empty field names no object.
PROVENANCE = attrgetter(
    "src_epg_uid", "dst_epg_uid", "vrf_uid", "contract_uid", "filter_uid"
)


class _KeyTable(Dict[MatchKey, MatchKey]):
    """Every live match key, each mapped to itself: one object per match.

    Bounded by what is live.  Each time the table has doubled since its last
    sweep, the sweep drops the keys nothing outside it holds — amortised
    O(1) per new key.  A key held anywhere (a rule, a frozenset, a dict's
    keys) keeps its reference count above :attr:`UNHELD` and stays, so a
    TCAM rewritten with the rules it held stores the same key objects again.
    The sweep snapshots the keys with ``list()``, so a thread inserting
    meanwhile is safe; a key it drops that was taken just then is an equal
    key that is not shared, which costs speed, never a verdict.
    """

    #: ``sys.getrefcount`` of a key only the sweep can see: the table's key
    #: and value, the sweep's snapshot list and the call's argument (the
    #: same on CPython 3.10 to 3.13).
    UNHELD = 4
    #: Keys left by the last sweep.
    swept = 0

    def grew(self) -> None:
        """Note that a key was added: sweep if the table has doubled."""
        if len(self) > 2 * self.swept:
            self.sweep()

    def sweep(self) -> None:
        """Drop every key nothing outside the table holds."""
        keys = list(self)
        unheld = [count <= self.UNHELD for count in map(getrefcount, keys)]
        for key in compress(keys, unheld):
            self.pop(key, None)
        self.swept = len(self)


_KEYS = _KeyTable()


@dataclass(frozen=True)
class TcamRule:
    """A single access-control rule.

    Match fields
    ------------
    vrf_scope : numeric VRF scope id (``VRF:101``).
    src_epg / dst_epg : numeric EPG class ids.
    protocol : ``"tcp"`` / ``"udp"`` / ``"icmp"`` / ``"any"``.
    port : destination port, ``None`` meaning any port.
    action : ``"allow"`` or ``"deny"``.

    Provenance (not part of the match)
    ----------------------------------
    vrf_uid, src_epg_uid, dst_epg_uid, contract_uid, filter_uid : uids of the
    policy objects the rule was rendered from.
    """

    vrf_scope: int
    src_epg: int
    dst_epg: int
    protocol: str
    port: Optional[int]
    action: Action = "allow"
    # provenance ------------------------------------------------------- #
    vrf_uid: str = ""
    src_epg_uid: str = ""
    dst_epg_uid: str = ""
    contract_uid: str = ""
    filter_uid: str = ""

    def __post_init__(self) -> None:
        key = (self.vrf_scope, self.src_epg, self.dst_epg, self.protocol, self.port, self.action)
        shared = _KEYS.setdefault(key, key)
        if shared is key:
            _KEYS.grew()
        # Outside the fields, so eq, hash, repr, to_dict and replace ignore
        # it; set as the fields are, so the instance keeps its compact dict.
        object.__setattr__(self, "_key", shared)

    def match_key(self) -> MatchKey:
        """The hashable match/action tuple (provenance excluded), the one
        object every live rule with this match returns."""
        return self._key

    def to_dict(self) -> dict:
        """Match fields *and* provenance as one JSON-ready dict.

        Provenance is included so a rule that crosses a JSON boundary (the
        operator service) can be rebuilt exactly: reports round-tripped
        through :meth:`from_dict` keep their fingerprints byte-identical.
        """
        return {
            "vrf_scope": self.vrf_scope,
            "src_epg": self.src_epg,
            "dst_epg": self.dst_epg,
            "protocol": self.protocol,
            "port": self.port,
            "action": self.action,
            "vrf_uid": self.vrf_uid,
            "src_epg_uid": self.src_epg_uid,
            "dst_epg_uid": self.dst_epg_uid,
            "contract_uid": self.contract_uid,
            "filter_uid": self.filter_uid,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TcamRule":
        return cls(
            vrf_scope=data["vrf_scope"],
            src_epg=data["src_epg"],
            dst_epg=data["dst_epg"],
            protocol=data["protocol"],
            port=data["port"],
            action=data.get("action", "allow"),
            vrf_uid=data.get("vrf_uid", ""),
            src_epg_uid=data.get("src_epg_uid", ""),
            dst_epg_uid=data.get("dst_epg_uid", ""),
            contract_uid=data.get("contract_uid", ""),
            filter_uid=data.get("filter_uid", ""),
        )

    def objects(self) -> List[str]:
        """Uids of every policy object this rule depends on."""
        uids = []
        for uid in (self.vrf_uid, self.src_epg_uid, self.dst_epg_uid, self.contract_uid, self.filter_uid):
            if uid and uid not in uids:
                uids.append(uid)
        return uids

    def references(self, uid: str) -> bool:
        """``uid in self.objects()`` without building the list (an empty uid
        names no object, so it never matches)."""
        return bool(uid) and (
            uid == self.vrf_uid
            or uid == self.src_epg_uid
            or uid == self.dst_epg_uid
            or uid == self.contract_uid
            or uid == self.filter_uid
        )

    def describe(self) -> str:
        """Figure 2 style description, e.g. ``"VRF:101,Web,App,tcp/80 -> allow"``."""
        port = "any" if self.port is None else str(self.port)
        return (
            f"VRF:{self.vrf_scope},{self.src_epg_uid or self.src_epg},"
            f"{self.dst_epg_uid or self.dst_epg},{self.protocol}/{port} -> {self.action}"
        )


class RuleSequence(tuple):
    """L: an immutable rule sequence that memoizes its match keys.

    Carries a compiled policy's rules to the checker's key-set delta
    (:meth:`repro.verify.checker.EquivalenceChecker.check_switch`), which
    decides L-T equivalence on match keys: one built with :meth:`keyed`
    holds the dict it was built from as its key index and reads its keys
    and key set off it on first use.  Being a tuple, what a cache hands out
    cannot be edited in place; checked again and again, it keeps what a
    check derives from it.  T is a :class:`TcamSnapshot`.
    """

    _keys: Optional[Tuple[MatchKey, ...]] = None
    _key_set: Optional[FrozenSet[MatchKey]] = None
    #: The dict :meth:`keyed` was handed (never written again), let go once
    #: :meth:`key_set` is built from it: a compiled L's bucket dies with use.
    _index: Optional[Mapping[MatchKey, TcamRule]] = None
    _by_triple: Optional[Dict[Tuple[int, int, int], List[MatchKey]]] = None
    _wildcard_triples: Optional[FrozenSet[Tuple[int, int, int]]] = None
    #: Every atom table that validated and folded in this sequence's keys,
    #: appended by its checker (the audit's, each monitor partition's).
    observed_by: Tuple[object, ...] = ()
    #: Per atom table: its ``version`` and the per-triple regions of this
    #: sequence's keys the checker computed under it — filled triple by
    #: triple, dropped whole when the table refines.
    _regions: Optional[Dict[object, Tuple[int, Dict[Tuple[int, int, int], int]]]] = None
    #: Whether :meth:`select` has picked rules from this sequence once.
    _selected: bool = False
    #: Key → a position, and key → its other positions if repeated: what
    #: :meth:`select` reads from its second call on (never stale).
    _positions: Optional[Tuple[Dict[MatchKey, int], Dict[MatchKey, List[int]]]] = None

    @classmethod
    def of(cls, rules: Iterable[TcamRule]) -> "RuleCarrier":
        """``rules`` itself when it already is a carrier (a sequence or a
        :class:`TcamSnapshot`), else a copy as a sequence."""
        return rules if isinstance(rules, (cls, TcamSnapshot)) else cls(rules)

    @classmethod
    def keyed(cls, entries: Mapping[MatchKey, TcamRule]) -> "RuleSequence":
        """The rules of a dict keyed by their own match keys, in its order.

        The caller hands ``entries`` over and never writes it again (the
        compiler's bucket is a local): keys and key set are read off it when
        first asked for (``frozenset(dict)`` reuses the stored hashes).
        """
        sequence = cls(entries.values())
        sequence._index = entries
        return sequence

    @classmethod
    def from_keys(cls, keys: Iterable[MatchKey]) -> "RuleSequence":
        """Bare rules (no provenance) for ``keys``, in order, duplicates kept.

        How a shard worker rebuilds a rule set from the match keys that
        crossed the process boundary: the rules' keys are the process's
        shared ones, not the unpickled copies.
        """
        return cls(TcamRule(*key) for key in keys)

    def keys(self) -> Tuple[MatchKey, ...]:
        """The rules' match keys, in sequence order."""
        if self._keys is None:
            index = self._index
            self._keys = tuple(map(TcamRule.match_key, self) if index is None else index)
        return self._keys

    def key_set(self) -> FrozenSet[MatchKey]:
        """The rules' match/action set (what L-T equivalence is decided on)."""
        if self._key_set is None:
            index = self._index
            self._key_set = frozenset(self.keys() if index is None else index)
            self._index = None
        return self._key_set

    #: The rules' distinct match keys, for set algebra and ``len``.
    distinct_keys = key_set

    def keys_by_triple(self) -> Mapping[Tuple[int, int, int], List[MatchKey]]:
        """The distinct keys grouped by their ``(vrf_scope, src_epg, dst_epg)``."""
        if self._by_triple is None:
            groups: Dict[Tuple[int, int, int], List[MatchKey]] = {}
            for key in self.key_set():
                groups.setdefault(key[:3], []).append(key)
            self._by_triple = groups
        return self._by_triple

    def wildcard_triples(self) -> FrozenSet[Tuple[int, int, int]]:
        """The ``(vrf_scope, src_epg, dst_epg)`` triples under which this
        sequence holds an allow key that wildcards its protocol or port
        (:meth:`~repro.verify.atoms.AtomTable.exact`): one pass over the
        distinct keys, on the first call."""
        if self._wildcard_triples is None:
            # Imported here: the atom table's module imports this one.
            from .verify.atoms import AtomTable

            exact = AtomTable.exact
            self._wildcard_triples = frozenset(
                key[:3]
                for key in self.key_set()
                if key[5] == "allow" and not exact(key)
            )
        return self._wildcard_triples

    def regions_under(self, table) -> Dict[Tuple[int, int, int], int]:
        """The memo of this sequence's per-triple regions under ``table`` at
        its current ``version``: empty for a table or version not seen yet.

        A region is a function of the triple's keys and the table's classes,
        and a table's classes only change with its version, so what the
        memo holds is what recomputing it would give.
        """
        memos = self._regions
        if memos is None:
            memos = self._regions = {}
        held = memos.get(table)
        if held is None or held[0] != table.version:
            held = memos[table] = (table.version, {})
        return held[1]

    def positions_built(self) -> bool:
        """Whether :meth:`select` has built this sequence's position index."""
        return self._positions is not None

    def select(self, wanted: AbstractSet[MatchKey]) -> List[TcamRule]:
        """The rules whose key is in ``wanted``, in sequence order, duplicates kept.

        The first call scans the keys.  A sequence selected from again — a
        compiled L re-audited — builds a key → position index on its second
        call and reads it from then on: each wanted key marks its positions
        in a mask and :func:`~itertools.compress` picks the rules, one hash
        per wanted key instead of one per rule.  One selected from once (a
        shard worker's ``from_keys`` rebuild) never pays for an index.
        """
        if not wanted:
            return []
        if self._positions is None:
            if not self._selected:
                self._selected = True
                return list(compress(self, map(wanted.__contains__, self.keys())))
            keys = self.keys()
            # A repeated key maps to its last position; `repeats` holds the rest.
            position_of = dict(zip(keys, range(len(keys))))
            repeats: Dict[MatchKey, List[int]] = {}
            if len(position_of) != len(keys):
                for position, key in enumerate(keys):
                    if position_of[key] != position:
                        repeats.setdefault(key, []).append(position)
            self._positions = (position_of, repeats)
        position_of, repeats = self._positions
        mask = bytearray(len(self))
        for key in wanted:
            position = position_of.get(key)
            if position is not None:
                mask[position] = 1
        for key in repeats.keys() & wanted:
            for position in repeats[key]:
                mask[position] = 1
        return list(compress(self, mask))


class TcamSnapshot:
    """T: what a TCAM table held when it handed this out, read off the dict
    the table is keyed by (in table order), which it lends and never writes
    again — so a snapshot builds nothing.  It answers the checker as a
    :class:`RuleSequence` does, keeping only a key set built for a second
    check.  It may carry the net key change since the snapshot handed out
    before (:meth:`change_since`), naming that one by its token.
    """

    __slots__ = ("_entries", "_token", "_change", "_probed", "_key_set")

    def __init__(self, entries: Mapping[MatchKey, TcamRule], change: Optional[tuple] = None) -> None:
        self._entries = entries
        #: What a successor names this snapshot by.
        self._token = object()
        #: ``(the predecessor's token, keys added since, keys removed since)``.
        self._change = change
        self._probed = False
        self._key_set: Optional[FrozenSet[MatchKey]] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TcamRule]:
        return iter(self._entries.values())

    def keys(self) -> Tuple[MatchKey, ...]:
        """The rules' match keys, in table order."""
        return tuple(self._entries)

    def distinct_keys(self) -> Collection[MatchKey]:
        """The keys for set algebra and ``len``: the lent dict itself on the
        first call, :meth:`key_set` from the second (a held snapshot
        re-checked, as a sweep's clean leaves are: the cheaper side to probe)."""
        if self._probed:
            return self.key_set()
        self._probed = True
        return self._entries

    def key_set(self) -> FrozenSet[MatchKey]:
        """The keys as a frozenset, built once (the dict's stored hashes reused)."""
        if self._key_set is None:
            self._key_set = frozenset(self._entries)
        return self._key_set

    def change_since(
        self, earlier: "RuleCarrier"
    ) -> Optional[Tuple[AbstractSet[MatchKey], AbstractSet[MatchKey]]]:
        """``(added, removed)``, the keys gained and lost since ``earlier``,
        when the table made this one as ``earlier``'s successor; else None."""
        change = self._change
        if change is None or change[0] is not getattr(earlier, "_token", None):
            return None
        return change[1], change[2]

    def select(self, wanted: AbstractSet[MatchKey]) -> List[TcamRule]:
        """The rules whose key is in ``wanted``, in table order."""
        if not wanted:
            return []
        entries = self._entries
        return list(compress(entries.values(), map(wanted.__contains__, entries)))


#: Either carrier of a rule set's keys: a compiled L or a TCAM's T.
RuleCarrier = Union[RuleSequence, TcamSnapshot]


#: The fields of each policy object a rule rendered from it reads: the
#: numeric ids written into the match and the uids written into provenance,
#: the contract's filter list and the filters' entries.  Nothing else — an
#: EPG's ``provides`` / ``consumes`` (which pairs exist, not what a pair's
#: rules are), its ``vrf_uid`` (the VRF itself is an input), any ``name``.
RENDERED_FIELDS: Mapping[type, Tuple[str, ...]] = {
    Vrf: ("uid", "scope_id"),
    Epg: ("uid", "epg_id"),
    Contract: ("uid", "filter_uids"),
    Filter: ("uid", "entries"),
}
_RENDER_KEYS = {kind: attrgetter(*names) for kind, names in RENDERED_FIELDS.items()}


def render_key(obj: PolicyObject) -> Tuple:
    """``obj``'s :data:`RENDERED_FIELDS`: what a render compares to tell
    that an input did not change.  Two objects with equal keys render the
    same rules, provenance included, wherever they are used — so a render
    whose inputs' keys are those of an earlier one may reuse its rules."""
    return _RENDER_KEYS[type(obj)](obj)


def pair_render_key(
    vrf: Vrf,
    epg_a: Epg,
    epg_b: Epg,
    contracts: Sequence[Tuple[str, Sequence[Tuple[str, Filter]]]],
) -> Tuple:
    """:func:`render_key` over :func:`rules_for_pair`'s arguments."""
    return (
        render_key(vrf),
        render_key(epg_a),
        render_key(epg_b),
        tuple(
            (contract_uid, tuple((uid, render_key(flt)) for uid, flt in filters))
            for contract_uid, filters in contracts
        ),
    )


def rules_for_pair_entry(
    vrf: Vrf,
    epg_a: Epg,
    epg_b: Epg,
    contract_uid: str,
    filter_uid: str,
    entry: FilterEntry,
) -> List[TcamRule]:
    """Render the two directional allow rules for one filter entry of a pair.

    Mirrors Figure 2: each allowed traffic class between an EPG pair turns
    into one rule per direction (e.g. rules 5 and 6 for App↔DB on port 700).
    """
    forward = TcamRule(
        vrf_scope=vrf.scope_id,
        src_epg=epg_a.epg_id,
        dst_epg=epg_b.epg_id,
        protocol=entry.protocol,
        port=entry.port,
        action="allow",
        vrf_uid=vrf.uid,
        src_epg_uid=epg_a.uid,
        dst_epg_uid=epg_b.uid,
        contract_uid=contract_uid,
        filter_uid=filter_uid,
    )
    reverse = TcamRule(
        vrf_scope=vrf.scope_id,
        src_epg=epg_b.epg_id,
        dst_epg=epg_a.epg_id,
        protocol=entry.protocol,
        port=entry.port,
        action="allow",
        vrf_uid=vrf.uid,
        src_epg_uid=epg_b.uid,
        dst_epg_uid=epg_a.uid,
        contract_uid=contract_uid,
        filter_uid=filter_uid,
    )
    return [forward, reverse]


def rules_for_pair(
    vrf: Vrf,
    epg_a: Epg,
    epg_b: Epg,
    contracts: Sequence[Tuple[str, Sequence[Tuple[str, Filter]]]],
) -> List[TcamRule]:
    """Render every rule for an EPG pair.

    ``contracts`` is a sequence of ``(contract_uid, [(filter_uid, Filter), ...])``
    pairs describing the contracts binding the two EPGs and the filters each
    contract applies.  Duplicate match keys (e.g. two contracts allowing the
    same port) are collapsed, keeping the first provenance encountered, which
    matches how a real TCAM would store a single entry.
    """
    rules: list[TcamRule] = []
    seen: set[MatchKey] = set()
    for contract_uid, filters in contracts:
        for filter_uid, flt in filters:
            for entry in flt.entries:
                for rule in rules_for_pair_entry(vrf, epg_a, epg_b, contract_uid, filter_uid, entry):
                    key = rule.match_key()
                    if key not in seen:
                        seen.add(key)
                        rules.append(rule)
    return rules
