"""Atomic predicates over the rule match space, as integer bitsets.

The ROBDD engine (``repro.verify.bdd``) re-derives the structure of the
header space from scratch for every switch: each rule becomes a ~60-node
cube and every union/diff walks those nodes.  Tracing (PR 6) attributed
~90% of parallel wall time to exactly that node churn.  The atomic-predicate
engine removes it by observing what the BDD never exploits: rules produced
by this control plane constrain only five fields, three of which
(``vrf_scope``, ``src_epg``, ``dst_epg``) are always exact.  Only the
protocol and port fields can be wildcarded, so the *atoms* of the reachable
predicate algebra — the coarsest partition of the header space such that
every rule's match is a union of blocks — factor into:

* one block per distinct ``(vrf_scope, src_epg, dst_epg)`` triple, and
* within a triple, the product of per-field equivalence classes for the
  protocol and port: one class per *observed* concrete value, plus one
  "everything else" class (index 0) absorbing the unobserved remainder of
  the field's domain.

An :class:`AtomTable` accumulates those classes in **one pass over the
match keys** and never forgets them: classes only grow (monotone
refinement), so re-observing an unchanged snapshot is a no-op and a rule
delta patches the table instead of rebuilding it — `IncrementalChecker`
refreshes and churn checkpoints reuse the same table across rounds.

Each match key then becomes a bitset (a Python int) over the
``protocol × port`` atom grid of its triple, and a rule *set* is the OR of
its allow keys' bitsets per triple.  L-T equivalence is integer equality
per triple; the missing/extra regions are ``l & ~t`` / ``t & ~l``.  This is
exact with respect to the BDD semantics: every atom cell lies entirely
inside or outside every expressible rule cube (exact values are classes of
their own; wildcards cover every class of their field, including the
"other" class which completes the field's domain), so set algebra on atoms
and on packets agree.

The table works on match keys, not rule objects (the checker's inputs carry
their keys: :class:`~repro.rules.RuleSequence`), and everything it computes
is **per triple**: a triple's region depends on that triple's allow keys and
on nothing else.  Two sides holding the same allow keys under a triple
therefore have equal regions there by construction, whatever wildcards are
involved — which is what lets
:class:`~repro.verify.checker.EquivalenceChecker` call :meth:`regions` only
on the triples a key-set difference touches and still reproduce the
full-universe answer exactly.  It needs no regions at all under a triple
whose allow keys are all :meth:`exact` on both sides: an exact key's bits
are one atom, the cell of its protocol and port classes, so distinct exact
keys are disjoint cubes, and since every atom lies wholly inside or outside
every cube, each allow key one side holds and the other lacks is exactly
what the regions would report there.  Only where a wildcard can overlap
another key do regions decide.  Observation (:meth:`observe_keys`) doubles as
validation: every allow key's fields are checked against the rule space
before it can contribute a class.

Refinement never changes a verdict — observing keys from *other* switches
(the table is fabric-global, and worker processes share one table per rule
space) only splits atoms both L and T treat uniformly — so tables at
different refinement levels, or grown in different orders, produce
identical reports.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set, Tuple

from ..exceptions import VerificationError
from ..rules import MatchKey
from .encoding import _PROTOCOL_CODES, DEFAULT_RULE_SPACE, RuleSpace

__all__ = ["AtomTable"]

#: A triple of always-exact fields: every atom block lives under one of these.
Triple = Tuple[int, int, int]


class AtomTable:
    """Monotonically-refined atomic predicates for one rule space.

    The table is cheap to create (empty dicts) and meant to be long-lived:
    attach one to an :class:`~repro.verify.checker.EquivalenceChecker` and
    every check patches it in place via :meth:`observe_keys`.  ``version``
    counts refinements; derived masks and per-key bitsets are cached per
    version, so a quiescent fabric pays dictionary lookups only.
    """

    def __init__(self, rule_space: Optional[RuleSpace] = None) -> None:
        self.space = rule_space or DEFAULT_RULE_SPACE
        self._protocol_domain = 1 << self.space.protocol.width
        self._port_domain = 1 << self.space.port.width
        # Class index 0 is the field's "everything else" block; observed
        # concrete values get classes 1, 2, ... in observation order.  The
        # order is irrelevant to verdicts (atoms are compared set-wise per
        # triple), so tables grown in different orders stay interchangeable.
        self._protocol_classes: Dict[str, int] = {}
        self._port_classes: Dict[int, int] = {}
        #: Bumped whenever a new class appears; cache invalidation token.
        self.version = 0
        #: observe_* calls that grew the table (the "patch" counter) and
        #: calls that found nothing new (the reuse the incremental path buys).
        self.patches = 0
        self.noop_observations = 0
        self._masks_version = -1
        self._nq = 1
        self._row_mask = 0
        self._col_unit = 0
        self._full_mask = 0
        #: (protocol, port) -> bitset under the current masks.
        self._bits_cache: Dict[Tuple[Any, Any], int] = {}

    # ------------------------------------------------------------------ #
    # Observation (the one pass that builds — and later patches — atoms)
    # ------------------------------------------------------------------ #
    def observe_keys(self, keys: Iterable[MatchKey]) -> int:
        """Fold match keys into the table; returns classes added.

        Only ``allow`` keys are examined, mirroring ``encode_ruleset``: deny
        rules contribute nothing to the allowed set, and the BDD engine never
        validates their field values either.  Field values are validated
        with the same :class:`VerificationError` contract as the BDD
        encoder, so an invalid rule fails identically under either engine.
        """
        added = 0
        space = self.space
        vrf_max = space.vrf.max_value
        src_max = space.src_epg.max_value
        dst_max = space.dst_epg.max_value
        protocol_classes = self._protocol_classes
        port_classes = self._port_classes
        for vrf_scope, src_epg, dst_epg, protocol, port, action in keys:
            if action != "allow":
                continue
            if not (
                0 <= vrf_scope <= vrf_max
                and 0 <= src_epg <= src_max
                and 0 <= dst_epg <= dst_max
            ):
                # Off the hot path: name the first offending field.
                self._validate_exact(space.vrf, vrf_scope)
                self._validate_exact(space.src_epg, src_epg)
                self._validate_exact(space.dst_epg, dst_epg)
            # A value with a class was validated when the class was made.
            if protocol not in protocol_classes and protocol != "any":
                if protocol not in _PROTOCOL_CODES:
                    raise VerificationError(f"unsupported protocol {protocol!r}")
                protocol_classes[protocol] = len(protocol_classes) + 1
                added += 1
            if port not in port_classes and port is not None:
                self._validate_exact(space.port, port)
                port_classes[port] = len(port_classes) + 1
                added += 1
        if added:
            self.version += added
            self.patches += 1
        else:
            self.noop_observations += 1
        return added

    @staticmethod
    def _validate_exact(layout, value: int) -> None:
        if value < 0 or value > layout.max_value:
            raise VerificationError(
                f"{layout.name} value {value} does not fit in {layout.width} bits"
            )

    # ------------------------------------------------------------------ #
    # Derived masks (recomputed lazily, once per refinement)
    # ------------------------------------------------------------------ #
    def _refresh_masks(self) -> None:
        if self._masks_version == self.version:
            return
        nq = len(self._port_classes) + 1
        np_ = len(self._protocol_classes) + 1
        # A wildcard must cover every *non-empty* class of its field.  The
        # "other" class is empty exactly when every domain value has been
        # observed — impossible for the 2-bit protocol field only if all 4
        # codes were named, which the 3-entry protocol vocabulary forbids,
        # but reachable in principle for ports.
        row_mask = (1 << nq) - 1
        if len(self._port_classes) >= self._port_domain:
            row_mask &= ~1
        col_unit = 0
        for pc in range(np_):
            col_unit |= 1 << (pc * nq)
        if len(self._protocol_classes) >= self._protocol_domain:
            col_unit &= ~1
        self._nq = nq
        self._row_mask = row_mask
        self._col_unit = col_unit
        # Disjoint shifts: row_mask < 2**nq and col_unit only has bits at
        # multiples of nq, so the product is the OR of the shifted rows.
        self._full_mask = row_mask * col_unit
        self._bits_cache.clear()
        self._masks_version = self.version

    # ------------------------------------------------------------------ #
    # Bitsets
    # ------------------------------------------------------------------ #
    @staticmethod
    def exact(key: MatchKey) -> bool:
        """Whether ``key`` wildcards neither protocol nor port: its
        :meth:`bits` are one atom, the cell of its own two classes, so two
        distinct exact keys under one triple never overlap."""
        return key[3] != "any" and key[4] is not None

    def bits(self, protocol: str, port: Optional[int]) -> int:
        """The atom bitset of one (observed) protocol/port match, within
        whichever triple block the key names.

        :meth:`regions` and :meth:`select_keys` refresh the masks once per
        call and read the cache this fills inline, calling here on a miss
        only."""
        self._refresh_masks()
        cache_key = (protocol, port)
        bits = self._bits_cache.get(cache_key)
        if bits is None:
            nq = self._nq
            if protocol == "any":
                if port is None:
                    bits = self._full_mask
                else:
                    bits = self._col_unit << self._port_classes[port]
            elif port is None:
                bits = self._row_mask << (self._protocol_classes[protocol] * nq)
            else:
                bits = 1 << (
                    self._protocol_classes[protocol] * nq + self._port_classes[port]
                )
            self._bits_cache[cache_key] = bits
        return bits

    def regions(self, keys: Iterable[MatchKey]) -> Dict[Triple, int]:
        """Per-triple allowed-set bitsets: the OR of the allow keys' bitsets.

        Zero entries are never created, so two key sets allow the same
        traffic iff their region dicts compare equal — and since a triple's
        region is a function of that triple's allow keys alone, two sides
        holding the same allow keys under a triple agree on it by
        construction (what lets the checker scope this to the triples a
        key-set difference touches).  Duplicates and order are irrelevant.
        """
        self._refresh_masks()
        cached = self._bits_cache.get
        regions: Dict[Triple, int] = {}
        held = regions.get
        for vrf_scope, src_epg, dst_epg, protocol, port, action in keys:
            if action != "allow":
                continue
            bits = cached((protocol, port))
            if bits is None:
                bits = self.bits(protocol, port)
            triple = (vrf_scope, src_epg, dst_epg)
            regions[triple] = held(triple, 0) | bits
        return regions

    @staticmethod
    def diff_regions(
        left: Dict[Triple, int], right: Dict[Triple, int]
    ) -> Dict[Triple, int]:
        """Per-triple ``left & ~right`` with zero entries dropped."""
        diff: Dict[Triple, int] = {}
        for triple, l_bits in left.items():
            remainder = l_bits & ~right.get(triple, 0)
            if remainder:
                diff[triple] = remainder
        return diff

    def select_keys(
        self, keys: Iterable[MatchKey], regions: Dict[Triple, int]
    ) -> Set[MatchKey]:
        """The allow keys whose match intersects ``regions``.

        The BDD engine's reporting rule at key level: skip denies, keep a
        rule iff its cube overlaps the difference region.
        """
        selected: Set[MatchKey] = set()
        if not regions:
            return selected
        self._refresh_masks()
        cached = self._bits_cache.get
        for key in keys:
            vrf_scope, src_epg, dst_epg, protocol, port, action = key
            if action != "allow":
                continue
            region = regions.get((vrf_scope, src_epg, dst_epg))
            if not region:
                continue
            bits = cached((protocol, port))
            if bits is None:
                bits = self.bits(protocol, port)
            if bits & region:
                selected.add(key)
        return selected

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def atom_count(self) -> int:
        """Atoms per triple block: the protocol × port class-grid size."""
        return (len(self._protocol_classes) + 1) * (len(self._port_classes) + 1)

    def stats(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "protocol_classes": len(self._protocol_classes) + 1,
            "port_classes": len(self._port_classes) + 1,
            "atoms_per_triple": self.atom_count(),
            "patches": self.patches,
            "noop_observations": self.noop_observations,
        }
