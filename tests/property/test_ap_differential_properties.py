"""Property-based differential tests: the atomic-predicate engine vs the BDD.

The AP engine's entire correctness story is "byte-identical to the BDD
oracle" — same verdicts, same reported rule objects in the same order, same
``semantic_fingerprint()``.  These properties hammer that claim on random
rule sets drawn from a deliberately nasty strategy: tiny id space (forced
overlaps), wildcard ports, ``any`` protocol, full-wildcard matches that
shadow everything else, and interleaved deny rules.

The production ``ap`` check is *delta-scoped* (atom regions only for the
triples the L/T key-set difference touches), so the suite also keeps the
computation it replaced — ``_full_universe_check``: regions over every rule
of both sides — as a second reference, and draws deployed sides that are
*edits* of the logical side (drops, extras, duplicates, reorders, wildcard
shadowing, deny flips), which is what a real TCAM is.
"""

import dataclasses
import operator

from hypothesis import given, settings, strategies as st

from repro.fabric.tcam import TcamTable
from repro.obs import TraceCollector, activated
from repro.rules import RuleSequence, TcamRule
from repro.verify import AtomTable, EquivalenceChecker
from repro.verify.checker import EquivalenceReport, SwitchCheckResult

# Tiny id space so rules collide, shadow, and subsume each other often.
# Wildcards (port=None, protocol="any") and denies are first-class citizens.
ap_rule_strategy = st.builds(
    TcamRule,
    vrf_scope=st.integers(min_value=1, max_value=2),
    src_epg=st.integers(min_value=1, max_value=4),
    dst_epg=st.integers(min_value=1, max_value=4),
    protocol=st.sampled_from(["tcp", "udp", "icmp", "any"]),
    port=st.sampled_from([22, 80, 443, 700, None]),
    action=st.sampled_from(["allow", "allow", "allow", "deny"]),
    vrf_uid=st.just("vrf:t/v"),
    src_epg_uid=st.sampled_from([f"epg:t/{i}" for i in range(1, 5)]),
    dst_epg_uid=st.sampled_from([f"epg:t/{i}" for i in range(1, 5)]),
    contract_uid=st.just("contract:t/c"),
    filter_uid=st.sampled_from(["filter:t/a", "filter:t/b"]),
)

ap_rule_lists = st.lists(ap_rule_strategy, max_size=30)


def _full_universe_check(logical, deployed) -> SwitchCheckResult:
    """The AP comparison as it was before scoping: observe and build regions
    over *every* rule of both sides, then scan both rule lists in order."""
    table = AtomTable()
    l_keys = [rule.match_key() for rule in logical]
    t_keys = [rule.match_key() for rule in deployed]
    table.observe_keys(l_keys)
    table.observe_keys(t_keys)
    l_regions, t_regions = table.regions(l_keys), table.regions(t_keys)
    result = SwitchCheckResult(
        switch_uid="s",
        equivalent=l_regions == t_regions,
        logical_count=len(logical),
        deployed_count=len(deployed),
        engine="ap",
    )

    def overlapping(rules, region):
        return [
            rule
            for rule in rules
            if rule.action == "allow"
            and table.bits(rule.protocol, rule.port)
            & region.get((rule.vrf_scope, rule.src_epg, rule.dst_epg), 0)
        ]

    if not result.equivalent:
        result.missing_rules = overlapping(
            logical, table.diff_regions(l_regions, t_regions)
        )
        result.extra_rules = overlapping(
            deployed, table.diff_regions(t_regions, l_regions)
        )
    return result


@st.composite
def edited_pairs(draw):
    """``(L, T)`` where T is L after the edits a TCAM actually suffers."""
    logical = draw(st.lists(ap_rule_strategy, min_size=1, max_size=30))
    deployed = []
    for rule in logical:
        triple = (rule.vrf_scope, rule.src_epg, rule.dst_epg)
        fate = draw(
            st.sampled_from(["keep"] * 5 + ["drop", "twice", "widen", "narrow", "deny"])
        )
        if fate == "keep":
            deployed.append(rule)
        elif fate == "twice":
            deployed += [rule, rule]
        elif fate == "narrow":
            # An extra key the kept rule may shadow: a T-only key that need
            # not change the semantics of its triple.
            deployed += [rule, TcamRule(*triple, "tcp", 80, rule.action)]
        elif fate == "widen":
            # A different key that covers at least the same traffic.
            deployed.append(TcamRule(*triple, rule.protocol, None, rule.action))
        elif fate == "deny":
            deployed.append(TcamRule(*triple, rule.protocol, rule.port, "deny"))
    deployed += draw(st.lists(ap_rule_strategy, max_size=4))  # extras, any triple
    if draw(st.booleans()):
        deployed = draw(st.permutations(deployed))
    return logical, list(deployed)


@st.composite
def lost_only_pairs(draw, logical=None):
    """``(L, T)`` where T is some of L's rules, perhaps reordered: rules
    lost, none gained."""
    if logical is None:
        logical = draw(st.lists(ap_rule_strategy, min_size=1, max_size=30))
    deployed = [rule for rule in logical if draw(st.integers(0, 3))]
    if draw(st.booleans()):
        deployed = draw(st.permutations(deployed))
    return logical, list(deployed)


def _check(engine, logical, deployed, **kwargs):
    return EquivalenceChecker(engine=engine, **kwargs).check_switch(
        "s", logical, deployed
    )


class TestApMatchesBdd:
    @given(ap_rule_lists, ap_rule_lists)
    @settings(max_examples=120, deadline=None)
    def test_reports_are_byte_identical(self, logical, deployed):
        bdd = _check("bdd", logical, deployed)
        ap = _check("ap", logical, deployed)
        assert ap.equivalent == bdd.equivalent
        # Identical rule *objects* in identical order — not just equal keys.
        assert ap.missing_rules == bdd.missing_rules
        assert ap.extra_rules == bdd.extra_rules
        assert ap.logical_count == bdd.logical_count
        assert ap.deployed_count == bdd.deployed_count

    @given(ap_rule_lists, ap_rule_lists)
    @settings(max_examples=60, deadline=None)
    def test_network_semantic_fingerprints_are_identical(self, logical, deployed):
        logical_map = {"leaf-1": logical, "leaf-2": deployed}
        deployed_map = {"leaf-1": deployed, "leaf-2": deployed}
        bdd = EquivalenceChecker(engine="bdd").check_network(logical_map, deployed_map)
        ap = EquivalenceChecker(engine="ap").check_network(logical_map, deployed_map)
        assert ap.semantic_fingerprint() == bdd.semantic_fingerprint()

    @given(ap_rule_lists)
    @settings(max_examples=50, deadline=None)
    def test_full_wildcard_shadows_everything(self, rules):
        """T = one full wildcard per triple L uses ⇒ nothing is ever missing."""
        wildcard_cover = list(
            {
                (r.vrf_scope, r.src_epg, r.dst_epg): TcamRule(
                    r.vrf_scope, r.src_epg, r.dst_epg, "any", None, action="allow"
                )
                for r in rules
                if r.action == "allow"
            }.values()
        )
        bdd = _check("bdd", rules, wildcard_cover)
        ap = _check("ap", rules, wildcard_cover)
        assert ap.missing_rules == bdd.missing_rules == []
        assert ap.extra_rules == bdd.extra_rules

    @given(ap_rule_lists)
    @settings(max_examples=50, deadline=None)
    def test_identical_sets_equivalent_under_ap(self, rules):
        result = _check("ap", rules, list(rules))
        assert result.equivalent
        assert result.missing_rules == [] and result.extra_rules == []

    @given(ap_rule_lists, ap_rule_lists, ap_rule_lists)
    @settings(max_examples=40, deadline=None)
    def test_shared_growing_table_never_changes_verdicts(
        self, logical, deployed, noise
    ):
        """A table pre-refined by unrelated rules reports identically to a
        fresh one — the refinement-soundness property the worker-resident
        shared tables (and `IncrementalChecker` reuse) depend on."""
        fresh = _check("ap", logical, deployed)
        table = AtomTable()
        table.observe_keys(rule.match_key() for rule in noise)
        refined = _check("ap", logical, deployed, atoms=table)
        assert refined.equivalent == fresh.equivalent
        assert refined.missing_rules == fresh.missing_rules
        assert refined.extra_rules == fresh.extra_rules


class TestDeltaScopedMatchesFullUniverse:
    """Scoped ``ap`` == the full-universe reference == ``bdd``, byte for byte."""

    @staticmethod
    def _assert_three_way(logical, deployed, checker=None, collector=None):
        if collector is None:
            collector = TraceCollector()
        with activated(collector):
            scoped = (checker or EquivalenceChecker()).check_switch(
                "s", logical, deployed
            )
        reference = _full_universe_check(list(logical), deployed)
        # Dataclass equality: verdict, counts, engine label, and the same
        # rule objects in the same order with the same duplicates.
        assert scoped == reference
        bdd = _check("bdd", logical, deployed)
        reports = [
            EquivalenceReport({"s": result}) for result in (scoped, reference, bdd)
        ]
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert reports[0].semantic_fingerprint() == reports[2].semantic_fingerprint()
        assert scoped.missing_rules == bdd.missing_rules
        assert scoped.extra_rules == bdd.extra_rules
        # Whatever is reported lies inside the key difference.
        l_keys = {rule.match_key() for rule in logical}
        t_keys = {rule.match_key() for rule in deployed}
        assert {r.match_key() for r in scoped.missing_rules} <= l_keys - t_keys
        assert {r.match_key() for r in scoped.extra_rules} <= t_keys - l_keys
        # T - L is taken, as a second pass over keys, iff T holds a key
        # outside L.
        check = [span for span in collector.spans() if span.name == "check.switch"][-1]
        assert check.counters["key_passes"] == (2 if t_keys - l_keys else 1)
        return scoped

    @given(edited_pairs())
    @settings(max_examples=150, deadline=None)
    def test_edited_tcam(self, pair):
        self._assert_three_way(*pair)

    @given(ap_rule_lists, ap_rule_lists)
    @settings(max_examples=80, deadline=None)
    def test_unrelated_sides(self, logical, deployed):
        self._assert_three_way(logical, deployed)

    @given(edited_pairs())
    @settings(max_examples=40, deadline=None)
    def test_carriers_and_plain_lists_agree(self, pair):
        """Key-carrying sequences (the production inputs) change nothing."""
        logical, deployed = pair
        carried = _check("ap", RuleSequence.of(logical), RuleSequence.of(deployed))
        assert carried == _check("ap", logical, deployed)

    @given(ap_rule_lists)
    @settings(max_examples=40, deadline=None)
    def test_extras_only_in_a_disjoint_triple(self, rules):
        """T = L plus rules under a triple L never uses: nothing missing,
        exactly the allow extras reported."""
        extras = [
            TcamRule(3, 9, 9, "tcp", 80),
            TcamRule(3, 9, 9, "udp", None, action="deny"),
            TcamRule(3, 9, 9, "any", 443),
        ]
        result = self._assert_three_way(rules, rules + extras)
        assert result.missing_rules == []
        assert result.extra_rules == [extras[0], extras[2]]

    @given(lost_only_pairs())
    @settings(max_examples=80, deadline=None)
    def test_rules_lost_only(self, pair):
        """T ⊂ L: every audit fault and every storm loss."""
        logical, deployed = pair
        result = self._assert_three_way(logical, deployed)
        assert result.extra_rules == []

    @given(ap_rule_lists, st.lists(ap_rule_strategy, min_size=1, max_size=6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_extras_only(self, logical, extras, data):
        """T ⊃ L: the extra keys are found by the second pass."""
        keys = {rule.match_key() for rule in logical}
        extras = [rule for rule in extras if rule.match_key() not in keys]
        deployed = data.draw(st.permutations(logical + extras))
        result = self._assert_three_way(logical, deployed)
        assert result.missing_rules == []

    @given(
        lost_only_pairs(), st.lists(ap_rule_strategy, min_size=1, max_size=6), st.data()
    )
    @settings(max_examples=80, deadline=None)
    def test_rules_lost_and_extras_at_once(self, pair, extras, data):
        logical, kept = pair
        keys = {rule.match_key() for rule in logical}
        extras = [rule for rule in extras if rule.match_key() not in keys]
        self._assert_three_way(logical, data.draw(st.permutations(kept + extras)))

    def test_as_many_extras_as_lost_rules(self):
        """|T| == |L| with one key swapped: only the count of L & T shows
        that T holds a key outside L."""
        a, b, c = (TcamRule(1, 1, 2, "tcp", port) for port in (22, 80, 443))
        extra = TcamRule(1, 1, 2, "udp", 80)
        result = self._assert_three_way([a, b, c], [a, extra, b])
        assert (result.missing_rules, result.extra_rules) == ([c], [extra])

    @given(lost_only_pairs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_unkeyed_logical_side_with_duplicate_keys(self, pair, data):
        """A plain L repeating keys (other provenance, same match): every
        copy of a missing key is reported, in place."""
        logical, deployed = pair
        repeated = list(logical)
        copies = data.draw(st.lists(st.sampled_from(logical), min_size=1, max_size=6))
        for rule in copies:
            copy = dataclasses.replace(rule, filter_uid="filter:t/dup")
            repeated.insert(data.draw(st.integers(0, len(repeated))), copy)
        self._assert_three_way(repeated, deployed)
        # A carrier checked again selects through its position index; the
        # worker path's carrier is keys only, duplicates kept.
        for carrier in (
            RuleSequence.of(repeated),
            RuleSequence.from_keys(rule.match_key() for rule in repeated),
        ):
            for _ in range(3):
                self._assert_three_way(carrier, deployed)

    def test_every_copy_of_a_missing_key_is_reported(self):
        rule = TcamRule(1, 1, 2, "tcp", 80, filter_uid="filter:t/a")
        copy = dataclasses.replace(rule, filter_uid="filter:t/b")
        kept = TcamRule(1, 3, 4, "udp", 443)
        logical = RuleSequence.of([rule, kept, copy, rule])
        # The first check scans L, the second builds its position index and
        # the third reads it: every copy comes back each time.
        for _ in range(3):
            result = self._assert_three_way(logical, [kept])
            assert result.missing_rules == [rule, copy, rule]
            assert [r.filter_uid for r in result.missing_rules] == [
                "filter:t/a",
                "filter:t/b",
                "filter:t/a",
            ]
        assert logical.positions_built()

    @given(st.lists(ap_rule_strategy, min_size=1, max_size=30), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_keyed_logical_side_against_several_deployed_sides(self, rules, data):
        """One compiled L (keyed, as the controller holds it) audited again
        and again: the first compare that picks missing rules scans L, the
        second builds its position index and every later one reads it."""
        logical = RuleSequence.keyed({rule.match_key(): rule for rule in rules})
        checker = EquivalenceChecker()
        collector = TraceCollector()
        selects, expected = 0, []
        for _ in range(data.draw(st.integers(min_value=3, max_value=6))):
            deployed = data.draw(lost_only_pairs(logical=list(logical)))[1]
            result = self._assert_three_way(logical, deployed, checker, collector)
            if not result.equivalent:
                # A compare selects from L iff it reports a missing rule.
                selects += bool(result.missing_rules)
                expected.append(int(bool(result.missing_rules) and selects == 2))
        built = [
            span.counters["positions_built"]
            for span in collector.spans()
            if span.name == "verify.ap.compare"
        ]
        assert built == expected
        assert logical.positions_built() == (selects >= 2)

    def test_key_sets_differ_but_semantics_do_not(self):
        """``L = {tcp/any, tcp/80}``, ``T = {tcp/any}``: the specific rule is
        shadowed on both sides, so the switch is equivalent, nothing is
        missing — and it took the engine, not the identity rule, to say so."""
        wide, narrow = TcamRule(1, 1, 2, "tcp", None), TcamRule(1, 1, 2, "tcp", 80)
        checker = EquivalenceChecker()
        result = checker.check_switch("s", [wide, narrow], [wide])
        assert result == _full_universe_check([wide, narrow], [wide])
        assert result.equivalent and result.missing_rules == []
        assert (checker.identity_proofs, checker.dispatched) == (0, 1)
        # The other way round the narrow rule is a redundant extra: still
        # equivalent, still nothing reported.
        assert self._assert_three_way([wide], [wide, narrow]).equivalent

    def test_deny_only_difference_touches_no_triple(self):
        allow, deny = TcamRule(1, 1, 2, "tcp", 80), TcamRule(1, 3, 4, "tcp", 22, "deny")
        assert self._assert_three_way([allow, deny], [allow]).equivalent
        assert self._assert_three_way([allow], [deny, allow]).equivalent


#: Exact allow fields, and the wildcards a triple can be opened by.
_EXACT_FIELDS = st.tuples(
    st.sampled_from(["tcp", "udp", "icmp"]), st.sampled_from([22, 80, 443, 700])
)
_WILDCARD_FIELDS = st.sampled_from(
    [("tcp", None), ("udp", None), ("any", 80), ("any", 443), ("any", None)]
)
#: Deny fields, wildcards included: a deny key opens no triple.
_DENY_FIELDS = st.tuples(
    st.sampled_from(["tcp", "udp", "any"]), st.sampled_from([22, 80, None])
)


def _wildcard(key) -> bool:
    return key[5] == "allow" and (key[3] == "any" or key[4] is None)


@st.composite
def closed_and_open_pairs(draw):
    """``(L, T)``: L over triples whose allow keys are all exact and triples
    holding a wildcard allow key, deny keys (wildcards among them) under
    both; T loses some of L's keys, gains exact extras, and may hold a
    wildcard extra in a triple whose allow keys are otherwise all exact."""
    triples = draw(
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(1, 4), st.integers(1, 4)),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    split = draw(st.integers(1, len(triples) - 1))
    closed = triples[:split]
    logical = []
    for index, triple in enumerate(triples):
        exact = draw(st.lists(_EXACT_FIELDS, min_size=1, max_size=4, unique=True))
        for fields in exact:
            logical.append(TcamRule(*triple, *fields))
        if index >= split:
            logical.append(TcamRule(*triple, *draw(_WILDCARD_FIELDS)))
        for fields in draw(st.lists(_DENY_FIELDS, max_size=2, unique=True)):
            logical.append(TcamRule(*triple, *fields, action="deny"))
    deployed = [rule for rule in logical if draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(0, 3))):
        triple = draw(st.sampled_from(triples + [(3, 9, 9)]))
        deployed.append(TcamRule(*triple, *draw(_EXACT_FIELDS)))
    if draw(st.booleans()):
        triple = draw(st.sampled_from(closed))
        deployed.append(TcamRule(*triple, *draw(_WILDCARD_FIELDS)))
    return draw(st.permutations(logical)), draw(st.permutations(deployed))


class TestClosedTriplesAreDecidedOnKeys:
    """A touched triple whose allow keys are all exact, on both sides, is
    decided from the key difference (``decided_triples``); one where L or
    ``T - L`` holds a wildcard allow key gets regions (``touched_triples``).
    Either way the result is the full-universe reference's and ``bdd``'s."""

    def test_both_routes_match_the_references(self):
        routes = {"decided": 0, "open_in_l": 0, "opened_by_t": 0}

        @given(closed_and_open_pairs())
        @settings(max_examples=200, deadline=None)
        def check(pair):
            logical, deployed = pair
            collector = TraceCollector()
            TestDeltaScopedMatchesFullUniverse._assert_three_way(
                logical, deployed, collector=collector
            )
            l_keys = {rule.match_key() for rule in logical}
            t_keys = {rule.match_key() for rule in deployed}
            touched = {key[:3] for key in l_keys ^ t_keys if key[5] == "allow"}
            in_l = {key[:3] for key in l_keys if _wildcard(key)}
            by_t = {key[:3] for key in t_keys - l_keys if _wildcard(key)} - in_l
            builds = [s for s in collector.spans() if s.name == "verify.ap.build"]
            if l_keys == t_keys:
                assert not builds  # an identity proof
                return
            (build,) = builds
            assert build.counters["decided_triples"] == len(touched - in_l - by_t)
            assert build.counters["touched_triples"] == len(touched & (in_l | by_t))
            if not touched & (in_l | by_t):
                assert build.counters["scoped_rules"] == 0
            routes["decided"] += bool(touched - in_l - by_t)
            routes["open_in_l"] += bool(touched & in_l)
            routes["opened_by_t"] += bool(touched & by_t)

        check()
        assert all(routes.values()), routes

    def test_a_wildcard_extra_opens_a_closed_triple(self):
        """``L = {tcp/80, tcp/443}``, ``T = {tcp/443, tcp/*}``: the lost
        ``tcp/80`` is covered by T's wildcard, so only the wildcard is extra."""
        lost, kept = TcamRule(1, 1, 2, "tcp", 80), TcamRule(1, 1, 2, "tcp", 443)
        wide = TcamRule(1, 1, 2, "tcp", None)
        result = TestDeltaScopedMatchesFullUniverse._assert_three_way(
            [lost, kept], [kept, wide]
        )
        assert (result.missing_rules, result.extra_rules) == ([], [wide])

    def test_a_lost_deny_key_in_a_closed_triple_is_not_reported(self):
        allow = TcamRule(1, 1, 2, "tcp", 80)
        deny = TcamRule(1, 1, 2, "any", None, action="deny")
        lost = TcamRule(1, 1, 2, "udp", 53)
        result = TestDeltaScopedMatchesFullUniverse._assert_three_way(
            [allow, deny, lost], [allow]
        )
        assert (result.missing_rules, result.extra_rules) == ([lost], [])


class TestSelectByPosition:
    """``RuleSequence.select`` scans on its first call and picks by a held
    key → position index after: either way it gives exactly the in-order
    scan, duplicates kept, call after call."""

    @given(st.lists(ap_rule_strategy, max_size=40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_select_is_the_scan(self, rules, data):
        for sequence in (
            RuleSequence.of(rules),
            RuleSequence.from_keys(rule.match_key() for rule in rules),
            RuleSequence.keyed({rule.match_key(): rule for rule in rules}),
        ):
            keys = sorted(set(sequence.keys()), key=repr) or [None]
            for _ in range(3):
                wanted = set(data.draw(st.lists(st.sampled_from(keys), unique=True)))
                wanted.add(TcamRule(9, 9, 9, "tcp", 80).match_key())  # not held
                scan = [rule for rule in sequence if rule.match_key() in wanted]
                assert sequence.select(wanted) == scan
                assert [id(r) for r in sequence.select(wanted)] == [id(r) for r in scan]


#: Ports the drawn L never uses: a deployed side carrying one (or a protocol
#: L lacks) refines the atom table mid-sequence, and its ``version`` moves.
_NEW_PORTS = [25, 53, 8080, 9000]


@st.composite
def refining_sides(draw, logical):
    """A deployed side for ``logical``: an edit of it, sometimes with keys
    whose port (or protocol) the table has not seen."""
    deployed = [rule for rule in logical if draw(st.integers(0, 3))]
    for rule in draw(st.lists(st.sampled_from(logical), max_size=4)):
        triple = (rule.vrf_scope, rule.src_epg, rule.dst_epg)
        deployed.append(
            TcamRule(
                *triple,
                draw(st.sampled_from(["tcp", "udp", "icmp", "any"])),
                draw(st.sampled_from(_NEW_PORTS + [None])),
                draw(st.sampled_from(["allow", "allow", "deny"])),
            )
        )
    deployed += draw(st.lists(ap_rule_strategy, max_size=3))
    return draw(st.permutations(deployed))


class TestLogicalRegionMemo:
    """L's per-triple regions are computed once per atom-table version.

    One compiled L is held against many deployed sides by several checkers
    (the audit system's, each monitor partition's), and between checks the
    deployed side's new ports and protocols refine the checking table.  A
    memo keyed by anything less than the table itself and its ``version``
    hands back regions under the wrong atom numbering.
    """

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_one_logical_side_under_refining_tables(self, data):
        logical = RuleSequence.of(
            data.draw(st.lists(ap_rule_strategy, min_size=1, max_size=20))
        )
        first = EquivalenceChecker()
        # A second table that numbers its classes in another order: it has
        # seen other keys first.
        second = EquivalenceChecker(atoms=AtomTable())
        noise = data.draw(st.lists(ap_rule_strategy, max_size=6))
        second.atoms.observe_keys(rule.match_key() for rule in reversed(noise))
        for _ in range(data.draw(st.integers(min_value=2, max_value=6))):
            deployed = data.draw(refining_sides(logical))
            checker = data.draw(st.sampled_from([first, second]))
            result = checker.check_switch("s", logical, deployed)
            assert result == _full_universe_check(list(logical), deployed)
            assert result == _check("ap", list(logical), deployed)

    def test_a_second_table_at_the_same_version_numbers_atoms_differently(self):
        """Two tables at one version, classes in opposite orders: each gets
        its own regions of the shared L."""
        wanted = TcamRule(1, 1, 2, "tcp", 80)
        logical = RuleSequence.of([wanted, TcamRule(1, 3, 4, "udp", 443)])
        first, second = EquivalenceChecker(), EquivalenceChecker()
        assert first.check_switch("s", logical, []).missing_rules == list(logical)
        second.atoms.observe_keys([TcamRule(1, 3, 4, "udp", 443).match_key()])
        second.atoms.observe_keys([wanted.match_key()])
        assert second.atoms.version == first.atoms.version
        assert second.check_switch("s", logical, []).missing_rules == list(logical)
        assert second.check_switch("s", logical, logical[1:]).missing_rules == [wanted]

    def test_regions_are_reused_until_the_table_refines(self):
        logical = RuleSequence.of(
            [TcamRule(1, 1, 2, "tcp", 80), TcamRule(1, 1, 2, "tcp", None)]
        )
        checker = EquivalenceChecker()
        sides = [
            [logical[1]],  # same classes: the triple's L region is reused
            [logical[0]],
            [logical[1], TcamRule(1, 1, 2, "tcp", 8080)],  # a new port class
            [logical[0], logical[1], TcamRule(1, 1, 2, "udp", 8080)],
        ]
        collector = TraceCollector()
        with activated(collector):
            for deployed in sides:
                result = checker.check_switch("s", logical, deployed)
                assert result == _full_universe_check(list(logical), deployed)
        reused = [
            span.counters["l_regions_reused"]
            for span in collector.spans()
            if span.name == "verify.ap.build"
        ]
        # The first check computes the triple; the refinement discards it.
        assert reused == [0, 1, 0, 0]


def _as_tcam(rules) -> RuleSequence:
    """``rules`` installed in order into a TCAM, as its snapshot: keyed by
    the rules' own (shared) keys, a repeated key kept once, in place, with
    its last provenance."""
    tcam = TcamTable()
    tcam.write((), {rule.match_key(): rule for rule in rules})
    return tcam.rule_sequence()


class TestExactnessNeverRestsOnIdentity:
    """Every rule's key is the process's one object for its match, so L's
    and T's keys are the same tuples.  That only speeds the key-set delta
    up: the same T over equal but distinct key copies — built with
    ``RuleSequence.keyed``, which bypasses the shared table — gives the very
    same result, and both equal the full-universe reference and ``bdd``.
    The route does not rest on identity either: the key delta, and so
    which switches an identity proof settles, is the same for both."""

    @given(st.one_of(edited_pairs(), lost_only_pairs()))
    @settings(max_examples=150, deadline=None)
    def test_shared_and_distinct_keys_give_one_result(self, pair):
        logical, deployed = pair
        logical = RuleSequence.of(logical)
        shared = _as_tcam(deployed)
        copies = RuleSequence.keyed(
            {tuple(list(key)): rule for key, rule in zip(shared.keys(), shared)}
        )
        held = {key: key for key in logical.keys()}
        assert all(held[key] is key for key in shared.keys() if key in held)
        assert not any(map(operator.is_, copies.keys(), shared.keys()))

        checkers = [EquivalenceChecker(), EquivalenceChecker()]
        deltas = [
            checker._key_delta(logical, side)
            for checker, side in zip(checkers, (shared, copies))
        ]
        assert deltas[0] == deltas[1]
        on_shared = checkers[0].check_switch("s", logical, shared)
        on_copies = checkers[1].check_switch("s", logical, copies)
        assert on_shared == on_copies
        assert checkers[0].identity_proofs == checkers[1].identity_proofs
        assert on_copies == _full_universe_check(list(logical), copies)
        bdd = _check("bdd", logical, copies)
        assert (on_copies.equivalent, on_copies.missing_rules, on_copies.extra_rules) == (
            bdd.equivalent,
            bdd.missing_rules,
            bdd.extra_rules,
        )
