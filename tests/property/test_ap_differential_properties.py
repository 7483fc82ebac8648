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

from hypothesis import given, settings, strategies as st

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
    def _assert_three_way(logical, deployed):
        scoped = _check("ap", logical, deployed)
        reference = _full_universe_check(logical, deployed)
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
