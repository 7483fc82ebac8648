"""Unit tests for the TCAM table, fault log book and leaf-spine topology."""

import random

import pytest

from repro.exceptions import FabricError, TcamError
from repro.fabric import FaultCode, FaultLogBook, InstallOutcome, LeafSpineTopology, TcamTable
from repro.rules import TcamRule


def _rule(port: int, src: int = 1, dst: int = 2) -> TcamRule:
    return TcamRule(101, src, dst, "tcp", port, src_epg_uid=f"epg:{src}", dst_epg_uid=f"epg:{dst}")


class TestTcamTable:
    def test_install_and_contains(self):
        tcam = TcamTable()
        outcome, evicted = tcam.install(_rule(80))
        assert outcome is InstallOutcome.INSTALLED
        assert evicted is None
        assert _rule(80).match_key() in tcam
        assert len(tcam) == 1

    def test_duplicate_install_reported(self):
        tcam = TcamTable()
        tcam.install(_rule(80))
        outcome, _ = tcam.install(_rule(80))
        assert outcome is InstallOutcome.ALREADY_PRESENT
        assert len(tcam) == 1

    def test_capacity_rejection(self):
        tcam = TcamTable(capacity=2)
        tcam.install(_rule(80))
        tcam.install(_rule(81))
        outcome, _ = tcam.install(_rule(82))
        assert outcome is InstallOutcome.REJECTED_FULL
        assert tcam.rejected_installs == 1
        assert len(tcam) == 2
        assert tcam.is_full()

    def test_eviction_on_overflow(self):
        tcam = TcamTable(capacity=2, evict_on_overflow=True)
        first = _rule(80)
        tcam.install(first)
        tcam.install(_rule(81))
        outcome, evicted = tcam.install(_rule(82))
        assert outcome is InstallOutcome.INSTALLED_WITH_EVICTION
        assert evicted is not None and evicted.match_key() == first.match_key()
        assert len(tcam) == 2
        assert tcam.evictions == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(TcamError):
            TcamTable(capacity=0)

    def test_remove_and_remove_where(self):
        tcam = TcamTable()
        for port in (80, 81, 82):
            tcam.install(_rule(port))
        assert tcam.remove(_rule(81).match_key()) is not None
        assert tcam.remove(_rule(81).match_key()) is None
        removed = tcam.remove_where(lambda rule: rule.port == 82)
        assert len(removed) == 1
        assert len(tcam) == 1

    def test_rule_sequence_carries_the_table_keys(self):
        tcam = TcamTable()
        for port in (80, 81):
            tcam.install(_rule(port))
        sequence = tcam.rule_sequence()
        assert list(sequence) == tcam.rules()
        assert list(sequence.keys()) == tcam.match_keys()
        assert sequence.key_set() == set(tcam.match_keys())
        # A snapshot, not a view: later writes do not reach it.
        tcam.remove(_rule(80).match_key())
        assert len(sequence) == 2 and len(sequence.key_set()) == 2

    def test_rule_sequence_is_handed_out_again_only_for_the_very_same_content(self):
        tcam = TcamTable()
        rules = [_rule(port) for port in (80, 81, 82)]
        for rule in rules:
            tcam.install(rule)
        held = tcam.rule_sequence()
        assert tcam.rule_sequence() is held
        # Rewritten with what it held (how a snapshot restore leaves it).
        tcam.clear()
        assert tcam.rule_sequence() == ()
        for rule in rules:
            tcam.install(rule)
        assert list(tcam.rule_sequence()) == rules
        assert tcam.rule_sequence() is tcam.rule_sequence()
        # Same keys, another order or another rule object: a new snapshot.
        held = tcam.rule_sequence()
        tcam.remove(rules[0].match_key())
        tcam.install(rules[0])
        assert tcam.rule_sequence() is not held
        assert list(tcam.rule_sequence().keys()) == tcam.match_keys()
        held = tcam.rule_sequence()
        refreshed = TcamRule(101, 1, 2, "tcp", 81, src_epg_uid="epg:other")
        tcam.install(refreshed)  # already present: provenance refresh
        assert tcam.rule_sequence() is not held
        assert refreshed in tcam.rule_sequence() and refreshed not in held

    def test_rule_sequence_follows_every_kind_of_write(self):
        rng = random.Random(7)
        tcam = TcamTable(capacity=12, evict_on_overflow=True)
        for step in range(400):
            kind = rng.choice(["install", "install", "remove", "remove_where", "clear"])
            if kind == "install":
                tcam.install(_rule(rng.randrange(20), src=rng.randrange(1, 3)))
            elif kind == "remove" and len(tcam):
                tcam.remove(rng.choice(tcam.match_keys()))
            elif kind == "remove_where":
                tcam.remove_where(lambda rule: rule.port % 5 == step % 5)
            elif kind == "clear" and rng.random() < 0.2:
                tcam.clear()
            sequence = tcam.rule_sequence()
            assert list(sequence) == tcam.rules()
            assert list(sequence.keys()) == tcam.match_keys()
            assert sequence.key_set() == frozenset(tcam.match_keys())
            assert [rule.match_key() for rule in sequence] == tcam.match_keys()

    def test_writes_to_an_empty_table_are_noops(self):
        tcam = TcamTable()
        heard = []
        tcam.subscribe(lambda installed, lost: heard.append((installed, lost)))
        assert tcam.remove(_rule(80).match_key()) is None
        assert tcam.remove_where(lambda rule: True) == []
        tcam.clear()
        assert len(tcam) == 0 and heard == []

    def test_remove_rule_takes_the_rule_match_key(self):
        tcam = TcamTable()
        installed = _rule(80)
        tcam.install(installed)
        # An equal rule built apart removes the held one and returns it.
        assert tcam.remove_rule(_rule(80)) is installed
        assert tcam.remove_rule(_rule(80)) is None
        assert len(tcam) == 0

    def test_is_full_follows_capacity_and_removals(self):
        unbounded = TcamTable()
        for port in range(50):
            unbounded.install(_rule(port))
        assert not unbounded.is_full()
        tcam = TcamTable(capacity=2)
        tcam.install(_rule(80))
        assert not tcam.is_full()
        tcam.install(_rule(81))
        assert tcam.is_full()
        tcam.remove(_rule(80).match_key())
        assert not tcam.is_full()
        assert tcam.install(_rule(82))[0] is InstallOutcome.INSTALLED

    def test_install_attempts_count_every_outcome(self):
        tcam = TcamTable(capacity=1)
        tcam.install(_rule(80))  # installed
        tcam.install(_rule(80))  # already present
        tcam.install(_rule(81))  # rejected
        assert (tcam.install_attempts, tcam.rejected_installs, tcam.evictions) == (3, 1, 0)

    def test_clear(self):
        tcam = TcamTable()
        tcam.install(_rule(80))
        tcam.clear()
        assert len(tcam) == 0


    def test_writes_counts_every_call_that_may_change_the_table(self):
        """``writes`` moves on every mutating path — once per call, whatever
        the call did to the table — and an empty ``write`` is no write."""
        tcam = TcamTable(capacity=2, evict_on_overflow=True)
        steps = [
            lambda: tcam.install(_rule(80)),
            lambda: tcam.install(_rule(80)),  # ALREADY_PRESENT: refreshed in place
            lambda: tcam.install(_rule(81)),
            lambda: tcam.install(_rule(82)),  # evicts port 80
            lambda: tcam.remove(_rule(81).match_key()),
            lambda: tcam.remove(_rule(99).match_key()),  # absent
            lambda: tcam.remove_rule(_rule(82)),
            lambda: tcam.write([], {_rule(83).match_key(): _rule(83)}),
            lambda: tcam.write([_rule(83).match_key()], {}),
            lambda: tcam.clear(),
            lambda: tcam.clear(),  # already empty
        ]
        for expected, step in enumerate(steps, start=1):
            step()
            assert tcam.writes == expected
        tcam.install(_rule(84))
        tcam.install(_rule(85))
        tcam.install(_rule(86))  # the one write past the capacity
        assert tcam.writes == len(steps) + 3
        assert tcam.write([], {}) == ([], [])
        assert tcam.remove_where(lambda rule: rule.port == 99) == []
        assert tcam.writes == len(steps) + 3
        assert tcam.remove_where(lambda rule: rule.port == 85)
        assert tcam.writes == len(steps) + 4
        # A bulk write past the capacity is one write plus its install()s.
        tcam.write([], {_rule(port).match_key(): _rule(port) for port in (90, 91)})
        assert tcam.writes == len(steps) + 4 + 1 + 1
        # Reads are not writes.
        tcam.rule_sequence(), tcam.rules(), tcam.match_keys(), len(tcam)
        assert tcam.writes == len(steps) + 6


class TestFaultLogBook:
    def test_raise_and_query(self):
        book = FaultLogBook()
        record = book.raise_fault(5, "leaf-1", FaultCode.TCAM_OVERFLOW, "full")
        assert record.is_active_at(5)
        assert record.is_active_at(100)
        assert not record.is_active_at(4)
        assert book.records() == [record]

    def test_clear_device(self):
        book = FaultLogBook()
        book.raise_fault(1, "leaf-1", FaultCode.SWITCH_UNREACHABLE)
        book.raise_fault(2, "leaf-2", FaultCode.SWITCH_UNREACHABLE)
        assert book.clear_device("leaf-1", 10) == 1
        active = [record for record in book if record.is_active_at(11)]
        assert len(active) == 1 and active[0].device_uid == "leaf-2"

    def test_a_cleared_record_is_active_only_before_its_clear(self):
        book = FaultLogBook()
        record = book.raise_fault(1, "leaf-1", FaultCode.AGENT_CRASH)
        record.clear(5)
        assert record.is_active_at(3)
        assert not record.is_active_at(6)

    def test_len_and_iter(self):
        book = FaultLogBook()
        book.raise_fault(1, "a", FaultCode.UNKNOWN)
        book.raise_fault(2, "b", FaultCode.UNKNOWN)
        assert len(book) == 2
        assert len(list(book)) == 2


class TestLeafSpineTopology:
    def test_build_full_mesh(self):
        topo = LeafSpineTopology.build(num_leaves=4, num_spines=2)
        assert len(topo.leaves()) == 4
        assert len(topo.spines()) == 2
        assert topo.summary()["links"] == 8
        topo.validate()

    def test_leaf_to_leaf_path_goes_through_spine(self):
        topo = LeafSpineTopology.build(num_leaves=3, num_spines=1)
        path = topo.path("leaf-1", "leaf-3")
        assert len(path) == 3
        assert path[1] in topo.spines()

    def test_leaf_leaf_link_rejected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        topo.add_leaf("l2")
        with pytest.raises(FabricError):
            topo.add_link("l1", "l2")

    def test_duplicate_switch_rejected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        with pytest.raises(FabricError):
            topo.add_spine("l1")

    def test_unknown_switch_queries_raise(self):
        topo = LeafSpineTopology.build(2, 1)
        with pytest.raises(FabricError):
            topo.path("leaf-1", "nope")

    def test_path_within_one_leaf_is_that_leaf(self):
        topo = LeafSpineTopology.build(num_leaves=2, num_spines=2)
        assert topo.path("leaf-1", "leaf-1") == ["leaf-1"]
        assert topo.leaves() == ["leaf-1", "leaf-2"]
        assert len(topo.spines()) == 2

    def test_degenerate_build_rejected(self):
        with pytest.raises(FabricError):
            LeafSpineTopology.build(0, 1)
        with pytest.raises(FabricError):
            LeafSpineTopology.build(1, 0)

    def test_validate_disconnected(self):
        topo = LeafSpineTopology()
        topo.add_leaf("l1")
        topo.add_spine("s1")
        with pytest.raises(FabricError):
            topo.validate()
