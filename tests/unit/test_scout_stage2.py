"""Focused tests for SCOUT stage 2 (the change-log branch) and its oracle.

Covers the barely-exercised paths of ``ScoutLocalizer.localize``: a risk the
oracle returns for several residual observations (already-in-hypothesis
branch), an oracle that returns nothing, and the ``fallback_latest=False``
regime — plus the hardened ``RecentChangeOracle`` candidate/tie handling
and its recency memo.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.controller.changelog import ChangeLog
from repro.core import RecentChangeOracle, ScoutLocalizer, SelectionReason
from repro.obs import TraceCollector
from repro.policy.objects import ObjectType
from repro.protocol import Operation
from repro.risk import RiskModel


def partial_risk_model() -> RiskModel:
    """Risk X fails on two observations but keeps a healthy dependent.

    Hit ratio 2/3 < 1, so stage 1 cannot pick X and both observations reach
    the change-log stage.
    """
    model = RiskModel("partial")
    model.add_element("O1", ["X", "H1"])
    model.add_element("O2", ["X", "H2"])
    model.add_element("O3", ["X"])  # healthy dependent keeps hit ratio < 1
    model.mark_edge_failed("O1", "X")
    model.mark_edge_failed("O2", "X")
    return model


def recent_log(uid: str = "X", timestamp: int = 95) -> ChangeLog:
    log = ChangeLog()
    log.record(timestamp, uid, ObjectType.FILTER, Operation.MODIFY)
    return log


class FixedOracle:
    """A ChangeLogOracle stub returning a fixed intersection."""

    def __init__(self, selected):
        self.selected = set(selected)
        self.queries = []

    def recently_changed(self, candidates):
        candidates = set(candidates)
        self.queries.append(candidates)
        return candidates & self.selected


class TestChangeLogStage:
    def test_shared_risk_hits_already_in_hypothesis_branch(self):
        model = partial_risk_model()
        oracle = FixedOracle({"X"})
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)

        # X was added once (for the first residual observation) and then the
        # already-in-hypothesis branch extended it with the second one.
        assert hypothesis.objects() == {"X"}
        entry = hypothesis.entry_for("X")
        assert entry.reason is SelectionReason.CHANGE_LOG
        assert entry.explained == {"O1", "O2"}
        assert hypothesis.explained == {"O1", "O2"}
        assert hypothesis.unexplained == set()
        assert entry.hit_ratio == 2 / 3
        # O1 and O2 carry the same evidence: the oracle is asked once.
        assert oracle.queries == [{"X"}]

    def test_oracle_is_asked_once_per_distinct_evidence(self):
        model = partial_risk_model()
        model.mark_edge_failed("O2", "H2")
        model.add_element("O4", ["X", "H2"])
        model.mark_element_failed("O4")
        model.add_element("O5", ["H2"])  # healthy: H2 stays below hit ratio 1
        oracle = FixedOracle({"X", "H2"})
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)

        # Residual observations in order: O1 {X}, O2 {X, H2}, O4 {X, H2}.
        assert oracle.queries == [{"X"}, {"X", "H2"}]
        assert [entry.risk for entry in hypothesis.entries] == ["X", "H2"]
        assert hypothesis.entry_for("X").explained == {"O1", "O2", "O4"}
        assert hypothesis.entry_for("H2").explained == {"O2", "O4"}

    def test_oracle_returning_empty_leaves_observations_unexplained(self):
        model = partial_risk_model()
        oracle = FixedOracle(set())
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)
        assert hypothesis.objects() == set()
        assert hypothesis.unexplained == {"O1", "O2"}

    def test_no_oracle_skips_stage_two(self):
        model = partial_risk_model()
        hypothesis = ScoutLocalizer().localize(model)
        assert hypothesis.objects() == set()
        assert hypothesis.unexplained == {"O1", "O2"}

    def test_fallback_disabled_with_stale_change_stays_unexplained(self):
        model = partial_risk_model()
        # The only change to X is far outside the recency window.
        oracle = RecentChangeOracle(
            change_log=recent_log("X", timestamp=1),
            window=10,
            now=100,
            fallback_latest=False,
        )
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)
        assert hypothesis.objects() == set()
        assert hypothesis.unexplained == {"O1", "O2"}

    def test_fallback_enabled_recovers_the_stale_change(self):
        model = partial_risk_model()
        oracle = RecentChangeOracle(
            change_log=recent_log("X", timestamp=1), window=10, now=100
        )
        hypothesis = ScoutLocalizer(change_oracle=oracle).localize(model)
        assert hypothesis.objects() == {"X"}
        assert hypothesis.entry_for("X").reason is SelectionReason.CHANGE_LOG


@dataclass(frozen=True)
class RichRisk:
    """A non-str risk key exposing its change-log uid via ``.uid``."""

    uid: str
    label: str = ""


class TestRecentChangeOracleHardening:
    def test_candidates_with_uid_attribute_are_supported(self):
        risk = RichRisk(uid="X")
        oracle = RecentChangeOracle(change_log=recent_log("X"), window=100)
        assert oracle.recently_changed({risk}) == {risk}

    def test_candidates_without_string_uid_are_excluded_not_fatal(self):
        oracle = RecentChangeOracle(change_log=recent_log("X"), window=100)
        assert oracle.recently_changed({42, ("a", "b"), None}) == set()
        # ... and they do not poison a mixed candidate set.
        assert oracle.recently_changed({42, "X"}) == {"X"}

    def test_duplicate_uid_candidates_are_all_returned(self):
        risk_a = RichRisk(uid="X", label="a")
        risk_b = RichRisk(uid="X", label="b")
        oracle = RecentChangeOracle(change_log=recent_log("X"), window=100)
        # Two distinct risks sharing a change-log uid: both are selected, so
        # the result never depends on set iteration order.
        assert oracle.recently_changed({risk_a, risk_b}) == {risk_a, risk_b}
        # Same in the fallback path.
        stale = RecentChangeOracle(change_log=recent_log("X", timestamp=1), window=5, now=100)
        assert stale.recently_changed({risk_a, risk_b}) == {risk_a, risk_b}

    def test_fallback_returns_every_candidate_tied_on_latest_timestamp(self):
        log = ChangeLog()
        log.record(3, "A", ObjectType.FILTER, Operation.MODIFY)
        log.record(5, "B", ObjectType.FILTER, Operation.MODIFY)
        log.record(5, "C", ObjectType.FILTER, Operation.MODIFY)
        oracle = RecentChangeOracle(change_log=log, window=2, now=100)
        # Nothing inside the window -> fallback; B and C tie at t=5.
        assert oracle.recently_changed({"A", "B", "C"}) == {"B", "C"}

    def test_fallback_single_winner(self):
        log = ChangeLog()
        log.record(3, "A", ObjectType.FILTER, Operation.MODIFY)
        log.record(5, "B", ObjectType.FILTER, Operation.MODIFY)
        oracle = RecentChangeOracle(change_log=log, window=1, now=100)
        assert oracle.recently_changed({"A", "B", "unlogged"}) == {"B"}

    def test_window_hit_skips_fallback(self):
        log = ChangeLog()
        log.record(3, "A", ObjectType.FILTER, Operation.MODIFY)
        log.record(99, "B", ObjectType.FILTER, Operation.MODIFY)
        oracle = RecentChangeOracle(change_log=log, window=10, now=100)
        assert oracle.recently_changed({"A", "B"}) == {"B"}


class TestRecencyMemo:
    """The oracle computes its recency map once per (log, reference, window,
    log length); a memoised oracle answers as a fresh one would."""

    UIDS = ("A", "B", "C", "D")

    @staticmethod
    def _fresh(oracle):
        return RecentChangeOracle(
            change_log=oracle.change_log,
            window=oracle.window,
            now=oracle.now,
            fallback_latest=oracle.fallback_latest,
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(
                    st.just("append"),
                    st.integers(0, 30),
                    st.sampled_from(UIDS),
                ),
                st.tuples(st.just("window"), st.integers(0, 12)),
                st.tuples(st.just("now"), st.none() | st.integers(0, 40)),
                st.tuples(st.just("ask"), st.frozensets(st.sampled_from(UIDS))),
            ),
            max_size=25,
        ),
        fallback=st.booleans(),
    )
    def test_the_memoised_oracle_equals_a_fresh_one(self, steps, fallback):
        log = ChangeLog()
        oracle = RecentChangeOracle(change_log=log, window=5, fallback_latest=fallback)
        for step in steps:
            if step[0] == "append":
                log.record(step[1], step[2], ObjectType.FILTER, Operation.MODIFY)
            elif step[0] == "window":
                oracle.window = step[1]
            elif step[0] == "now":
                oracle.now = step[1]
            else:
                candidates = step[1]
                expected = self._fresh(oracle).recently_changed(candidates)
                assert oracle.recently_changed(candidates) == expected
            for candidates in ({"A", "B"}, set(self.UIDS)):
                expected = self._fresh(oracle).recently_changed(candidates)
                assert oracle.recently_changed(candidates) == expected

    def test_one_computation_per_log_state(self):
        log = recent_log("X", timestamp=5)
        oracle = RecentChangeOracle(change_log=log, window=10)
        with TraceCollector(enabled=True).activate() as collector:
            for _ in range(3):
                assert oracle.recently_changed({"X", "Y"}) == {"X"}
            log.record(7, "Y", ObjectType.FILTER, Operation.MODIFY)
            assert oracle.recently_changed({"X", "Y"}) == {"X", "Y"}
            oracle.window = 1
            assert oracle.recently_changed({"X", "Y"}) == {"Y"}
        recency = [span for span in collector.spans() if span.name == "scout.recency"]
        assert [span.attrs["records"] for span in recency] == [1, 2, 2]
