"""Differential soak tests: long churn streams with the oracle at every stop.

These are the heavyweight end of the churn test pyramid: 1,000-event
deterministic streams on the ``small`` and ``simulation`` profiles, with the
driver running *strict* — any checkpoint where the incrementally maintained
verification state is not fingerprint-identical to a from-scratch full
check, or where the incident ledger does not exactly match the violating
switches, raises on the spot.  The suite is marked ``soak`` (excluded from
the default tier-1 lane; CI runs it in a dedicated job) and ``slow``.
"""

import pytest

from repro.churn import ChurnDriver, generate_churn_stream

pytestmark = [pytest.mark.soak, pytest.mark.slow]

#: Satellite contract: 1k events per profile.
SOAK_EVENTS = 1000
SOAK_SEED = 2018


def _soak(workload: str) -> None:
    driver = ChurnDriver.for_workload(
        workload, events=SOAK_EVENTS, seed=SOAK_SEED, checkpoint_interval=50
    )
    report = driver.run()

    # Strict mode already raised on any divergence; assert the ledger too.
    assert report.divergence_count == 0
    assert len(report.checkpoints) == SOAK_EVENTS // 50
    for checkpoint in report.checkpoints:
        assert checkpoint.ok, f"checkpoint {checkpoint.seq} diverged"
        # Zero monitor-incident loss: every violating switch carries exactly
        # one open incident, and no incident outlives its violation.
        assert checkpoint.violating_switches == checkpoint.incident_switches

    # The stream must have exercised every event family at this length.
    assert set(report.counts) == {
        "policy-add",
        "policy-modify",
        "policy-remove",
        "link-flap",
        "switch-reboot",
        "switch-drain",
        "fault",
    }
    # The monitor ran exactly one full sweep (its bootstrap); everything
    # else went through the incremental path.
    assert report.monitor_stats["full_checks"] == 1
    assert report.monitor_stats["passes"] > 0
    assert report.final_fingerprint


def test_soak_small_profile():
    _soak("small")


def test_soak_simulation_profile():
    _soak("simulation")


def test_soak_partitioned_simulation_matches_single(partitioned_churn_driver):
    """Satellite contract: partitioned-vs-unpartitioned incident identity on
    the ``simulation`` profile (the ``small`` half runs in the unit lane)."""
    single = ChurnDriver.for_workload(
        "simulation", events=300, seed=SOAK_SEED, checkpoint_interval=100
    )
    sharded = partitioned_churn_driver(
        "simulation", 4, seed=SOAK_SEED, events=300, checkpoint_interval=100
    )
    try:
        report_single = single.run()
        report_sharded = sharded.run()
        assert report_single.identity() == report_sharded.identity()
        assert single.monitor.store.to_jsonl() == sharded.monitor.store.to_jsonl()
        assert (
            single.monitor.report().semantic_fingerprint()
            == sharded.monitor.report().semantic_fingerprint()
        )
        # One bootstrap per partition is the only full-sweep difference.
        assert report_single.monitor_stats["full_checks"] == 1
        assert report_sharded.monitor_stats["full_checks"] == 4
    finally:
        single.close()
        sharded.close()


def test_soak_is_deterministic_end_to_end():
    """Two identical 1k-event soaks produce identical identities."""
    first = ChurnDriver.for_workload("small", events=SOAK_EVENTS, seed=99).run()
    second = ChurnDriver.for_workload("small", events=SOAK_EVENTS, seed=99).run()
    assert first.identity() == second.identity()


def test_soak_stream_is_replayable_as_an_explicit_event_list():
    """Feeding the generated stream back through ``run(events=...)`` matches."""
    driver = ChurnDriver.for_workload("small", events=400, seed=31)
    stream = generate_churn_stream(driver.profile)
    explicit = driver.run(events=stream)
    regenerated = ChurnDriver.for_workload("small", events=400, seed=31).run()
    assert explicit.identity() == regenerated.identity()
