"""Pool identity at paper scale: a warm worker answers exactly as a fresh check.

Tier-1 holds serial == cold pool == warm pool on the 10-leaf ``simulation``
profile (``test_parallel_engine.py``, ``test_parallel_pool.py``).  This is
the same contract on the fabrics the pool exists for — 30 fat leaves and
512 thin ones, through real worker processes — plus the 6-leaf testbed,
which stays below ``SMALL_FABRIC_SWITCHES`` and takes the inline route.
Marked ``soak``: deploying the two large fabrics takes tens of seconds.
"""

from __future__ import annotations

import random

import pytest

from repro.core import ScoutSystem
from repro.experiments import prepare_workload
from repro.faults.injector import FaultInjector
from repro.obs import TraceCollector
from repro.workloads import datacenter_profile, production_cluster_profile

# Aliased: the bare name matches pytest's ``test*`` collection pattern.
from repro.workloads import testbed_profile as paper_testbed_profile

pytestmark = [pytest.mark.soak, pytest.mark.slow]

WORKERS = 4


@pytest.mark.parametrize(
    "profile_factory",
    [paper_testbed_profile, production_cluster_profile, datacenter_profile],
    ids=["testbed", "production-cluster", "datacenter-512"],
)
def test_serial_cold_and_warm_pool_reports_are_one_report(profile_factory):
    deployed = prepare_workload(profile_factory())
    FaultInjector(deployed.controller, rng=random.Random(2018)).inject_random_faults(4)
    switches = len(deployed.controller.fabric.switches)

    with ScoutSystem(deployed.controller) as system:
        serial = system.check()
        assert not serial.equivalent  # faults were injected: non-trivial
        # The system has no pool yet: this round spawns the workers and
        # fills their caches, the next one is answered from them.
        cold = system.check(parallel=True, max_workers=WORKERS)
        collector = TraceCollector()
        warm = system.check(parallel=True, max_workers=WORKERS, trace=collector)

    assert cold.fingerprint() == serial.fingerprint()
    assert warm.fingerprint() == serial.fingerprint()
    (proof,) = [s for s in collector.spans() if s.name == "parallel.identity_proof"]
    (dispatch,) = [s for s in collector.spans() if s.name == "parallel.dispatch"]
    assert proof.counters["identity_proofs"] + proof.counters["dispatched"] == switches
    assert proof.counters["dispatched"] >= len(serial.switches_with_violations())
    # A memo layer that stopped hitting would turn every round into a cold one.
    assert dispatch.counters["cache_hits"] > 0
