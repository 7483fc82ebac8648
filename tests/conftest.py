"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import Controller
from repro.churn import ChurnDriver
from repro.fabric import Fabric
from repro.online import NetworkMonitor
from repro.workloads import (
    churn_profile_for,
    deploy_profile,
    generate_workload,
    testbed_profile,
    three_tier_scenario,
)
from repro.workloads.profiles import WorkloadProfile


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need randomness."""
    return random.Random(1234)


@pytest.fixture
def three_tier():
    """The paper's Figure 1 example, deployed on a 3-leaf fabric."""
    return three_tier_scenario()


@pytest.fixture
def three_tier_undeployed():
    """The Figure 1 example wired up but not yet deployed: its policy (the
    endpoints' attachments included) on a fresh 3-leaf fabric, behind a
    fresh controller, so a fault can be set up before the first push."""
    scenario = three_tier_scenario()
    scenario.fabric = Fabric(num_leaves=3)
    scenario.controller = Controller(scenario.policy, scenario.fabric)
    return scenario


@pytest.fixture(scope="session")
def tiny_profile() -> WorkloadProfile:
    """A very small synthetic profile for fast unit tests."""
    return WorkloadProfile(
        name="tiny",
        num_leaves=4,
        num_spines=2,
        num_vrfs=2,
        num_epgs=16,
        num_contracts=10,
        num_filters=6,
        target_pairs=25,
        seed=42,
    )


@pytest.fixture(scope="session")
def tiny_workload(tiny_profile):
    """A generated tiny workload (policy + fabric, endpoints attached)."""
    return generate_workload(tiny_profile)


@pytest.fixture
def deployed_tiny(tiny_profile):
    """A freshly generated and deployed tiny workload (mutable per test)."""
    workload = generate_workload(tiny_profile)
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return workload, controller


@pytest.fixture(scope="session")
def deployed_testbed_session():
    """A deployed testbed-scale workload shared by read-only tests."""
    from repro.experiments import prepare_workload

    return prepare_workload(testbed_profile())


@pytest.fixture
def partitioned_churn_driver():
    """``ChurnDriver.for_workload`` over a monitor of N partitions: the same
    profile, deployment and clock ageing, the monitor handed in (no entry
    point builds a partitioned monitor any more; the library still can)."""

    def build(workload, partitions, seed, change_window=100, **stream):
        controller = deploy_profile(workload, seed=seed)
        controller.clock.tick(change_window + 1)
        monitor = NetworkMonitor(controller, debounce_ticks=1, partitions=partitions)
        return ChurnDriver(
            controller,
            churn_profile_for(workload, seed=seed, **stream),
            monitor=monitor,
            change_window=change_window,
        )

    return build
