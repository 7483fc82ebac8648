"""Integration tests: the full pipeline from policy to localized root cause."""

import os
import random
import subprocess
import sys

import pytest

from oracles import missing_matches
from repro import Controller
from repro.core import ScoreLocalizer, ScoutSystem, accuracy
from repro.faults import FaultInjector, FaultKind
from repro.verify import EquivalenceChecker
from repro.workloads import generate_workload, testbed_profile as make_testbed_profile


@pytest.fixture(scope="module")
def deployed_testbed_stack():
    workload = generate_workload(make_testbed_profile())
    controller = Controller(workload.policy, workload.fabric)
    controller.deploy()
    return workload, controller


class TestNoHardDependency:
    def test_importing_the_package_loads_nothing_outside_the_standard_library(self):
        probe = (
            "import sys, repro\n"
            "tops = {name.partition('.')[0] for name in sys.modules}\n"
            "print(sorted(tops - set(sys.stdlib_module_names) - {'repro', '__main__'}))"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        # -S -E: no site-packages (or its .pth hooks), no PYTHON* variables —
        # what gets imported is what ``import repro`` itself asks for.
        code = f"import sys; sys.path.insert(0, {src!r})\n{probe}"
        done = subprocess.run(
            [sys.executable, "-S", "-E", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestDeploymentConsistency:
    def test_generated_testbed_deploys_consistently(self, deployed_testbed_stack):
        _, controller = deployed_testbed_stack
        report = EquivalenceChecker().check_network(
            controller.logical_rules(), controller.collect_deployed_rules()
        )
        assert report.equivalent

    def test_bdd_and_hash_engines_agree_per_switch(self, deployed_testbed_stack):
        """After a fault the BDD oracle, the AP engine and the plain hash-set
        difference of match keys report the same misses."""
        workload, controller = deployed_testbed_stack
        injector = FaultInjector(controller, rng=random.Random(42))
        candidates = injector.faultable_objects()
        injector.inject_object_fault(candidates[0], kind=FaultKind.FULL)
        logical = controller.logical_rules()
        deployed = controller.collect_deployed_rules()
        for switch_uid in workload.fabric.leaf_uids():
            l_rules = logical.get(switch_uid, [])
            t_rules = deployed.get(switch_uid, [])
            if len(l_rules) > 800:
                continue  # keep the BDD comparison fast
            bdd_result = EquivalenceChecker(engine="bdd").check_switch(switch_uid, l_rules, t_rules)
            ap_result = EquivalenceChecker(engine="ap").check_switch(switch_uid, l_rules, t_rules)
            assert bdd_result.missing_rules == ap_result.missing_rules
            assert {r.match_key() for r in bdd_result.missing_rules} == {
                r.match_key() for r in missing_matches(l_rules, t_rules)
            }
        # Clean up for other module-scoped tests.
        controller.deploy(record_initial_changes=False)


class TestLocalizationEndToEnd:
    def _fresh_stack(self, seed=0):
        workload = generate_workload(make_testbed_profile(), seed=seed)
        controller = Controller(workload.policy, workload.fabric)
        controller.deploy()
        return workload, controller

    def test_full_faults_are_always_recalled_by_scout(self):
        workload, controller = self._fresh_stack(seed=5)
        injector = FaultInjector(controller, rng=random.Random(5))
        faults = injector.inject_random_faults(3, kinds=(FaultKind.FULL,))
        system = ScoutSystem(controller)
        report = system.localize(scope="controller")
        result = accuracy(injector.ground_truth(), report.hypothesis.objects())
        assert result.recall == 1.0
        assert all(fault.total_removed() > 0 for fault in faults)

    def test_scout_beats_score_on_partial_faults(self):
        """The paper's core claim: partial object faults defeat SCORE, not SCOUT."""
        scout_recalls, score_recalls = [], []
        for seed in range(4):
            workload, controller = self._fresh_stack(seed=seed)
            injector = FaultInjector(controller, rng=random.Random(seed))
            # Only fault objects with several rules so a partial fault is possible.
            candidates = [
                uid for uid in injector.faultable_objects()
                if sum(len(r) for r in __import__("repro.faults", fromlist=["rules_for_object"])
                       .rules_for_object(controller.fabric, uid).values()) >= 4
            ]
            target = random.Random(seed).choice(candidates)
            injector.inject_object_fault(target, kind=FaultKind.PARTIAL)
            system = ScoutSystem(controller)
            report = system.localize(scope="controller", correlate=False)
            scout_recalls.append(
                accuracy({target}, report.hypothesis.objects()).recall
            )
            score = ScoreLocalizer(hit_threshold=1.0).localize(
                report.risk_models["controller"]
            )
            score_recalls.append(accuracy({target}, score.objects()).recall)
        assert sum(scout_recalls) > sum(score_recalls)
        assert sum(scout_recalls) >= 0.75 * len(scout_recalls)

    def test_suspect_reduction_is_substantial(self):
        workload, controller = self._fresh_stack(seed=9)
        injector = FaultInjector(controller, rng=random.Random(9))
        injector.inject_random_faults(2)
        system = ScoutSystem(controller)
        report = system.localize(scope="controller", correlate=False)
        model = report.risk_models["controller"]
        suspects = model.suspect_risks()
        assert len(report.hypothesis.objects()) < len(suspects)

    def test_switch_and_controller_scope_agree_on_local_fault(self):
        workload, controller = self._fresh_stack(seed=11)
        injector = FaultInjector(controller, rng=random.Random(11))
        switch_uid = workload.fabric.leaf_uids()[0]
        candidates = injector.faultable_objects(switches=[switch_uid])
        target = candidates[0]
        injector.inject_object_fault(target, kind=FaultKind.FULL, switches=[switch_uid])
        system = ScoutSystem(controller)
        switch_report = system.localize(scope="switch", correlate=False)
        controller_report = system.localize(scope="controller", correlate=False)
        assert target in switch_report.faulty_objects()
        assert target in controller_report.faulty_objects()


class TestThreeTierPipeline:
    def test_paper_example_pipeline(self, three_tier):
        """Figure 1/2/4 walked end to end: fault the port-700 filter at S2."""
        controller = three_tier.controller
        target = three_tier.uids["filter_extra_0"]
        injector = FaultInjector(controller, rng=random.Random(1))
        injector.inject_object_fault(target, kind=FaultKind.FULL, switches=["leaf-2"])

        system = ScoutSystem(controller)
        report = system.localize(scope="switch")
        assert not report.consistent
        # Only S2 (leaf-2) shows violations, and the filter is in the hypothesis.
        assert report.equivalence.switches_with_violations() == ["leaf-2"]
        assert target in report.faulty_objects()
        # The healthy Web-App pair keeps VRF:101 and EPG:App out of the blame
        # set selected purely by hit ratio on leaf-2's model (Occam's razor).
        leaf2_hypothesis = report.per_switch["leaf-2"]
        assert three_tier.uids["vrf"] not in leaf2_hypothesis.objects()
