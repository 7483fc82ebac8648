"""CLI entry points: profile resolution, --once self-check, one-shot audit."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import pytest

from repro.online import NetworkMonitor
from repro.service import app, cli
from repro.service.cli import main_audit, main_service
from repro.workloads import (
    deploy_profile,
    profile_names,
    resolve_profile,
    small_profile,
)


class TestProfileRegistry:
    def test_names_cover_every_family(self):
        names = profile_names()
        for expected in ("small", "testbed", "simulation", "production", "datacenter"):
            assert expected in names

    def test_resolve_small_matches_builder(self):
        assert resolve_profile("small") == small_profile()

    def test_resolve_with_seed_override(self):
        assert resolve_profile("small", seed=7).seed == 7

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="small"):
            resolve_profile("galactic")


class TestServiceOnce:
    def test_once_self_check_passes(self, capsys):
        code = main_service(["--profile", "small", "--once"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "GET /healthz" in out
        assert "audit fingerprint == direct ScoutSystem.check()" in out
        assert "self-check ok" in out
        assert multiprocessing.active_children() == []

    def test_unknown_profile_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["--profile", "galactic", "--once"])
        assert excinfo.value.code == 2
        assert "unknown workload profile" in capsys.readouterr().err

    def test_once_restores_a_four_partition_snapshot_into_one_partition(
        self, tmp_path, capsys, monkeypatch
    ):
        """A document written under the removed ``--partitions 4`` still
        restores — into the one partition the daemon runs — around one sweep."""
        sharded = NetworkMonitor(deploy_profile("small"), partitions=4)
        sharded.start()
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(sharded.snapshot()))
        verdict = sharded.report().semantic_fingerprint()
        sharded.close()
        assert sharded.stats()["full_checks"] == 4  # one bootstrap per partition

        restored = []

        def self_check(service):
            monitor = service.monitor
            restored.append((monitor.stats(), monitor.report().semantic_fingerprint()))
            return run_self_check(service)

        run_self_check = cli._self_check
        monkeypatch.setattr(cli, "_self_check", self_check)
        code = main_service(["--profile", "small", "--once", "--restore", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out
        assert "monitor restored" in out
        [(stats, fingerprint)] = restored
        assert stats["partitions"] == 1 and stats["restores"] == 1
        assert stats["full_checks"] == 4 + 1 and stats["active_incidents"] == 0
        assert fingerprint == verdict

    def test_once_restore_reconciles_the_ledger_with_the_regenerated_fabric(
        self, tmp_path, capsys, monkeypatch
    ):
        """``--restore`` deploys the profile afresh: a leaf the document
        records as violating is healthy there, and the first poll — not the
        restore — resolves its incident."""
        controller = deploy_profile("small")
        monitor = NetworkMonitor(controller)
        monitor.start()
        leaf = sorted(controller.fabric.leaf_uids())[-1]
        assert controller.fabric.switch(leaf).tcam.remove_where(lambda rule: True)
        [incident] = monitor.poll(force=True).opened
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(monitor.snapshot()))
        monitor.close()

        seen = []

        def self_check(service):
            monitor = service.monitor
            seen.append(
                (
                    monitor.due(),
                    monitor.stats()["dirty_switches"],
                    [item.incident_id for item in monitor.store.active()],
                )
            )
            resolved = monitor.poll().resolved
            seen.append([item.incident_id for item in resolved])
            return run_self_check(service)

        run_self_check = cli._self_check
        monkeypatch.setattr(cli, "_self_check", self_check)
        code = main_service(["--profile", "small", "--once", "--restore", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out
        assert seen == [(True, 1, [incident.incident_id]), [incident.incident_id]]

    def test_restore_onto_a_fabric_that_cannot_be_checked_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        """The restore sweep's VerificationError is one line and exit 2, the
        way a malformed snapshot is, not a traceback."""
        monitor = NetworkMonitor(deploy_profile("small"))
        monitor.start()
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(monitor.snapshot()))
        monitor.close()

        def deploy_with_an_unencodable_rule(name, seed=None):
            controller = deploy_profile(name, seed=seed)
            tcam = controller.fabric.switch(sorted(controller.fabric.leaf_uids())[0]).tcam
            unencodable = dataclasses.replace(tcam.rules()[0], port=70_000)
            tcam.write((), {unencodable.match_key(): unencodable})
            return controller

        monkeypatch.setattr(app, "deploy_profile", deploy_with_an_unencodable_rule)
        with pytest.raises(SystemExit) as excinfo:
            main_service(["--profile", "small", "--once", "--restore", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "70000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", [["--partitions", "2"], ["--no-trace"]])
    def test_removed_daemon_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_service(["--profile", "small", "--once", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestAuditCli:
    def test_audit_prints_report_json_and_exits_zero_when_consistent(self, capsys):
        code = main_audit(["--profile", "small"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["consistent"] is True
        assert payload["scope"] == "controller"
        assert payload["fingerprint"] == payload["equivalence"]["fingerprint"]
        assert payload["hypothesis"]["entries"] == []

    @pytest.mark.parametrize("flag", [["--parallel"], ["--max-workers", "2"]])
    def test_removed_audit_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_audit(["--profile", "small", *flag])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_audit_switch_scope(self, capsys):
        code = main_audit(["--profile", "small", "--scope", "switch"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["scope"] == "switch"
