"""Unit tests for the ``repro-trace`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs import cli
from repro.obs.cli import main
from repro.workloads.scenarios import deploy_profile


class TestCheckSubcommand:
    def test_prints_attribution_table(self, capsys, monkeypatch):
        # A healthy leaf is settled by key-set identity and builds no atoms,
        # so the engine stages only show on a degraded fabric.
        def deploy_degraded(profile, seed=None):
            controller = deploy_profile(profile, seed=seed)
            leaf = sorted(controller.fabric.leaf_uids())[0]
            tcam = controller.fabric.switch(leaf).tcam
            tcam.write([tcam.match_keys()[0]], {})
            return controller

        monkeypatch.setattr(cli, "deploy_profile", deploy_degraded)
        assert main(["check", "--profile", "small"]) == 0
        out = capsys.readouterr().out
        assert "[repro-trace] profile 'small'" in out
        assert "consistent=False" in out
        # The attribution table names the instrumented pipeline stages.
        assert "check.switch" in out
        assert "verify.ap.build" in out
        assert "% wall" in out

    def test_exports_jsonl_and_chrome(self, tmp_path, capsys):
        jsonl = tmp_path / "spans.jsonl"
        chrome = tmp_path / "trace.json"
        assert (
            main(
                [
                    "check",
                    "--profile",
                    "small",
                    "--jsonl",
                    str(jsonl),
                    "--chrome",
                    str(chrome),
                ]
            )
            == 0
        )
        payloads = [
            json.loads(line) for line in jsonl.read_text().splitlines() if line
        ]
        assert payloads and all("span_id" in p for p in payloads)
        trace = json.loads(chrome.read_text())
        assert trace["traceEvents"]
        assert {event["ph"] for event in trace["traceEvents"]} == {"X"}

    def test_unknown_profile_errors(self):
        with pytest.raises(ValueError, match="unknown workload profile"):
            main(["check", "--profile", "nope"])


class TestFlightrecordSubcommand:
    def _bundle(self):
        from repro.obs import FlightRecorder, TraceCollector, correlated

        recorder = FlightRecorder()
        collector = TraceCollector()
        collector.add_sink(recorder.record_span)
        with correlated("corr-cli-1"):
            with collector.span("monitor.poll"):
                with collector.span("worker.shard"):
                    pass
            recorder.record_event("bus.TcamChanged", detail="leaf-1 lost a rule")
            return recorder.dump(
                "incident-open", incident_id="INC-0001", switch="leaf-1"
            )

    def test_pretty_prints_a_bundle(self, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(self._bundle()))
        assert main(["flightrecord", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight record FR-0001" in out
        assert "trigger=incident-open" in out
        assert "incident: INC-0001" in out
        assert "monitor.poll" in out
        assert "    worker.shard" in out  # indented under its parent
        assert "[corr-cli-1]" in out
        assert "bus.TcamChanged" in out

    def test_accepts_the_http_envelope(self, tmp_path, capsys):
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps({"flightrecord": self._bundle()}))
        assert main(["flightrecord", str(path)]) == 0
        assert "trigger=incident-open" in capsys.readouterr().out

    def test_rejects_a_non_bundle_payload(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"spans": []}))
        assert main(["flightrecord", str(path)]) == 1
        assert "not a flight-record bundle" in capsys.readouterr().out


def test_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, named",
    [
        (["parallel"], "'parallel'"),
        (["check", "--parallel"], "--parallel"),
        (["check", "--workers", "2"], "--workers"),
    ],
)
def test_the_removed_parallel_surface_is_a_usage_error(argv, named, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err
