"""Unit tests for the JSONL trace recorder/replayer and trace diffing."""

import json
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    FaultSpec,
    diff_traces,
    read_trace,
    record_campaign,
    replay_trace,
    run_campaign,
    write_trace,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        name="trace-unit",
        profiles=("small",),
        seeds=(1,),
        faults=(FaultSpec("object-fault"), FaultSpec("unresponsive-switch")),
        engines=("serial",),
    )


@pytest.fixture(scope="module")
def recorded(spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "trace.jsonl"
    report = record_campaign(spec, path)
    return spec, path, report


class TestWriteAndRead:
    def test_trace_layout(self, recorded):
        _, path, report = recorded
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "campaign-trace"
        assert lines[0]["version"] == 1
        assert [line["kind"] for line in lines[1:-1]] == ["cell"] * len(report.results)
        assert lines[-1] == {
            "kind": "end",
            "cells": len(report.results),
            "chain": report.fingerprint_chain(),
        }

    def test_round_trip(self, recorded):
        spec, path, report = recorded
        parsed = read_trace(path)
        assert parsed.spec == spec
        assert parsed.chain == report.fingerprint_chain()
        assert parsed.cell_ids() == [result.cell_id for result in report.results]
        assert parsed.cells[0].result == report.results[0].identity()

    def test_recording_is_byte_deterministic(self, spec, recorded, tmp_path):
        _, path, _ = recorded
        again = tmp_path / "again.jsonl"
        record_campaign(spec, again)
        assert again.read_bytes() == path.read_bytes()


class TestReadErrors:
    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_invalid_json_names_line(self, tmp_path, recorded):
        _, path, _ = recorded
        header = path.read_text().splitlines()[0]
        bad = self._write(tmp_path, [header, "{oops"])
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: invalid JSON"):
            read_trace(bad)

    def test_error_line_numbers_are_physical(self, tmp_path, recorded):
        """Blank lines are skipped but still counted, so editors jump right."""
        _, path, _ = recorded
        header = path.read_text().splitlines()[0]
        bad = self._write(tmp_path, [header, "", "", "{oops"])
        with pytest.raises(ValueError, match=r"bad\.jsonl:4: invalid JSON"):
            read_trace(bad)

    def test_missing_header_rejected(self, tmp_path):
        path = self._write(tmp_path, ['{"kind": "cell"}', '{"kind": "end"}'])
        with pytest.raises(ValueError, match="expected a 'campaign-trace' header"):
            read_trace(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                json.dumps(
                    {
                        "kind": "campaign-trace",
                        "version": 99,
                        "spec": {"profiles": ["small"]},
                    }
                ),
                '{"kind": "end", "cells": 0, "chain": ""}',
            ],
        )
        with pytest.raises(ValueError, match="unsupported trace version"):
            read_trace(path)

    def test_header_listing_the_removed_parallel_mode_is_refused_by_name(
        self, recorded, tmp_path
    ):
        """A trace recorded with the mode is refused whole at the header,
        never replayed without its ``parallel`` cells."""
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["engines"] = ["serial", "parallel"]
        old = self._write(tmp_path, [json.dumps(header)] + lines[1:])
        with pytest.raises(
            ValueError, match=r"bad\.jsonl:1: bad campaign spec .*'parallel'"
        ):
            read_trace(old)

    def test_truncated_trace_rejected(self, recorded, tmp_path):
        _, path, _ = recorded
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            read_trace(truncated)

    def test_cell_count_mismatch_rejected(self, recorded, tmp_path):
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        end = json.loads(lines[-1])
        end["cells"] += 1
        bad = self._write(tmp_path, lines[:-1] + [json.dumps(end)])
        with pytest.raises(ValueError, match="declares"):
            read_trace(bad)

    def test_cell_missing_result_field_rejected(self, recorded, tmp_path):
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        cell = json.loads(lines[1])
        del cell["result"]["fingerprint"]
        bad = self._write(tmp_path, [lines[0], json.dumps(cell)] + lines[2:])
        with pytest.raises(ValueError, match="missing fingerprint"):
            read_trace(bad)


class TestReplay:
    def test_replay_matches_recording(self, recorded):
        _, path, _ = recorded
        outcome = replay_trace(path)
        assert outcome.ok
        assert outcome.mismatches == []
        assert outcome.chain_recorded == outcome.chain_replayed
        assert "replayed identically" in outcome.describe()

    def test_tampered_fingerprint_is_caught(self, recorded, tmp_path):
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        cell = json.loads(lines[1])
        cell["result"]["fingerprint"] = "0" * 64
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join([lines[0], json.dumps(cell)] + lines[2:]) + "\n")
        outcome = replay_trace(tampered)
        assert not outcome.ok
        assert len(outcome.mismatches) == 1
        assert "fingerprint" in outcome.mismatches[0].fields
        assert "1 mismatching cell(s)" in outcome.describe()

    def test_tampered_chain_is_caught(self, recorded, tmp_path):
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        end = json.loads(lines[-1])
        end["chain"] = "0" * 64
        tampered = tmp_path / "chain.jsonl"
        tampered.write_text("\n".join(lines[:-1] + [json.dumps(end)]) + "\n")
        outcome = replay_trace(tampered)
        assert not outcome.ok
        assert outcome.mismatches == []
        assert "DIVERGES" in outcome.describe()

    def test_tampered_metrics_are_caught(self, recorded, tmp_path):
        _, path, _ = recorded
        lines = path.read_text().splitlines()
        cell = json.loads(lines[1])
        cell["result"]["metrics"]["recall"] = 0.123
        tampered = tmp_path / "metrics.jsonl"
        tampered.write_text("\n".join([lines[0], json.dumps(cell)] + lines[2:]) + "\n")
        outcome = replay_trace(tampered)
        assert not outcome.ok
        assert "metrics" in outcome.mismatches[0].fields

    def test_replay_report_is_json_ready(self, recorded):
        _, path, _ = recorded
        payload = json.loads(json.dumps(replay_trace(path).to_dict()))
        assert payload["ok"] is True
        assert payload["cells"] == 2
        assert payload["chain_recorded"] == payload["chain_replayed"]


class TestDiff:
    def test_identical_traces_have_no_diff(self, recorded):
        _, path, _ = recorded
        assert diff_traces(path, path) == []

    def test_differing_cells_are_reported(self, spec, recorded, tmp_path):
        _, path, _ = recorded
        other_spec = CampaignSpec(
            name=spec.name,
            profiles=spec.profiles,
            seeds=(2,),
            faults=spec.faults,
            engines=spec.engines,
        )
        other_path = tmp_path / "other.jsonl"
        write_trace(run_campaign(other_spec), other_path)
        differences = diff_traces(path, other_path)
        assert any("spec differs" in line for line in differences)
        assert any("only in left trace" in line for line in differences)


class TestCorpus:
    def test_every_incremental_cell_reads_its_serial_twins_fingerprint(self):
        """A held checker and a fresh one prove one state alike: a recorded
        ``incremental`` cell's fingerprint is that of its ``serial`` twin
        (same profile, seed, fault and scope)."""
        by_twin = {}
        for path in sorted(CORPUS.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                if record["kind"] != "cell":
                    continue
                cell = dict(record["cell"])
                engine = cell.pop("engine")
                twin = by_twin.setdefault(json.dumps(cell, sort_keys=True), {})
                twin.setdefault(engine, set()).add(record["result"]["fingerprint"])
        pairs = [twin for twin in by_twin.values() if "incremental" in twin]
        assert pairs
        for twin in pairs:
            assert twin["incremental"] == twin["serial"]
