"""Seeded churn runs journal the same bytes as the commit that recorded them.

The hashes below were recorded from ``4510b8e`` (PR 16), the last commit on
which the online monitor compiled L for itself.  Reading L from the
controller's compiled policy instead must change nothing an operator can
see: the churn records, every checkpoint's fingerprints, the incident
store, every :class:`~repro.online.monitor.MonitorPass` (which switches each
poll re-checked included) and how many of those re-checks the digest
answered.  A change that moves the blast radius — re-checking a switch less
(an open incident is no longer re-localized when its change-log evidence
moves) or more — shows here before it shows anywhere else.

The ``passes`` hashes were re-recorded in PR 23, which made a bus event a
TCAM write *transaction* instead of a rule: every pass's ``events`` count
fell, and with ``events`` removed the pass lists are those of ``9052e0a``
(shown in that PR's CHANGES.md entry; ``journal`` and both counters did not
move).

Re-record only for a change that is *meant* to alter monitor behaviour, and
say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.churn import ChurnDriver

#: (workload, events, seed) -> what the run must journal.
RECORDED = {
    ("small", 600, 11): {
        "journal": "dbf53877e3247df2a13e84f2f01d9414281b64a7021a4c034549cc66f9e98b06",
        "passes": "d31390b184198983ac88327233f2506a12ed05f9e2ced1f7f06cfffb41d47017",
        "switch_checks": 225,
        "digest_short_circuits": 1575,
    },
    ("simulation", 400, 7): {
        "journal": "6d66972ee7d7ef9b2713fa40f9aea05237ee12e9e0bd9bc91a7edaa2f385be3f",
        "passes": "9b69038b8f87efe44afdc84872817f24fc93fd3b529515204a5eaa132a24450c",
        "switch_checks": 491,
        "digest_short_circuits": 1917,
    },
    ("simulation", 300, 2018): {
        "journal": "35e279f13814e7850be68e60fa4a1bd437d6a16d693f36785bc534d0304ef8ec",
        "passes": "dda4da8ca9d5f9f989a7ecc37c85e56ef9c4502e2546d109185eb9cb4a3050c4",
        "switch_checks": 703,
        "digest_short_circuits": 1134,
    },
}


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _journal(workload: str, events: int, seed: int) -> dict:
    with ChurnDriver.for_workload(workload, events=events, seed=seed) as driver:
        report = driver.run()
        monitor = driver.monitor
        stats = monitor.stats()
        return {
            "journal": _sha256(
                {
                    "records": report.records,
                    "checkpoints": [
                        [
                            checkpoint.incremental_fingerprint,
                            checkpoint.full_fingerprint,
                            checkpoint.violating_switches,
                            checkpoint.incident_switches,
                        ]
                        for checkpoint in report.checkpoints
                    ],
                    "incidents": monitor.store.to_jsonl(),
                }
            ),
            "passes": _sha256([monitor_pass.to_dict() for monitor_pass in monitor.passes]),
            "switch_checks": stats["switch_checks"],
            "digest_short_circuits": stats["digest_short_circuits"],
        }


def test_small_600_events_journal_is_byte_identical():
    assert _journal("small", 600, 11) == RECORDED["small", 600, 11]


@pytest.mark.soak
@pytest.mark.slow
@pytest.mark.parametrize("events, seed", [(400, 7), (300, 2018)])
def test_simulation_journal_is_byte_identical(events, seed):
    assert _journal("simulation", events, seed) == RECORDED["simulation", events, seed]
