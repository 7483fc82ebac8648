"""Unit tests for campaign specs: validation, parsing, grid expansion."""

import pytest

from repro.campaign import CampaignCell, CampaignSpec, FaultSpec


class TestFaultSpec:
    def test_defaults(self):
        fault = FaultSpec("object-fault")
        assert fault.count == 1
        assert fault.fault_kinds == ("full", "partial")
        assert fault.label == "object-fault"

    def test_multi_fault_label_carries_count(self):
        assert FaultSpec("multi-fault", count=4).label == "multi-fault-x4"

    def test_churn_label_carries_stream_length(self):
        assert FaultSpec("churn", count=50).label == "churn-x50"

    def test_churn_accepts_counts_and_parses_shorthand(self):
        assert FaultSpec.parse("churn:120") == FaultSpec("churn", count=120)
        assert FaultSpec.from_dict({"kind": "churn", "count": 30}).count == 30

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            FaultSpec("bit-rot")

    def test_single_cause_classes_reject_counts(self):
        with pytest.raises(ValueError, match="single-cause"):
            FaultSpec("tcam-overflow", count=2)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("object-fault", fault_kinds=("total",))

    def test_capacity_fraction_bounds(self):
        with pytest.raises(ValueError, match="capacity_fraction"):
            FaultSpec("tcam-overflow", capacity_fraction=1.5)

    def test_parse_shorthand(self):
        assert FaultSpec.parse("object-fault") == FaultSpec("object-fault")
        assert FaultSpec.parse("multi-fault:5") == FaultSpec("multi-fault", count=5)
        with pytest.raises(ValueError, match="invalid fault count"):
            FaultSpec.parse("multi-fault:lots")

    def test_dict_round_trip(self):
        fault = FaultSpec("multi-fault", count=3, fault_kinds=("full",))
        assert FaultSpec.from_dict(fault.to_dict()) == fault

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultSpec.from_dict({"kind": "object-fault", "blast_radius": 3})


class TestCampaignCell:
    def test_cell_id_is_stable_and_readable(self):
        cell = CampaignCell(
            profile="small", seed=7, fault=FaultSpec("object-fault"), engine="serial"
        )
        assert cell.cell_id == "small/seed7/object-fault/serial/controller"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown workload profile"):
            CampaignCell(
                profile="mars",
                seed=1,
                fault=FaultSpec("object-fault"),
                engine="serial",
            )

    def test_unknown_engine_rejected(self):
        # "ap" (a serial sweep pinned to one checker engine) and "parallel"
        # (the sharded sweep) were modes once.
        for engine in ("gpu", "ap", "parallel"):
            with pytest.raises(ValueError, match=f"unknown engine mode '{engine}'"):
                CampaignCell(
                    profile="small",
                    seed=1,
                    fault=FaultSpec("object-fault"),
                    engine=engine,
                )

    def test_dict_round_trip(self):
        cell = CampaignCell(
            profile="small",
            seed=3,
            fault=FaultSpec("multi-fault", count=2),
            engine="incremental",
            scope="switch",
        )
        assert CampaignCell.from_dict(cell.to_dict()) == cell

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ValueError, match="missing 'engine'"):
            CampaignCell.from_dict(
                {"profile": "small", "seed": 1, "fault": {"kind": "object-fault"}}
            )


class TestCampaignSpec:
    def test_grid_expansion_order(self):
        spec = CampaignSpec(
            name="grid",
            profiles=("small", "testbed"),
            seeds=(1, 2),
            faults=(FaultSpec("object-fault"), FaultSpec("tcam-overflow")),
            engines=("serial", "incremental"),
        )
        cells = spec.cells()
        assert len(cells) == 16
        # Canonical order: profile -> fault -> engine -> seed.
        assert cells[0].cell_id == "small/seed1/object-fault/serial/controller"
        assert cells[1].cell_id == "small/seed2/object-fault/serial/controller"
        assert cells[2].cell_id == "small/seed1/object-fault/incremental/controller"
        assert cells[8].cell_id == "testbed/seed1/object-fault/serial/controller"
        assert len({cell.cell_id for cell in cells}) == 16

    def test_removed_parallel_mode_is_refused_by_name(self):
        with pytest.raises(ValueError) as refusal:
            CampaignSpec(name="old", profiles=("small",), engines=("parallel",))
        assert str(refusal.value) == (
            "unknown engine mode 'parallel' (known: serial, incremental)"
        )

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CampaignSpec(name="empty", profiles=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CampaignSpec(name="dupes", profiles=("small",), seeds=(1, 1))

    def test_dict_round_trip(self):
        spec = CampaignSpec(
            name="round-trip",
            profiles=("small",),
            seeds=(5,),
            faults=(FaultSpec("unresponsive-switch"),),
            engines=("incremental",),
            scope="switch",
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_fault_shorthand(self):
        spec = CampaignSpec.from_dict(
            {"profiles": ["small"], "faults": ["object-fault", "multi-fault:3"]}
        )
        assert spec.faults == (
            FaultSpec("object-fault"),
            FaultSpec("multi-fault", count=3),
        )

    def test_from_dict_rejects_unknown_keys_and_scalars(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            CampaignSpec.from_dict({"profiles": ["small"], "parallelism": 4})
        with pytest.raises(ValueError, match="must be a list"):
            CampaignSpec.from_dict({"profiles": "small"})
