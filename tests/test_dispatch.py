"""The three-way dispatch resolution of Figure 1."""

import pytest

from repro.core.dispatch import DispatchKind, DispatchResult, DispatchUnit
from repro.core.tlb import IDTuple
from repro.errors import DispatchError


def unit() -> DispatchUnit:
    return DispatchUnit.build(tlb_entries=4)


def key(pid, cid):
    return IDTuple(pid=pid, cid=cid)


class TestResolution:
    def test_fault_when_unmapped(self):
        result = unit().resolve(1, 1)
        assert result.kind is DispatchKind.FAULT

    def test_hardware_hit(self):
        u = unit()
        u.map_hardware(key(1, 1), 2)
        result = u.resolve(1, 1)
        assert result.kind is DispatchKind.HARDWARE
        assert result.pfu_index == 2

    def test_software_hit(self):
        u = unit()
        u.map_software(key(1, 1), 0x1000_0040)
        result = u.resolve(1, 1)
        assert result.kind is DispatchKind.SOFTWARE
        assert result.address == 0x1000_0040

    def test_hardware_has_priority_over_software(self):
        """Figure 1: TLB 1 is consulted before TLB 2."""
        u = unit()
        u.map_software(key(1, 1), 0x1000_0040)
        u.map_hardware(key(1, 1), 0)
        assert u.resolve(1, 1).kind is DispatchKind.HARDWARE

    def test_mapping_hardware_clears_stale_software(self):
        u = unit()
        u.map_software(key(1, 1), 0x1000_0040)
        u.map_hardware(key(1, 1), 0)
        u.hardware_tlb.remove(key(1, 1))
        # The software mapping must NOT resurface: it was superseded.
        assert u.resolve(1, 1).kind is DispatchKind.FAULT

    def test_mapping_software_clears_stale_hardware(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.map_software(key(1, 1), 0x1000_0040)
        assert u.resolve(1, 1).kind is DispatchKind.SOFTWARE

    def test_pid_isolation(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        assert u.resolve(2, 1).kind is DispatchKind.FAULT

    def test_resolution_statistics(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.resolve(1, 1)
        u.resolve(1, 2)
        assert u.resolutions[DispatchKind.HARDWARE] == 1
        assert u.resolutions[DispatchKind.FAULT] == 1


class TestManagement:
    def test_unmap(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.unmap(key(1, 1))
        assert u.resolve(1, 1).kind is DispatchKind.FAULT

    def test_unmap_pid(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.map_software(key(1, 2), 0x1000_0000)
        u.map_hardware(key(2, 1), 1)
        assert u.unmap_pid(1) == 2
        assert u.resolve(2, 1).kind is DispatchKind.HARDWARE

    def test_unmap_pfu(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.map_hardware(key(2, 2), 0)
        u.map_hardware(key(3, 3), 1)
        assert u.unmap_pfu(0) == 2
        assert u.resolve(3, 3).kind is DispatchKind.HARDWARE

    def test_flush_clears_everything(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        u.map_software(key(1, 2), 0x1000_0000)
        assert u.flush() == 2
        assert u.resolve(1, 1).kind is DispatchKind.FAULT


class TestResultValidation:
    def test_hardware_requires_pfu(self):
        with pytest.raises(DispatchError):
            DispatchResult(kind=DispatchKind.HARDWARE)

    def test_software_requires_address(self):
        with pytest.raises(DispatchError):
            DispatchResult(kind=DispatchKind.SOFTWARE)

    def test_fault_requires_nothing(self):
        DispatchResult(kind=DispatchKind.FAULT)


class TestInterningAndGenerations:
    """Memoized CDP sites depend on two properties: resolutions are
    shared immutable values, and every management call advances the
    generation counter (while datapath lookups never do)."""

    def test_results_are_interned_singletons(self):
        u1, u2 = unit(), unit()
        u1.map_hardware(key(1, 1), 2)
        u2.map_hardware(key(9, 9), 2)
        assert u1.resolve(1, 1) is u1.resolve(1, 1)
        assert u1.resolve(1, 1) is u2.resolve(9, 9)
        assert u1.resolve(5, 5) is u2.resolve(6, 6)  # the fault singleton

    def test_every_management_call_bumps_generation(self):
        u = unit()
        calls = [
            lambda: u.map_hardware(key(1, 1), 0),
            lambda: u.map_software(key(1, 2), 0x1000_0000),
            lambda: u.unmap(key(1, 2)),
            lambda: u.unmap_pid(1),
            lambda: u.unmap_pfu(0),
            lambda: u.flush(),
            lambda: u.restore(u.snapshot()),
        ]
        for call in calls:
            before = u.generation
            call()
            assert u.generation > before, call

    def test_datapath_lookups_leave_generation_alone(self):
        u = unit()
        u.map_hardware(key(1, 1), 0)
        generation = u.generation
        u.resolve(1, 1)
        u.resolve(2, 2)  # fault path probes both TLBs
        assert u.generation == generation

    def test_generation_survives_snapshot_round_trip_as_transient(self):
        """Generations are never serialised — a snapshot taken at any
        generation restores into any other unit."""
        u = unit()
        u.map_hardware(key(1, 1), 3)
        snapshot = u.snapshot()
        assert "generation" not in snapshot
        assert "generation" not in snapshot["hardware_tlb"]
