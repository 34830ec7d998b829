"""The Custom Instruction Scheduler: fault triage and circuit movement."""

import pytest

from conftest import adder_spec, counter_spec
from repro.core.dispatch import DispatchKind
from repro.core.tlb import IDTuple
from repro.cpu.program import Program
from repro.errors import ProcessKilled
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState
from repro.machine import Machine
from repro.sim.experiment import ExperimentSpec

SOFT_ADDRESS = 0x1000_0004


def spawn_with_circuits(kernel: Porsche, specs, pid_hint=""):
    program = Program.from_source(
        f"stub{pid_hint}", "main: NOP\nHALT", circuit_table=list(specs)
    )
    return kernel.spawn(program)


def register(kernel, process, cid, table_index=0, soft=None):
    kernel.cis.register(
        process, cid=cid, table_index=table_index, soft_address=soft
    )


class TestRegistration:
    def test_register_records(self, kernel):
        process = spawn_with_circuits(kernel, [adder_spec()])
        register(kernel, process, cid=1)
        registration = process.registration(1)
        assert registration is not None
        assert registration.pfu_index is None  # lazy loading

    def test_register_validates_security(self, kernel):
        huge = adder_spec(clbs=kernel.config.pfu_clbs + 1)
        process = spawn_with_circuits(kernel, [huge])
        with pytest.raises(ProcessKilled):
            register(kernel, process, cid=1)

    def test_duplicate_cid_rejected(self, kernel):
        process = spawn_with_circuits(kernel, [adder_spec()])
        register(kernel, process, cid=1)
        with pytest.raises(Exception):
            register(kernel, process, cid=1)


class TestFaultTriage:
    def test_unregistered_cid_kills(self, kernel):
        process = spawn_with_circuits(kernel, [])
        with pytest.raises(ProcessKilled):
            kernel.cis.handle_fault(process, cid=9)
        assert kernel.cis.stats.kills == 1

    def test_first_fault_loads(self, kernel):
        process = spawn_with_circuits(kernel, [adder_spec()])
        register(kernel, process, cid=1)
        __, action = kernel.cis.handle_fault(process, cid=1)
        assert action == "load"
        registration = process.registration(1)
        assert registration.pfu_index is not None
        resolution = kernel.coprocessor.resolve(process.pid, 1)
        assert resolution.kind is DispatchKind.HARDWARE

    def test_mapping_fault_repaired_without_transfer(self, kernel):
        """§4.2: check for a mapping fault before loading anything."""
        process = spawn_with_circuits(kernel, [adder_spec()])
        register(kernel, process, cid=1)
        kernel.cis.handle_fault(process, cid=1)
        moved_before = kernel.cis.stats.total_bytes_moved
        # Push the mapping out of the TLB without touching the PFU.
        kernel.coprocessor.dispatch.hardware_tlb.remove(
            IDTuple(process.pid, 1)
        )
        cycles, action = kernel.cis.handle_fault(process, cid=1)
        assert action == "mapping"
        assert kernel.cis.stats.total_bytes_moved == moved_before

    def test_swap_when_array_full(self, kernel):
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1)
            processes.append(process)
        for process in processes[:4]:
            kernel.cis.handle_fault(process, cid=1)
        __, action = kernel.cis.handle_fault(processes[4], cid=1)
        assert action == "swap"
        assert kernel.cis.stats.evictions == 1
        # The victim's owner lost its PFU.
        victims = [
            p for p in processes[:4] if p.registration(1).pfu_index is None
        ]
        assert len(victims) == 1

    def test_eviction_saves_only_state_bytes(self, kernel):
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1)
            processes.append(process)
            kernel.cis.handle_fault(process, cid=1)
        stats = kernel.cis.stats
        assert stats.evictions == 1
        # 5 loads moved 5 static images; 1 eviction moved only state.
        assert stats.static_bytes_moved > 4 * stats.state_bytes_moved

    def test_soft_deferral_when_preferred(self, config):
        kernel = Porsche(config.derive(prefer_software_when_full=True))
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1, soft=SOFT_ADDRESS)
            processes.append(process)
        for process in processes[:4]:
            kernel.cis.handle_fault(process, cid=1)
        __, action = kernel.cis.handle_fault(processes[4], cid=1)
        assert action == "soft"
        resolution = kernel.coprocessor.resolve(processes[4].pid, 1)
        assert resolution.kind is DispatchKind.SOFTWARE
        assert resolution.address == SOFT_ADDRESS
        assert kernel.cis.stats.evictions == 0

    def test_no_soft_alternative_means_swap_even_when_preferred(self, config):
        kernel = Porsche(config.derive(prefer_software_when_full=True))
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1, soft=None)
            processes.append(process)
            kernel.cis.handle_fault(process, cid=1)
        assert kernel.cis.stats.evictions == 1

    def test_soft_remap_after_tlb_eviction(self, config):
        kernel = Porsche(config.derive(prefer_software_when_full=True))
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1, soft=SOFT_ADDRESS)
            processes.append(process)
            kernel.cis.handle_fault(process, cid=1)
        kernel.coprocessor.dispatch.software_tlb.remove(
            IDTuple(processes[4].pid, 1)
        )
        __, action = kernel.cis.handle_fault(processes[4], cid=1)
        assert action == "soft"
        assert kernel.cis.stats.soft_remaps == 1


class TestProcessExit:
    def test_exit_frees_pfus_and_mappings(self, kernel):
        process = spawn_with_circuits(kernel, [adder_spec()])
        register(kernel, process, cid=1)
        kernel.cis.handle_fault(process, cid=1)
        process.state = ProcessState.EXITED
        kernel.cis.process_exit(process)
        assert not any(pfu.configured for pfu in kernel.coprocessor.pfus)
        assert kernel.coprocessor.resolve(process.pid, 1).kind is (
            DispatchKind.FAULT
        )

    def test_promotion_on_free(self, config):
        kernel = Porsche(
            config.derive(
                prefer_software_when_full=True, promote_on_free=True
            )
        )
        processes = []
        for i in range(5):
            process = spawn_with_circuits(kernel, [adder_spec(f"c{i}")], str(i))
            register(kernel, process, cid=1, soft=SOFT_ADDRESS)
            processes.append(process)
            kernel.cis.handle_fault(process, cid=1)
        soft_process = processes[4]
        assert soft_process.registration(1).soft_mapped
        processes[0].state = ProcessState.EXITED
        kernel.cis.process_exit(processes[0])
        assert kernel.cis.stats.promotions == 1
        assert soft_process.registration(1).pfu_index is not None
        assert kernel.coprocessor.resolve(soft_process.pid, 1).kind is (
            DispatchKind.HARDWARE
        )

    def test_stateful_circuits_not_promoted(self, config):
        kernel = Porsche(
            config.derive(
                prefer_software_when_full=True, promote_on_free=True
            )
        )
        processes = []
        for i in range(5):
            process = spawn_with_circuits(
                kernel, [counter_spec(f"c{i}")], str(i)
            )
            register(kernel, process, cid=1, soft=SOFT_ADDRESS)
            processes.append(process)
            kernel.cis.handle_fault(process, cid=1)
        processes[0].state = ProcessState.EXITED
        kernel.cis.process_exit(processes[0])
        assert kernel.cis.stats.promotions == 0
        assert processes[4].registration(1).soft_mapped


class TestSharing:
    def test_same_circuit_shares_pfu_with_state_swap(self, config):
        # One PFU so the array is genuinely full when B arrives.
        kernel = Porsche(config.derive(allow_sharing=True, pfu_count=1))
        a = spawn_with_circuits(kernel, [adder_spec("shared")], "a")
        b = spawn_with_circuits(kernel, [adder_spec("shared")], "b")
        register(kernel, a, cid=1)
        register(kernel, b, cid=1)
        kernel.cis.handle_fault(a, cid=1)
        __, action = kernel.cis.handle_fault(b, cid=1)
        assert action == "share"
        assert kernel.cis.stats.state_swaps == 1
        # Both instances target the same PFU slot over time; only one is
        # resident at once.
        assert a.registration(1).pfu_index is None
        assert b.registration(1).pfu_index is not None

    def test_free_pfu_preferred_over_sharing(self, config):
        """With slots free, sharing would serialise needlessly."""
        kernel = Porsche(config.derive(allow_sharing=True))
        a = spawn_with_circuits(kernel, [adder_spec("shared")], "a")
        b = spawn_with_circuits(kernel, [adder_spec("shared")], "b")
        register(kernel, a, cid=1)
        register(kernel, b, cid=1)
        kernel.cis.handle_fault(a, cid=1)
        __, action = kernel.cis.handle_fault(b, cid=1)
        assert action == "load"
        assert kernel.cis.stats.state_swaps == 0

    def test_sharing_disabled_uses_second_pfu(self, kernel):
        a = spawn_with_circuits(kernel, [adder_spec("shared")], "a")
        b = spawn_with_circuits(kernel, [adder_spec("shared")], "b")
        register(kernel, a, cid=1)
        register(kernel, b, cid=1)
        kernel.cis.handle_fault(a, cid=1)
        __, action = kernel.cis.handle_fault(b, cid=1)
        assert action == "load"
        assert a.registration(1).pfu_index != b.registration(1).pfu_index


def _check_bookkeeping(kernel: Porsche) -> None:
    """The five records of what each PFU holds agree: the PFU's
    instance, the owning registration's ``pfu_index``, the CIS's
    ``owners`` table, the hardware-TLB tuples naming the PFU and the
    region's resident image."""
    coprocessor = kernel.coprocessor
    pfus = coprocessor.pfus.pfus
    claims = {}
    for process in kernel.processes.values():
        # Aliases share one Registration: count each object once.
        unique = {id(r): r for r in process.registrations.values()}
        for registration in unique.values():
            index = registration.pfu_index
            if index is None:
                continue
            assert index not in claims, f"PFU {index} claimed twice"
            claims[index] = (process, registration)
            assert pfus[index].instance is registration.instance
    tuples = coprocessor.dispatch.hardware_tlb.contents()
    for pfu in pfus:
        naming = [key for key, value in tuples.items() if value == pfu.index]
        owner = kernel.cis.owners[pfu.index]
        if pfu.instance is None:
            assert pfu.index not in claims
            assert naming == [], (pfu.index, naming)
            assert owner is None
            continue
        process, registration = claims[pfu.index]
        assert owner is registration
        assert pfu.instance.pid == process.pid
        resident = coprocessor.array.regions[pfu.index].resident
        assert resident is not None
        assert resident.name == pfu.instance.bitstream.name
        for key in naming:
            assert key.pid == process.pid
            assert process.registration(key.cid) is registration


@pytest.mark.parametrize("variant, action", [
    (dict(policy="round_robin"), "swap"),
    (dict(policy="random"), "swap"),
    (dict(policy="round_robin", allow_sharing=True), "share"),
], ids=["round_robin", "random", "share"])
def test_swap_bookkeeping_agrees_after_every_fault(variant, action):
    spec = ExperimentSpec(workload="alpha", instances=5, quantum_ms=1.0,
                          scale=1 / 8000, **variant)
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    cis = machine.kernel.cis
    handle_fault = cis.handle_fault
    faults = []

    def checked(process, cid):
        outcome = handle_fault(process, cid)
        faults.append(outcome[1])
        _check_bookkeeping(machine.kernel)
        return outcome

    cis.handle_fault = checked
    machine.run()
    assert machine.outcome(verify=True).verified
    assert action in faults
