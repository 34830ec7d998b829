"""The burst protocol of ``CPU.run`` on every execution tier.

A burst ends when its budget is spent or an event fires.  A
custom-instruction fault is the most frequent event on a swap-heavy run:
it charges the base issue cost and nothing else, leaves the PC on the
CDP and retires nothing, so the kernel can map the circuit and re-issue
the instruction.  Whatever a tier does internally to deliver the fault,
the next burst must not see it again — not after the circuit is mapped,
not after the image is retargeted, not after a checkpoint restore.
"""

import json

import pytest

from conftest import adder_spec, same_on_every_tier
from repro.config import EXEC_TIERS, MachineConfig
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.tlb import IDTuple
from repro.cpu.assembler import assemble
from repro.cpu.core import CPU, CPUState
from repro.cpu.exceptions import CustomInstructionFault, ExitTrap
from repro.cpu.isa import code_address
from repro.cpu.memory import Memory
from repro.cpu.program import Program
from repro.kernel.porsche import Porsche

#: Distinct costs so every charge in a burst is identifiable.
COSTS = dict(alu_cycles=2, coproc_transfer_cycles=3, cdp_issue_cycles=5)

SOURCE = """
main:
    MOV r0, #1000
    MOV r1, #2345
    MCR f0, r0
    MCR f1, r1
site:
    CDP #1, f2, f0, f1
    MRC r2, f2
    MOV r0, #0
    HALT
"""
#: Instruction index of the CDP, and the cycles of everything before it.
SITE = 4
PROLOGUE_CYCLES = 2 * COSTS["alu_cycles"] + 2 * COSTS["coproc_transfer_cycles"]

tiers = pytest.mark.parametrize("tier", EXEC_TIERS)


def make_cpu(tier: str, source: str = SOURCE) -> CPU:
    config = MachineConfig(cycles_per_ms=1000, exec_tier=tier, **COSTS)
    program = assemble(source)
    memory = Memory(size=16 * 1024)
    state = CPUState(memory=memory)
    state.pc = code_address(program.entry_index)
    return CPU(
        config=config,
        program=program.instructions,
        state=state,
        coprocessor=ProteusCoprocessor(config=config),
        pid=1,
    )


def map_circuit(cpu: CPU, latency: int = 4) -> None:
    """What the CIS does on a load fault: configure a PFU, map the tuple."""
    instance = adder_spec(latency=latency).instantiate(cpu.pid, cpu.config)
    cpu.coprocessor.load_circuit(0, instance)
    cpu.coprocessor.dispatch.map_hardware(IDTuple(cpu.pid, 1), 0)


def burst(cpu: CPU, budget: int) -> tuple:
    """Read a burst's fields at once: the record may be reused."""
    result = cpu.run(budget)
    return result.cycles, result.event, result.instructions


def assert_fault(event) -> None:
    assert type(event) is CustomInstructionFault
    assert event.cid == 1
    assert event.fault_pc == code_address(SITE)


@tiers
def test_faulting_burst_charges_the_issue_cost(tier):
    cpu = make_cpu(tier)
    cycles, event, instructions = burst(cpu, 10_000)
    assert_fault(event)
    assert cycles == PROLOGUE_CYCLES + COSTS["alu_cycles"]
    assert instructions == SITE
    assert cpu.state.pc == code_address(SITE)
    assert cpu.state.instructions_retired == SITE


@tiers
def test_burst_that_starts_on_the_fault(tier):
    cpu = make_cpu(tier)
    burst(cpu, 10_000)
    cycles, event, instructions = burst(cpu, 10_000)
    assert_fault(event)
    assert cycles == COSTS["alu_cycles"]
    assert instructions == 0
    assert cpu.state.pc == code_address(SITE)
    assert cpu.state.instructions_retired == SITE


@tiers
def test_fault_does_not_leak_after_mapping(tier):
    cpu = make_cpu(tier)
    burst(cpu, 10_000)
    map_circuit(cpu)
    # Interrupted mid-instruction by the budget: a timer expiry, not the
    # fault of the previous burst.
    budget = COSTS["cdp_issue_cycles"] + 2
    cycles, event, instructions = burst(cpu, budget)
    assert event is None
    assert cycles == budget
    assert instructions == 0
    assert cpu.state.pc == code_address(SITE)
    cycles, event, instructions = burst(cpu, 10_000)
    assert type(event) is ExitTrap
    assert instructions == 4
    assert cpu.state.regs[2] == 3345
    assert cpu.state.instructions_retired == SITE + 4


@tiers
def test_fault_does_not_leak_after_retarget(tier):
    cpu = make_cpu(tier)
    burst(cpu, 10_000)
    cpu.retarget(assemble(SOURCE.replace("CDP #1, f2, f0, f1", "NOP")).instructions)
    cycles, event, instructions = burst(cpu, 10_000)
    assert type(event) is ExitTrap
    assert instructions == 4
    assert cpu.state.instructions_retired == SITE + 4


@tiers
def test_fault_does_not_leak_after_restore(tier):
    cpu = make_cpu(tier)
    checkpoint = json.loads(json.dumps(cpu.snapshot()))
    burst(cpu, 10_000)
    cpu.restore(checkpoint)
    assert cpu.state.pc == code_address(0)
    map_circuit(cpu)
    cycles, event, instructions = burst(cpu, 10_000)
    assert type(event) is ExitTrap
    assert instructions == SITE + 4
    assert cpu.state.regs[2] == 3345


@tiers
def test_zero_budget_is_an_empty_burst(tier):
    cpu = make_cpu(tier)
    assert burst(cpu, 0) == (0, None, 0)
    burst(cpu, 10_000)
    assert burst(cpu, 0) == (0, None, 0)
    assert cpu.state.pc == code_address(SITE)
    assert cpu.state.instructions_retired == SITE


KERNEL_SOURCE = """
main:
    MOV r0, #1
    MOV r1, #0
    MOV r2, #0
    SWI #1
    MOV r0, #1000
    MOV r1, #2345
    MCR f0, r0
    MCR f1, r1
    MOV r3, #8
loop:
    CDP #1, f2, f0, f1
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MRC r0, f2
    SWI #0
"""


def test_kernel_maps_the_circuit_once(monkeypatch):
    """One load fault, then eight hardware issues: the fault is handled
    once and never re-delivered once the circuit is mapped."""

    def run():
        kernel = Porsche(MachineConfig(cycles_per_ms=1000, quantum_ms=1.0))
        process = kernel.spawn(
            Program.from_source("p", KERNEL_SOURCE, circuit_table=[adder_spec()])
        )
        kernel.run()
        stats = process.stats
        return (
            process.exit_status,
            process.completion_cycle,
            stats.load_faults,
            stats.mapping_faults,
            stats.instructions,
        )

    status, _, load_faults, mapping_faults, _ = same_on_every_tier(
        monkeypatch, run
    )
    assert status == 3345
    assert (load_faults, mapping_faults) == (1, 0)
