"""The compiled execution tiers: partitioning, three-way tier
equivalence, memoized CDP dispatch invalidation, trace compilation and
eviction, and cross-tier checkpoints.

The contract under test is strong: ``jit``, ``block`` and ``step`` are
*bit-identical* — same cycles, same retired counts, same
events, same trace counters, same final memory — on every program and
every burst schedule, including under an active fault plan.
"""

import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec, same_on_every_tier
from repro.config import EXEC_TIERS, MachineConfig
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.tlb import IDTuple
from repro.cpu.assembler import assemble
from repro.cpu import blocks
from repro.cpu.blocks import block_leaders, fusible_runs
from repro.cpu.core import CPU, CPUState
from repro.cpu.isa import CODE_BASE, Instruction, Op, code_address
from repro.cpu.traces import TraceManager
from repro.cpu.memory import Memory
from repro.errors import MemoryFault
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.sim.experiment import ExperimentSpec, run_experiment

CONFIG = MachineConfig(cycles_per_ms=1000)
SCALE = 1 / 8000

#: Every tier that must match the ``step`` reference bit-for-bit.
COMPILED_TIERS = tuple(t for t in EXEC_TIERS if t != "step")


def make_cpu(
    source: str,
    tier: str,
    with_circuit: bool = False,
    software_label: str | None = None,
    pid: int = 1,
):
    config = MachineConfig(cycles_per_ms=1000, exec_tier=tier)
    program = assemble(source)
    memory = Memory(size=16 * 1024)
    memory.write_block(program.data_base, program.data)
    state = CPUState(memory=memory)
    state.pc = code_address(program.entry_index)
    coprocessor = ProteusCoprocessor(config=config)
    if with_circuit:
        instance = adder_spec(latency=4).instantiate(pid, config)
        coprocessor.load_circuit(0, instance)
        coprocessor.dispatch.map_hardware(IDTuple(pid, 1), 0)
    if software_label is not None:
        coprocessor.dispatch.map_software(
            IDTuple(pid, 1), program.label_address(software_label)
        )
    return CPU(
        config=config,
        program=program.instructions,
        state=state,
        coprocessor=coprocessor,
        pid=pid,
    )


def burst_log(cpu: CPU, budgets) -> list:
    log = []
    for budget in budgets:
        try:
            result = cpu.run(budget)
        except MemoryFault as fault:
            log.append(("MemoryFault", fault.address))
            break
        log.append(
            (result.cycles, result.instructions, type(result.event).__name__)
        )
        if result.event is not None and cpu.state.halted:
            break
    return log


def tier_state(cpu: CPU) -> dict:
    """Everything observable that the tiers must agree on."""
    dispatch = cpu.coprocessor.dispatch
    return {
        "regs": list(cpu.state.regs),
        "flags": cpu.state.flags.snapshot(),
        "halted": cpu.state.halted,
        "retired": cpu.state.instructions_retired,
        "memory": cpu.state.memory.read_block(0x1000, 512),
        "dispatch_counts": dict(dispatch.trace.counters.dispatch),
        "hw_tlb": (dispatch.hardware_tlb.lookups, dispatch.hardware_tlb.hits),
        "sw_tlb": (dispatch.software_tlb.lookups, dispatch.software_tlb.hits),
    }


def run_tiers(source: str, budgets, **kwargs) -> None:
    """Run identical bursts on every tier and demand identical results."""
    results = {}
    for tier in EXEC_TIERS:
        cpu = make_cpu(source, tier, **kwargs)
        log = burst_log(cpu, budgets)
        results[tier] = (log, tier_state(cpu))
    reference = results["step"]
    for tier in COMPILED_TIERS:
        assert results[tier][0] == reference[0], tier
        assert results[tier][1] == reference[1], tier
    return results


FIBONACCI = """
.data
out: .space 64
.text
main:
    MOV r0, #0
    MOV r1, #1
    MOV r2, #out
    MOV r3, #12
loop:
    STR r0, [r2], #4
    ADD r4, r0, r1
    MOV r0, r1
    MOV r1, r4
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""

MIXED = """
.data
buf: .word 5, -3, 100, 0x7FFF
.text
main:
    MOV r4, #buf
    LDR r0, [r4], #4
    LDR r1, [r4], #4
    ADD r2, r0, r1
    MUL r3, r2, r0
    LSR r5, r3, #1
    ASR r6, r1, #2
    ROR r7, r3, #5
    CMP r0, r1
    BGT big
    MOV r8, #0
    B done
big:
    MOV r8, #1
done:
    TST r8, #1
    CMN r0, r1
    STRB r8, [r4]
    LDRB r9, [r4]
    MOV r0, #0
    HALT
"""

CDP_LOOP = """
main:
    MOV r0, #1000
    MOV r1, #2345
    MCR f0, r0
    MCR f1, r1
    MOV r3, #8
loop:
    CDP #1, f2, f0, f1
    MRC r2, f2
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""


# ---------------------------------------------------------------------------
# partitioning


def instr(op, rd=0, rn=0, rm=0, imm=0, uses_imm=True):
    return Instruction(op=op, rd=rd, rn=rn, rm=rm, imm=imm, uses_imm=uses_imm)


class TestPartitioning:
    def test_leaders_and_runs_for_fibonacci(self):
        program = assemble(FIBONACCI).instructions
        # Leaders: entry, the loop head (branch target of BNE), and the
        # instruction after the conditional branch.
        assert block_leaders(program) == {0, 4, 11}
        # Runs: the 4-MOV prologue and the 6-instruction loop body (the
        # BNE terminator at index 10 is excluded); the epilogue is a
        # lone MOV before HALT — too short to fuse.
        assert fusible_runs(program) == [(0, 4), (4, 10)]

    def test_terminators_split_runs(self):
        program = assemble(CDP_LOOP).instructions
        runs = fusible_runs(program)
        for start, end in runs:
            for index in range(start, end):
                assert program[index].op not in (
                    Op.CDP, Op.B, Op.BL, Op.BX, Op.SWI, Op.HALT,
                    Op.MCR, Op.MRC,
                )

    def test_pc_writes_are_never_fused(self):
        program = [
            instr(Op.MOV, rd=0, imm=1),
            instr(Op.MOV, rd=1, imm=2),
            instr(Op.MOV, rd=15, imm=0),  # translate-time raiser
            instr(Op.MOV, rd=2, imm=3),
            instr(Op.MOV, rd=3, imm=4),
            instr(Op.HALT),
        ]
        assert fusible_runs(program) == [(0, 2), (3, 5)]

    def test_short_runs_stay_unfused(self):
        program = [
            instr(Op.MOV, rd=0, imm=1),
            instr(Op.SWI, imm=0),
            instr(Op.MOV, rd=1, imm=2),
            instr(Op.HALT),
        ]
        assert fusible_runs(program) == []


# ---------------------------------------------------------------------------
# three-way equivalence


class TestTierEquivalence:
    @pytest.mark.parametrize("source", [FIBONACCI, MIXED], ids=["fib", "mixed"])
    def test_single_burst(self, source):
        run_tiers(source, [1 << 20])

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 13, 29])
    def test_tiny_bursts_hit_budget_guard(self, budget):
        """Bursts smaller than a block's total fall back to stepping."""
        run_tiers(FIBONACCI, [budget] * 300)

    def test_cdp_loop_all_tiers(self):
        for budget in (2, 3, 5, 100, 1 << 20):
            run_tiers(CDP_LOOP, [budget] * 200, with_circuit=True)

    def test_software_dispatch_enters_block_middle(self):
        """A soft routine return (BX lr) lands after the CDP — and the
        CDP's special branch may enter code that sits inside a fused
        region's index range."""
        source = """
        main:
            MOV r0, #5
            MOV r1, #6
            MCR f0, r0
            MCR f1, r1
            CDP #1, f2, f0, f1
            MRC r2, f2
            MOV r0, #0
            HALT
        soft:
            LDO r0, #0
            LDO r1, #1
            MUL r0, r0, r1
            STO r0
            BX lr
        """
        for budget in (3, 7, 1 << 20):
            run_tiers(source, [budget] * 100, software_label="soft")

    def test_memory_fault_mid_block(self):
        """A fault in the middle of a fused run must leave the same pc,
        retired count and register file as the unfused tiers."""
        source = """
        .data
        buf: .space 16
        .text
        main:
            MOV r1, #buf
            MOV r2, #7
            ADD r3, r2, #1
            STR r2, [r1]
            STR r3, [r9]
            MOV r4, #9
            HALT
        """
        states = {}
        for tier in EXEC_TIERS:
            cpu = make_cpu(source, tier)
            with pytest.raises(MemoryFault):
                cpu.run(1 << 20)
            states[tier] = (cpu.state.pc, tier_state(cpu))
        for tier in COMPILED_TIERS:
            assert states[tier] == states["step"], tier
        # The fault left the pc on the faulting STR (index 4).
        assert states["step"][0] == CODE_BASE + 4 * 4
        assert states["step"][1]["retired"] == 4

    def test_post_increment_load_with_same_base_and_dest(self):
        """LDR r4, [r4], #4 — the increment must observe the loaded
        value, exactly as stepping does."""
        source = """
        .data
        buf: .word 0x1010, 2, 3
        .text
        main:
            MOV r4, #buf
            MOV r5, #1
            LDR r4, [r4], #4
            ADD r5, r5, r4
            MOV r0, #0
            HALT
        """
        run_tiers(source, [1 << 20])


ALU_OPS = ["ADD", "SUB", "RSB", "AND", "ORR", "EOR", "BIC"]
SCRATCH = [0, 1, 2, 5, 6, 7, 8, 9]  # r3 = loop counter, r4 = buffer base


@st.composite
def looped_program(draw):
    """A random loop of fusible ops with stores/loads into a buffer."""
    lines = [
        f"MOV r{r}, #{draw(st.integers(-1000, 1000))}" for r in SCRATCH[:4]
    ]
    lines.append("MOV r4, #buf")
    lines.append(f"MOV r3, #{draw(st.integers(2, 5))}")
    lines.append("loop:")
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["alu", "mul", "cmp", "shift", "mem"]))
        rd = draw(st.sampled_from(SCRATCH))
        rn = draw(st.sampled_from(SCRATCH + [3, 4]))
        rm = draw(st.sampled_from(SCRATCH + [3, 4]))
        if kind == "alu":
            op = draw(st.sampled_from(ALU_OPS))
            if draw(st.booleans()):
                lines.append(
                    f"{op} r{rd}, r{rn}, #{draw(st.integers(-100, 100))}"
                )
            else:
                lines.append(f"{op} r{rd}, r{rn}, r{rm}")
        elif kind == "mul":
            lines.append(f"MUL r{rd}, r{rn}, r{rm}")
        elif kind == "cmp":
            op = draw(st.sampled_from(["CMP", "CMN", "TST"]))
            lines.append(f"{op} r{rn}, r{rm}")
        elif kind == "shift":
            op = draw(st.sampled_from(["LSL", "LSR", "ASR", "ROR"]))
            lines.append(f"{op} r{rd}, r{rn}, #{draw(st.integers(0, 40))}")
        else:
            offset = 4 * draw(st.integers(0, 7))
            if draw(st.booleans()):
                lines.append(f"STR r{rd}, [r4, #{offset}]")
            else:
                lines.append(f"LDR r{rd}, [r4, #{offset}]")
    lines.append("SUB r3, r3, #1")
    lines.append("CMP r3, #0")
    lines.append("BNE loop")
    lines.append("MOV r0, #0")
    lines.append("HALT")
    return ".data\nbuf: .space 64\n.text\nmain:\n" + "\n".join(lines)


class TestRandomPrograms:
    @given(source=looped_program(), burst=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_equivalence(self, source, burst):
        run_tiers(source, [burst] * 120)


# ---------------------------------------------------------------------------
# CDP dispatch at a compiled site (the class name predates the site's
# memo, which is gone: every issue probes the TLBs' ``targets``)


class TestDispatchMemoization:
    def test_steady_state_resolves_once(self):
        """Each issue of the site resolves once: one hardware probe and
        one trace-counted resolution per CDP, with no mapping change."""
        cpu = make_cpu(CDP_LOOP, "block", with_circuit=True)
        dispatch = cpu.coprocessor.dispatch
        while not cpu.state.halted:
            cpu.run(1 << 20)
        assert dispatch.trace.counters.dispatch["hit"] == 8
        assert dispatch.hardware_tlb.lookups == 8
        assert dispatch.hardware_tlb.hits == 8
        assert dispatch.software_tlb.lookups == 0

    def test_remap_between_hardware_software_fault(self):
        """The *same* CDP site is re-executed after its CID is remapped
        hardware → software → unmapped mid-run, and each issue sees the
        mapping of its moment: a stale resolution would compute 7 + 5
        where 7 * 5 is expected."""
        source = """
        main:
            MOV r0, #7
            MOV r1, #5
            MCR f0, r0
            MCR f1, r1
            MOV r3, #3
        loop:
            CDP #1, f2, f0, f1
            MRC r2, f2
            SWI #42
            SUB r3, r3, #1
            CMP r3, #0
            BNE loop
            HALT
        soft:
            LDO r0, #0
            LDO r1, #1
            MUL r0, r0, r1
            STO r0
            BX lr
        """
        for tier in COMPILED_TIERS:
            cpu = make_cpu(source, tier, with_circuit=True)
            dispatch = cpu.coprocessor.dispatch
            soft_address = assemble(source).label_address("soft")

            result = cpu.run(1 << 20)  # iteration 1: hardware
            assert type(result.event).__name__ == "SyscallTrap"
            assert cpu.state.regs[2] == 12  # adder circuit: 7 + 5

            dispatch.map_software(IDTuple(1, 1), soft_address)
            result = cpu.run(1 << 20)  # iteration 2: same site, software
            assert type(result.event).__name__ == "SyscallTrap"
            assert cpu.state.regs[2] == 35  # soft routine: 7 * 5

            dispatch.unmap(IDTuple(1, 1))
            result = cpu.run(1 << 20)  # iteration 3: same site, fault
            assert type(result.event).__name__ == "CustomInstructionFault"

            counts = dispatch.trace.counters.dispatch
            assert counts == {"hit": 1, "soft": 1, "fault": 1}, tier
            assert dispatch.hardware_tlb.lookups == 3
            assert dispatch.hardware_tlb.hits == 1
            assert dispatch.software_tlb.lookups == 2
            assert dispatch.software_tlb.hits == 1

    def test_tlb_restore_invalidates_memo(self):
        """An in-place restore rewrites the mapping set wholesale, so it
        bumps the generation that drops jit traces recorded before."""
        cpu = make_cpu(CDP_LOOP, "block", with_circuit=True)
        dispatch = cpu.coprocessor.dispatch
        cpu.run(50)  # resolve at least one CDP
        generation = dispatch.generation
        dispatch.restore(dispatch.snapshot())
        assert dispatch.generation > generation


# ---------------------------------------------------------------------------
# cross-tier snapshots (CPU level)


class TestCrossTierSnapshots:
    @pytest.mark.parametrize("first,second", permutations(EXEC_TIERS, 2))
    def test_snapshot_round_trip_switches_tier(self, first, second):
        reference = make_cpu(FIBONACCI, "step")
        burst_log(reference, [17] * 300)

        cpu_a = make_cpu(FIBONACCI, first)
        partial = burst_log(cpu_a, [17] * 3)
        snap = json.loads(json.dumps(cpu_a.snapshot()))

        cpu_b = make_cpu(FIBONACCI, second)
        cpu_b.restore(snap)
        resumed = burst_log(cpu_b, [17] * 297)

        full = burst_log(make_cpu(FIBONACCI, first), [17] * 300)
        assert partial + resumed == full
        assert tier_state(cpu_b) == tier_state(reference)


# ---------------------------------------------------------------------------
# trace compilation and generation-counter eviction (jit tier)


REMAP_LOOP = """
main:
    MOV r0, #7
    MOV r1, #5
    MCR f0, r0
    MCR f1, r1
    MOV r3, #12
    MOV r5, #0
loop:
    CDP #1, f2, f0, f1
    MRC r2, f2
    ADD r5, r5, r2
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
soft:
    LDO r0, #0
    LDO r1, #1
    MUL r0, r0, r1
    STO r0
    BX lr
"""


class TestTraceCompiler:
    def test_hot_loop_compiles_trace(self):
        """The fibonacci loop crosses HOT_THRESHOLD in one burst, gets a
        compiled trace, and still matches the step reference exactly."""
        reference = make_cpu(FIBONACCI, "step")
        burst_log(reference, [1 << 20])

        cpu = make_cpu(FIBONACCI, "jit")
        burst_log(cpu, [1 << 20])
        manager = cpu._ops.manager
        assert manager.installed >= 1
        assert manager.invalidations == 0
        assert tier_state(cpu) == tier_state(reference)

    def test_cold_code_never_compiles(self):
        """Straight-line code entered fewer than HOT_THRESHOLD times
        stays on the block tier (no trace, no profiling residue)."""
        cpu = make_cpu(MIXED, "jit")
        burst_log(cpu, [1 << 20])
        assert cpu._ops.manager.installed == 0

    def test_remap_evicts_hot_trace(self):
        """A hardware->software remap mid-run bumps the dispatch
        generation; the hot CDP trace's embedded guard must evict the
        stale trace (which memoized the *hardware* resolution) instead
        of replaying 7 + 5 where 7 * 5 is now expected.  All three tiers
        agree on the final state either way."""
        soft_address = assemble(REMAP_LOOP).label_address("soft")
        states = {}
        managers = {}
        for tier in EXEC_TIERS:
            cpu = make_cpu(REMAP_LOOP, tier, with_circuit=True)
            # Phase 1 (hardware adder): enough budget for the loop head
            # to cross HOT_THRESHOLD, not enough to finish the loop.
            cpu.run(100)
            assert not cpu.state.halted
            if tier == "jit":
                managers[tier] = cpu._ops.manager
                assert managers[tier].installed >= 1
                assert managers[tier].invalidations == 0
            cpu.coprocessor.dispatch.map_software(IDTuple(1, 1),
                                                  soft_address)
            while not cpu.state.halted:
                cpu.run(1 << 20)
            states[tier] = tier_state(cpu)
        # The stale trace was evicted, not silently reused ...
        assert managers["jit"].invalidations >= 1
        # ... and every tier saw the same phase split and results.
        for tier in COMPILED_TIERS:
            assert states[tier] == states["step"], tier
        counts = states["step"]["dispatch_counts"]
        hw, soft = counts["hit"], counts["soft"]
        assert hw >= 4 and soft >= 1 and hw + soft == 12
        assert states["step"]["regs"][5] == 12 * hw + 35 * soft


# ---------------------------------------------------------------------------
# the process-wide code cache (jit and block tiers)


def installed_traces(cpu: CPU) -> dict:
    return {
        index: fn for index, fn in enumerate(cpu._ops)
        if fn.__name__.startswith("_trace_")
    }


def retained(manager) -> dict:
    """Sizes of every container a trace manager holds on to."""
    return {
        name: len(value) for name, value in vars(manager).items()
        if isinstance(value, (list, dict, set))
    }


class TestTraceCodeCache:
    def test_circuit_swaps_reuse_compiled_traces(self, monkeypatch):
        """Contended alpha x5 at 1 ms under random replacement swaps
        circuits under hot traces, so CDP traces are invalidated and
        re-installed; the re-installs find their source already
        compiled.  The makespan is the ``step`` tier's."""
        monkeypatch.setattr(blocks, "_CODE_CACHE", {})
        filenames = []

        def counting_compile(source, filename, mode):
            filenames.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(blocks, "compile", counting_compile,
                            raising=False)
        spec = ExperimentSpec(workload="alpha", instances=5,
                              quantum_ms=1.0, policy="random", scale=SCALE)
        monkeypatch.setenv("REPRO_EXEC_TIER", "jit")
        machine = Machine.from_spec(spec)
        machine.spawn_instances()
        machine.run()
        managers = [p.cpu._ops.manager for p in machine.processes.values()]
        installs = sum(manager.installed for manager in managers)
        assert sum(manager.invalidations for manager in managers) >= 1
        trace_compiles = filenames.count("<trace>")
        assert 1 <= trace_compiles < installs
        # The five instances run one program: its blocks compile once.
        assert filenames.count("<blocks>") == 1

        monkeypatch.setenv("REPRO_EXEC_TIER", "step")
        reference = run_experiment(spec)
        assert machine.outcome().makespan == reference.makespan

    def test_instances_share_trace_code(self):
        """Neither the pid nor the dispatch generation is part of a
        trace's source: two instances of a program, under different
        pids and generations, install distinct functions over one
        ``__code__``."""
        cpus = [
            make_cpu(REMAP_LOOP, "jit", with_circuit=True, pid=pid)
            for pid in (1, 2)
        ]
        # Re-mapping bumps the second dispatch unit's generation.
        cpus[1].coprocessor.dispatch.map_hardware(IDTuple(2, 1), 0)
        for cpu in cpus:
            cpu.run(100)
        first, second = (installed_traces(cpu) for cpu in cpus)
        assert first and first.keys() == second.keys()
        for entry, fn in first.items():
            assert fn is not second[entry]
            assert fn.__code__ is second[entry].__code__

    def test_instances_in_different_pfus_share_trace_code(self):
        """The PFU a traced CDP resolved to is bound per install too:
        instances whose circuits sit in different PFUs still share one
        ``__code__``, and each clocks its own PFU."""
        cpus = [
            make_cpu(REMAP_LOOP, "jit", with_circuit=True, pid=pid)
            for pid in (1, 2)
        ]
        coprocessor = cpus[1].coprocessor
        instance, _moved = coprocessor.unload_circuit(0)
        coprocessor.load_circuit(1, instance)
        coprocessor.dispatch.map_hardware(IDTuple(2, 1), 1)
        for cpu in cpus:
            cpu.run(1 << 20)
        first, second = (installed_traces(cpu) for cpu in cpus)
        assert first and first.keys() == second.keys()
        for entry, fn in first.items():
            assert fn.__code__ is second[entry].__code__
        assert cpus[0].state.regs[5] == cpus[1].state.regs[5] == 12 * 12
        assert cpus[0].coprocessor.pfus.pfu(0).total_completions == 12
        assert coprocessor.pfus.pfu(1).total_completions == 12

    def test_invalidations_retain_nothing(self, monkeypatch):
        """Every re-map invalidates the hot CDP trace; neither the
        manager nor the code cache grows with the invalidations, and
        the run still matches the ``step`` tier burst for burst."""
        monkeypatch.setattr(blocks, "_CODE_CACHE", {})
        source = REMAP_LOOP.replace("MOV r3, #12", "MOV r3, #200")
        logs, states, sizes = {}, {}, []
        for tier in ("jit", "step"):
            cpu = make_cpu(source, tier, with_circuit=True)
            log = []
            for burst in range(20):
                log += burst_log(cpu, [300])
                cpu.coprocessor.dispatch.map_hardware(IDTuple(1, 1), 0)
                if tier == "jit" and burst in (2, 19):
                    manager = cpu._ops.manager
                    sizes.append((manager.invalidations,
                                  retained(manager),
                                  len(blocks._CODE_CACHE)))
            logs[tier], states[tier] = log, tier_state(cpu)
        (early, kept_early, code_early), (late, kept_late, code_late) = sizes
        assert late > early >= 1
        assert kept_late == kept_early
        assert code_late == code_early
        assert logs["jit"] == logs["step"]
        assert states["jit"] == states["step"]

    def test_reheat_reuses_recorded_source(self, monkeypatch):
        """Every re-map invalidates the hot CDP trace and the re-heat
        records the same path again; the manager re-installs the source
        it emitted for that recording instead of generating it anew."""
        emitted = []
        emit = TraceManager._source

        def counting_source(self, entry, *recording):
            emitted.append(entry)
            return emit(self, entry, *recording)

        monkeypatch.setattr(TraceManager, "_source", counting_source)
        source = REMAP_LOOP.replace("MOV r3, #12", "MOV r3, #200")
        cpu = make_cpu(source, "jit", with_circuit=True)
        counts = []
        for burst in range(20):
            burst_log(cpu, [300])
            cpu.coprocessor.dispatch.map_hardware(IDTuple(1, 1), 0)
            if burst in (2, 19):
                manager = cpu._ops.manager
                counts.append((manager.invalidations, manager.installed,
                               len(emitted)))
        (early, installed_early, emitted_early), late_counts = counts
        late, installed_late, emitted_late = late_counts
        assert late > early >= 1
        assert installed_late > installed_early
        assert emitted_late == emitted_early

    def test_long_program_compiles_in_bounded_sources(self, monkeypatch):
        """A program whose generated source exceeds ``SOURCE_CHUNK``
        compiles in several sources, none longer than that (``compile``
        holds a whole source's syntax tree at once), and runs exactly as
        stepping does, entered mid-run too."""
        monkeypatch.setattr(blocks, "_CODE_CACHE", {})
        sources = []

        def recording_compile(source, filename, mode):
            if filename == "<blocks>":
                sources.append(source)
            return compile(source, filename, mode)

        monkeypatch.setattr(blocks, "compile", recording_compile,
                            raising=False)
        body = "\n".join(
            f"    ADD r{1 + i % 4}, r{1 + i % 4}, #{i}" for i in range(300)
        )
        run_tiers(f"main:\n{body}\n    HALT", [7, 30, 3, 500, 1000])
        assert len(sources) > 1
        assert all(len(source) <= blocks.SOURCE_CHUNK for source in sources)


# ---------------------------------------------------------------------------
# machine-level equivalence and cross-tier checkpoints


def tier_spec(workload: str, **kwargs) -> ExperimentSpec:
    defaults = dict(instances=2, quantum_ms=5.0, scale=SCALE)
    defaults.update(kwargs)
    return ExperimentSpec(workload=workload, **defaults)


def mid_run_checkpoint(spec: ExperimentSpec, quanta: int) -> dict:
    """A JSON round-tripped checkpoint taken ``quanta`` into ``spec``."""
    machine = Machine.from_spec(spec)
    machine.spawn_instances()
    assert machine.run_quanta(quanta) == quanta and not machine.finished
    return json.loads(json.dumps(machine.checkpoint()))


def outcome_fields(outcome) -> tuple:
    return (
        outcome.makespan,
        outcome.completions,
        outcome.kernel_stats,
        outcome.cis,
        outcome.process_cycles,
        outcome.verified,
    )


class TestMachineTierEquivalence:
    @pytest.mark.parametrize("workload", ["echo", "alpha", "twofish"])
    def test_workloads_identical_across_tiers(self, workload, monkeypatch):
        spec = tier_spec(workload)
        same_on_every_tier(monkeypatch, lambda: outcome_fields(
            run_experiment(spec, verify=True)
        ))

    @pytest.mark.parametrize("architecture", ["proteus", "prisc", "memmap"])
    def test_architectures_identical_across_tiers(self, architecture,
                                                  monkeypatch):
        """The tier guarantee holds for the baselines too: the PRISC
        kernel's exception-based dispatch and the memory-mapped
        baseline's slow config port run through the same CPU."""
        spec = tier_spec("alpha", architecture=architecture)
        same_on_every_tier(monkeypatch, lambda: outcome_fields(
            run_experiment(spec, verify=True)
        ))

    def test_fault_campaign_identical_across_tiers(self, monkeypatch):
        """The bit-identical contract holds under an active fault plan:
        injection draws, detections, recoveries and kill decisions land
        on the same quanta in every tier.  (Under a plan the jit refuses
        to trace CDP sites — a FabricFault mid-trace would discard
        committed cycles — but ALU loops still compile.)"""
        plan = FaultPlan(
            seed=9,
            config_upset_rate=0.05,
            datapath_error_rate=0.05,
            transfer_error_rate=0.1,
            state_upset_rate=0.1,
            scrub_interval_quanta=8,
        )
        spec = tier_spec("alpha", instances=3, quantum_ms=1.0, seed=2,
                         fault_plan=plan)

        def campaign():
            outcome = run_experiment(spec)
            return outcome_fields(outcome), outcome.faults

        # Every tier reproduced the campaign event-for-event, and it
        # actually exercised the injector.
        _fields, faults = same_on_every_tier(monkeypatch, campaign)
        assert sum(faults["injected"].values()) > 0

    def test_spec_key_ignores_exec_tier(self, monkeypatch):
        keys = set()
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            keys.add(tier_spec("alpha").spec_key())
        assert len(keys) == 1

    @pytest.mark.parametrize("first,second", permutations(EXEC_TIERS, 2))
    def test_mid_run_checkpoint_crosses_tiers(self, first, second,
                                              monkeypatch):
        """A checkpoint taken mid-run under one tier resumes under the
        other and finishes bit-identically."""
        spec = tier_spec("alpha")
        monkeypatch.setenv("REPRO_EXEC_TIER", first)
        reference = run_experiment(spec)
        checkpoint = mid_run_checkpoint(spec, 7)

        monkeypatch.setenv("REPRO_EXEC_TIER", second)
        resumed = Machine.resume(checkpoint)
        assert resumed.exec_tier == second
        resumed.run()
        assert outcome_fields(resumed.outcome()) == outcome_fields(reference)

    def test_checkpoint_document_is_tier_independent(self, monkeypatch):
        """Mid-run, every tier writes the same checkpoint bytes: the
        compiled tiers' run cursor is not part of the document."""
        spec = tier_spec("alpha", instances=3, quantum_ms=1.0)
        documents = set()
        for tier in EXEC_TIERS:
            monkeypatch.setenv("REPRO_EXEC_TIER", tier)
            checkpoint = mid_run_checkpoint(spec, 40)
            documents.add(json.dumps(checkpoint, sort_keys=True))
        assert len(documents) == 1

    @pytest.mark.parametrize("tier", ["block", "jit"])
    def test_checkpoint_with_saved_cursor_resumes(self, tier, monkeypatch):
        """Older checkpoints carry a ``cpu.ctx`` run cursor per process.
        Resume ignores it, even one that disagrees with the PC."""
        monkeypatch.setenv("REPRO_EXEC_TIER", tier)
        spec = tier_spec("alpha", instances=3, quantum_ms=1.0)
        checkpoint = mid_run_checkpoint(spec, 40)
        for process in checkpoint["kernel"]["processes"].values():
            assert "ctx" not in process["cpu"]
            process["cpu"]["ctx"] = {
                "idx": 0, "interrupted": True, "retired": 1 << 20,
            }
        resumed = Machine.resume(checkpoint)
        resumed.run()
        assert outcome_fields(resumed.outcome()) == outcome_fields(
            run_experiment(spec)
        )
