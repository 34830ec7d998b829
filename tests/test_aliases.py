"""Multiple ID tuples per custom instruction (paper §4.2).

"An important distinction to note is that an ID tuple is not the
absolute name of a custom instruction, but rather a custom instruction
can have many ID tuples associated with it to facilitate sharing custom
instructions."  PRISC cannot express this; Proteus can — these tests
exercise the CIS alias path and the syscall that drives it.
"""

import pytest

from conftest import adder_spec
from repro.core.dispatch import DispatchKind
from repro.cpu.program import Program
from repro.errors import ProcessKilled
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState


def spawn(kernel, source="main: NOP\nHALT", circuits=()):
    return kernel.spawn(
        Program.from_source("alias-test", source, circuit_table=list(circuits))
    )


class TestCISAliases:
    def test_alias_resolves_to_same_pfu(self, kernel):
        process = spawn(kernel, circuits=[adder_spec()])
        kernel.cis.register(process, cid=1, table_index=0, soft_address=None)
        kernel.cis.register_alias(process, cid=7, target_cid=1)
        kernel.cis.handle_fault(process, cid=1)  # loads
        __, action = kernel.cis.handle_fault(process, cid=7)
        assert action == "mapping"  # already loaded: just a second tuple
        first = kernel.coprocessor.resolve(process.pid, 1)
        second = kernel.coprocessor.resolve(process.pid, 7)
        assert first.kind is second.kind is DispatchKind.HARDWARE
        assert first.pfu_index == second.pfu_index
        assert kernel.cis.stats.loads == 1  # one circuit, two opcodes

    def test_alias_faulting_first_loads_once(self, kernel):
        process = spawn(kernel, circuits=[adder_spec()])
        kernel.cis.register(process, cid=1, table_index=0, soft_address=None)
        kernel.cis.register_alias(process, cid=2, target_cid=1)
        kernel.cis.handle_fault(process, cid=2)  # alias faults first
        assert kernel.cis.stats.loads == 1
        assert kernel.coprocessor.resolve(process.pid, 2).kind is (
            DispatchKind.HARDWARE
        )

    def test_eviction_drops_both_tuples(self, kernel):
        process = spawn(kernel, circuits=[adder_spec()])
        kernel.cis.register(process, cid=1, table_index=0, soft_address=None)
        kernel.cis.register_alias(process, cid=2, target_cid=1)
        kernel.cis.handle_fault(process, cid=1)
        kernel.cis.handle_fault(process, cid=2)
        pfu_index = process.registration(1).pfu_index
        kernel.coprocessor.unload_circuit(pfu_index)
        assert kernel.coprocessor.resolve(process.pid, 1).kind is (
            DispatchKind.FAULT
        )
        assert kernel.coprocessor.resolve(process.pid, 2).kind is (
            DispatchKind.FAULT
        )

    def test_swapped_out_alias_counts_one_eviction(self, config):
        """An alias shares its target's Registration, so evicting the
        circuit is one eviction however many CIDs name it."""
        kernel = Porsche(config.derive(pfu_count=1))
        owner = spawn(kernel, circuits=[adder_spec()])
        kernel.cis.register(owner, cid=1, table_index=0, soft_address=None)
        kernel.cis.register_alias(owner, cid=2, target_cid=1)
        kernel.cis.handle_fault(owner, cid=1)
        other = spawn(kernel, circuits=[adder_spec("other")])
        kernel.cis.register(other, cid=1, table_index=0, soft_address=None)
        __, action = kernel.cis.handle_fault(other, cid=1)
        assert action == "swap"
        assert kernel.cis.stats.evictions == 1
        assert owner.registration(1).evictions == 1
        assert owner.registration(2).pfu_index is None

    def test_alias_to_unregistered_cid_kills(self, kernel):
        process = spawn(kernel)
        with pytest.raises(ProcessKilled):
            kernel.cis.register_alias(process, cid=2, target_cid=9)

    def test_duplicate_alias_cid_kills(self, kernel):
        process = spawn(kernel, circuits=[adder_spec()])
        kernel.cis.register(process, cid=1, table_index=0, soft_address=None)
        with pytest.raises(ProcessKilled):
            kernel.cis.register_alias(process, cid=1, target_cid=1)


class TestAliasSyscall:
    SOURCE = """
    main:
        MOV  r0, #1            ; register circuit as CID 1
        MOV  r1, #0
        MOV  r2, #0
        SWI  #1
        MOV  r0, #9            ; alias CID 9 -> CID 1
        MOV  r1, #1
        SWI  #5
        MOV  r0, #20
        MOV  r1, #22
        MCR  f0, r0
        MCR  f1, r1
        CDP  #1, f2, f0, f1    ; use via the original opcode
        MRC  r2, f2
        CDP  #9, f3, f0, f1    ; use via the alias
        MRC  r3, f3
        SUB  r0, r2, r3        ; identical results -> 0
        SWI  #0
    """

    def test_alias_syscall_end_to_end(self, kernel):
        process = spawn(kernel, source=self.SOURCE, circuits=[adder_spec()])
        kernel.run()
        assert process.state is ProcessState.EXITED
        assert process.exit_status == 0  # both opcodes computed 42
        assert kernel.cis.stats.loads == 1

    def test_alias_before_register_kills(self, kernel):
        source = """
        main:
            MOV  r0, #9
            MOV  r1, #1
            SWI  #5
            HALT
        """
        process = spawn(kernel, source=source)
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "unregistered" in process.kill_reason
