"""Failure injection: hostile programs, corrupted images, runaways.

The OS-facing promises of §2 (security, timely progress, fair sharing)
are only as good as the failure handling; these tests drive the kernel
with misbehaving inputs and check it degrades by killing the offender,
never by corrupting neighbours or wedging.
"""

import pytest

from conftest import adder_spec
from repro.apps.registry import get_workload
from repro.core.circuit import CircuitSpec, FunctionBehaviour
from repro.cpu.program import Program
from repro.errors import BitstreamError
from repro.fabric.bitstream import parse_bitstream
from repro.kernel.porsche import Porsche
from repro.kernel.process import ProcessState


def spawn(kernel, source, circuits=()):
    return kernel.spawn(
        Program.from_source("hostile", source, circuit_table=list(circuits))
    )


class TestHostilePrograms:
    def test_wild_pointer_store(self, kernel):
        victim = spawn(kernel, "MOV r0, #0x4000000\nSTR r1, [r0]\nHALT")
        bystander = spawn(kernel, "MOV r0, #3\nSWI #0")
        kernel.run()
        assert victim.state is ProcessState.KILLED
        assert bystander.state is ProcessState.EXITED
        assert bystander.exit_status == 3

    def test_null_pointer_read(self, kernel):
        process = spawn(kernel, "MOV r0, #0\nLDRB r1, [r0]\nHALT")
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "guard" in process.kill_reason

    def test_unaligned_word_access(self, kernel):
        process = spawn(kernel, "MOV r0, #0x1001\nLDR r1, [r0]\nHALT")
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "unaligned" in process.kill_reason

    def test_runaway_loop_is_preempted_not_wedged(self, kernel):
        runaway = spawn(kernel, "spin: B spin")
        worker = spawn(kernel, "MOV r0, #1\nSWI #0")
        kernel.run(max_cycles=50_000)
        assert worker.state is ProcessState.EXITED
        assert runaway.alive  # still spinning, still schedulable

    def test_falling_off_the_end(self, kernel):
        process = spawn(kernel, "NOP\nNOP")
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "outside program" in process.kill_reason

    def test_bx_garbage(self, kernel):
        process = spawn(kernel, "MOV r0, #12\nBX r0\nHALT")
        kernel.run()
        assert process.state is ProcessState.KILLED

    def test_sto_without_dispatch(self, kernel):
        """Driving the operand registers outside a software dispatch is
        an illegal use of the hardware: fatal to the process."""
        process = spawn(kernel, "MOV r0, #1\nSTO r0\nHALT")
        kernel.run()
        assert process.state is ProcessState.KILLED

    def test_ldo_without_dispatch(self, kernel):
        process = spawn(kernel, "LDO r0, #0\nHALT")
        kernel.run()
        assert process.state is ProcessState.KILLED


class TestHostileCircuits:
    def test_iob_bitstream_rejected_at_registration(self, kernel):
        """The §2/§4.1 security check: a bitstream claiming IOB access
        (the FPGA-virus vector) never reaches the fabric."""
        spec = adder_spec("virus")
        process = spawn(
            kernel,
            "main:\n  MOV r0, #1\n  MOV r1, #0\n  MOV r2, #0\n  SWI #1\n  HALT",
            circuits=[spec],
        )
        # Corrupt the generated image to claim IOB usage by monkeypatching
        # the spec's builder.
        original = CircuitSpec.build_bitstream

        def hostile(self, config, seed=0):
            bitstream = original(self, config, seed)
            object.__setattr__(bitstream, "uses_iobs", True)
            return bitstream

        CircuitSpec.build_bitstream = hostile
        try:
            kernel.run()
        finally:
            CircuitSpec.build_bitstream = original
        assert process.state is ProcessState.KILLED
        assert "IOB" in process.kill_reason
        # Nothing was loaded.
        assert kernel.cis.stats.loads == 0

    def test_oversized_state_rejected(self, kernel):
        greedy = CircuitSpec(
            name="greedy",
            behaviour=FunctionBehaviour(fn=lambda a, b, s: 0),
            clb_count=10,
            app_state_words=100,  # beyond the CIS security policy
            initial_state=(0,) * 100,
        )
        process = spawn(
            kernel,
            "main:\n  MOV r0, #1\n  MOV r1, #0\n  MOV r2, #0\n  SWI #1\n  HALT",
            circuits=[greedy],
        )
        kernel.run()
        assert process.state is ProcessState.KILLED
        assert "state words" in process.kill_reason


class TestCorruptedBitstreams:
    def test_every_corrupted_byte_is_detected(self):
        """Flipping any single byte of a serialised bitstream must fail
        parsing (header validation or section checksum)."""
        from repro.config import MachineConfig

        blob = bytearray(
            adder_spec().build_bitstream(MachineConfig()).serialise()
        )
        # Sample positions across header, name, checksums and payloads.
        for position in [0, 5, 10, 20, 25, 40, len(blob) // 2, len(blob) - 1]:
            corrupted = bytearray(blob)
            corrupted[position] ^= 0xA5
            with pytest.raises(BitstreamError):
                parse_bitstream(bytes(corrupted))


class TestIsolationUnderFailure:
    def test_killed_process_frees_its_pfus(self, kernel):
        workload = get_workload("alpha")
        doomed = spawn(
            kernel,
            """
            main:
                MOV r0, #1
                MOV r1, #0
                MOV r2, #0
                SWI #1
                MOV r0, #5
                MOV r1, #6
                MCR f0, r0
                MCR f1, r1
                CDP #1, f2, f0, f1     ; loads the circuit
                MOV r0, #0
                LDR r1, [r0]           ; then segfaults
                HALT
            """,
            circuits=[adder_spec()],
        )
        kernel.run()
        assert doomed.state is ProcessState.KILLED
        assert not any(pfu.configured for pfu in kernel.coprocessor.pfus)
        # A new process can use the full array.
        survivor = kernel.spawn(workload.build(items=8, seed=0))
        kernel.run()
        assert survivor.state is ProcessState.EXITED

    def test_mixed_good_and_bad_processes(self, kernel):
        workload = get_workload("alpha")
        bad = [
            spawn(kernel, "CDP #5, f0, f0, f0\nHALT"),
            spawn(kernel, "MOV r0, #0\nLDR r1, [r0]\nHALT"),
            spawn(kernel, "SWI #77\nHALT"),
        ]
        good = [kernel.spawn(workload.build(items=16, seed=1)) for __ in range(2)]
        kernel.run()
        assert all(p.state is ProcessState.KILLED for p in bad)
        expected = workload.expected(16, seed=1)
        for process in good:
            assert process.state is ProcessState.EXITED
            assert process.read_result("dst") == expected
