"""Interpreter-tier microbenchmark: instructions per second per tier.

The tiered interpreter (``MachineConfig.exec_tier``) trades compile
effort for simulation throughput: ``step`` re-decodes every instruction,
``block`` pre-compiles one closure per instruction, fuses straight-line
runs into superinstructions and memoizes CDP dispatch, and ``jit``
trace-compiles hot loops into generated straight-line Python with
registers as locals.  All three are bit-identical (asserted in
tests/test_blocks.py); this bench records how much wall-clock each tier
buys on three kernels:

* ``alu_hot``    — long unrolled straight-line runs (the compiled
  tiers' best case: the jit executes the whole loop body as one
  generated function, iterating in-place until the burst budget runs
  out);
* ``branch_hot`` — a tight 7-instruction loop (short runs; the block
  tier still pays two dispatches per iteration, the jit pays none);
* ``cdp_hot``    — custom-instruction dispatch in steady state (fusion
  never applies across CDP; the win comes from memoized dispatch,
  which the jit replays inline behind a generation guard).

Record the trajectory with::

    pytest benchmarks/bench_interpreter.py --benchmark-only \
        --benchmark-json BENCH_interpreter.json
"""

import time

from conftest import emit

# The tier compilers are imported lazily by CPU._compile; import them up
# front so the first measured run does not pay module-import cost.
import repro.cpu.blocks    # noqa: F401
import repro.cpu.traces    # noqa: F401
import repro.cpu.translate  # noqa: F401
from repro.config import EXEC_TIERS, MachineConfig
from repro.core.circuit import CircuitSpec, FunctionBehaviour
from repro.core.coprocessor import ProteusCoprocessor
from repro.core.tlb import IDTuple
from repro.cpu.assembler import assemble
from repro.cpu.core import CPU, CPUState
from repro.cpu.isa import code_address
from repro.cpu.memory import Memory

#: Cycles per run() burst — long enough that per-burst overhead is noise.
BURST = 1 << 16

_ALU_OPS = ("ADD", "SUB", "EOR", "ORR", "AND")


def _alu_hot(unroll: int = 64, iterations: int = 1500) -> str:
    """``unroll`` straight-line ALU ops per loop iteration."""
    body = [
        f"    {_ALU_OPS[i % len(_ALU_OPS)]} r{i % 4}, r{(i + 1) % 4}, r{4 + i % 3}"
        for i in range(unroll)
    ]
    return "\n".join(
        [
            "main:",
            "    MOV r4, #3",
            "    MOV r5, #5",
            "    MOV r6, #7",
            f"    MOV r7, #{iterations}",
            "loop:",
            *body,
            "    SUB r7, r7, #1",
            "    CMP r7, #0",
            "    BNE loop",
            "    MOV r0, #0",
            "    HALT",
        ]
    )


BRANCH_HOT = """
.data
out: .space 64
.text
main:
    MOV r0, #0
    MOV r1, #1
    MOV r2, #out
    MOV r3, #15000
loop:
    AND r4, r3, #15
    ADD r5, r4, r4
    STR r0, [r2, #0]
    ADD r4, r0, r1
    MOV r0, r1
    MOV r1, r4
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""

CDP_HOT = """
main:
    MOV r0, #123
    MOV r1, #456
    MOV r3, #8000
loop:
    MCR f0, r0
    MCR f1, r1
    CDP #1, f2, f0, f1
    MRC r2, f2
    SUB r3, r3, #1
    CMP r3, #0
    BNE loop
    MOV r0, #0
    HALT
"""

KERNELS = {
    # ~670k retired instructions: long enough that the compiled tiers'
    # one-time translate/trace-compile cost (a few ms, paid inside the
    # timed region) is amortised into the sustained rate.
    "alu_hot": (_alu_hot(iterations=10000), False),
    "branch_hot": (BRANCH_HOT, False),
    "cdp_hot": (CDP_HOT, True),
}


def _adder_spec() -> CircuitSpec:
    return CircuitSpec(
        name="adder",
        behaviour=FunctionBehaviour(
            fn=lambda a, b, state: (a + b) & 0xFFFFFFFF, fixed_latency=3
        ),
        clb_count=100,
    )


def _make_cpu(source: str, tier: str, with_circuit: bool) -> CPU:
    program = assemble(source)
    memory = Memory(size=64 * 1024)
    memory.write_block(program.data_base, program.data)
    state = CPUState(memory=memory)
    state.pc = code_address(program.entry_index)
    config = MachineConfig(cycles_per_ms=1000, exec_tier=tier)
    coprocessor = ProteusCoprocessor(config=config)
    if with_circuit:
        coprocessor.load_circuit(0, _adder_spec().instantiate(1, config))
        coprocessor.dispatch.map_hardware(IDTuple(1, 1), 0)
    return CPU(
        config=config,
        program=program.instructions,
        state=state,
        coprocessor=coprocessor,
        pid=1,
    )


def _measure(source: str, tier: str, with_circuit: bool, repeats: int = 3):
    """Best-of-``repeats`` instructions/second running the kernel to HALT.

    Compilation happens inside the timed region on the first burst —
    that is where it happens in a real run too — but it is a one-time
    cost amortised over ~100k retired instructions per kernel.
    """
    best = None
    retired = 0
    for _ in range(repeats):
        cpu = _make_cpu(source, tier, with_circuit)
        started = time.perf_counter()
        while not cpu.state.halted:
            cpu.run(BURST)
        elapsed = time.perf_counter() - started
        retired = cpu.state.instructions_retired
        best = elapsed if best is None else min(best, elapsed)
    return retired / best, retired


def _regenerate() -> dict[str, dict[str, float]]:
    """{kernel: {tier: instructions/sec}} over all kernels and tiers."""
    results: dict[str, dict[str, float]] = {}
    for kernel, (source, with_circuit) in KERNELS.items():
        results[kernel] = {}
        for tier in EXEC_TIERS:
            ips, _ = _measure(source, tier, with_circuit)
            results[kernel][tier] = ips
    return results


def _render(results: dict[str, dict[str, float]]) -> str:
    lines = [
        "interpreter tiers: instructions per second (higher is better)",
        "",
        f"{'kernel':<12} " + " ".join(f"{t:>12}" for t in EXEC_TIERS)
        + f" {'blk/step':>8} {'jit/step':>8} {'jit/blk':>8}",
    ]
    for kernel, by_tier in results.items():
        row = f"{kernel:<12} " + " ".join(
            f"{by_tier[t]:>12,.0f}" for t in EXEC_TIERS
        )
        row += f" {by_tier['block'] / by_tier['step']:>8.2f}"
        row += f" {by_tier['jit'] / by_tier['step']:>8.2f}"
        row += f" {by_tier['jit'] / by_tier['block']:>8.2f}"
        lines.append(row)
    return "\n".join(lines)


def test_interpreter_tiers(once):
    results = once(_regenerate)

    def ratios(upper: str, lower: str) -> dict[str, float]:
        return {
            kernel: round(by_tier[upper] / by_tier[lower], 2)
            for kernel, by_tier in results.items()
        }

    block_speedups = ratios("block", "step")
    jit_speedups = ratios("jit", "block")
    alu = results["alu_hot"]
    # The block-tier claim: compiled, fused code is >= 2x the reference
    # interpreter on straight-line-heavy code ...
    assert block_speedups["alu_hot"] >= 2.0, block_speedups
    # ... and the jit-tier claim: trace compilation is >= 8x it on hot
    # straight-line loops, and never a regression on the block tier
    # where it cannot fuse (CDP-bound code).
    assert alu["jit"] / alu["step"] >= 8.0, alu
    assert jit_speedups["cdp_hot"] >= 0.9, jit_speedups
    # Every tier upgrade helps: step <= block <= jit on ALU.
    assert alu["step"] <= alu["block"] <= alu["jit"], alu

    emit("interpreter", _render(results))
    once.benchmark.extra_info["instructions_per_second"] = {
        kernel: {tier: round(ips) for tier, ips in by_tier.items()}
        for kernel, by_tier in results.items()
    }
    once.benchmark.extra_info["block_vs_step_speedup"] = block_speedups
    once.benchmark.extra_info["jit_vs_block_speedup"] = jit_speedups
