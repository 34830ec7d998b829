"""Run-time pieces the compiled tiers share.

:meth:`repro.cpu.core.CPU.step` is the readable reference semantics.
The ``block`` and ``jit`` tiers (:mod:`repro.cpu.blocks`,
:mod:`repro.cpu.traces`) generate Python source for every instruction
but one from :func:`repro.cpu.blocks._emit_instruction`; this module
holds what that source runs against:

* :class:`RunContext`, the cursor every compiled instruction updates;
* :func:`cdp_closure`, the one instruction kept as a hand-written
  closure.  A custom instruction's site memoizes its last dispatch
  resolution, which is mutable per-site state, and it ends the burst
  through ``RunContext.interrupted`` rather than an exception when it is
  interrupted or its dispatch faults — a fault on a short quantum is the
  common case, so each site builds its
  :class:`~repro.cpu.exceptions.CustomInstructionFault` once;
* the shift helpers register-amount shifts call.

``tests/test_translate.py`` checks the compiled tiers against the
reference interpreter on both hand-written and generated programs.
"""

from __future__ import annotations

from typing import Callable

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.dispatch import DispatchKind
from .exceptions import CustomInstructionFault
from .isa import CODE_BASE, Instruction, MASK32, Op, to_signed

OpClosure = Callable[[int], int]


class RunContext:
    """Mutable per-CPU execution cursor shared by all compiled code.

    ``interrupted`` asks :meth:`~repro.cpu.core.CPU.run` to end the burst
    after the current instruction returns: a CDP stopped at the budget
    boundary sets it alone, and a CDP whose dispatch faulted also parks
    its :class:`~repro.cpu.exceptions.CustomInstructionFault` in
    ``event``.  ``run`` clears both before it returns, so neither
    outlives the burst that set it.
    """

    __slots__ = ("idx", "interrupted", "retired", "event")

    def __init__(self) -> None:
        self.idx = 0
        self.interrupted = False
        self.retired = 0
        self.event = None


def cdp_closure(
    instruction: Instruction,
    index: int,
    ctx: RunContext,
    regs: list[int],
    coprocessor: ProteusCoprocessor,
    config: MachineConfig,
    pid: int,
) -> OpClosure:
    """The per-instruction entry of the CDP at ``index``.

    It returns the cycles consumed; the PFU receives the remaining
    budget so it can stop clocking at the quantum boundary (§4.4).
    """
    rd, rn, rm, imm = (
        instruction.rd, instruction.rn, instruction.rm, instruction.imm,
    )
    # Bind the dispatch unit directly: the coprocessor's ``resolve``
    # is a pure delegation hop, and CDP decode is the hottest call
    # site in a burst.  Each site memoizes its last resolution
    # against the unit's generation counter: equal generation means
    # no mapping anywhere changed since, so the cached result still
    # holds and the two TLB probes can be replayed arithmetically.
    dispatch = coprocessor.dispatch
    resolve = dispatch.resolve
    hw_tlb = dispatch.hardware_tlb
    sw_tlb = dispatch.software_tlb
    execute = coprocessor.execute
    capture = coprocessor.capture_operands
    issue = config.cdp_issue_cycles
    soft_cost = config.soft_dispatch_branch_cycles
    # The site's fault is the same every time: build it once.
    fault = CustomInstructionFault(cid=imm, fault_pc=CODE_BASE + 4 * index)
    return_address = CODE_BASE + 4 * (index + 1)
    HARDWARE = DispatchKind.HARDWARE
    SOFTWARE = DispatchKind.SOFTWARE
    cached_gen = -1  # DispatchUnit generations start at 0
    cached_resolution = None
    cached_outcome = ""

    def handler(budget: int) -> int:
        nonlocal cached_gen, cached_resolution, cached_outcome
        if dispatch.generation == cached_gen:
            resolution = cached_resolution
            kind = resolution.kind
            # Keep the TLB statistics and the dispatch counters
            # bit-identical with an unmemoized resolution: hardware
            # probes first, software only probes on a hardware miss.
            hw_tlb.lookups += 1
            if kind is HARDWARE:
                hw_tlb.hits += 1
            else:
                sw_tlb.lookups += 1
                if kind is SOFTWARE:
                    sw_tlb.hits += 1
            # Emitter looked up at call time: the bus rebinds it when
            # event sinks attach or detach.
            dispatch.trace.dispatch(pid, imm, cached_outcome)
        else:
            resolution = resolve(pid, imm)
            kind = resolution.kind
            # Read the generation *after* resolving so a concurrent
            # management call can only force one extra re-resolve.
            cached_gen = dispatch.generation
            cached_resolution = resolution
            if kind is HARDWARE:
                cached_outcome = "hit"
            elif kind is SOFTWARE:
                cached_outcome = "soft"
            else:
                cached_outcome = "fault"
        if kind is HARDWARE:
            cycles, result = execute(
                resolution.pfu_index, rd, rn, rm, max(1, budget - issue)
            )
            if result is not None:
                ctx.idx += 1
                ctx.retired += 1
            else:
                ctx.interrupted = True
            return issue + cycles
        if kind is SOFTWARE:
            capture(rd, rn, rm)
            regs[14] = return_address
            ctx.idx = (resolution.address - CODE_BASE) >> 2
            ctx.retired += 1
            return soft_cost
        # Signalled, not raised: ``run`` charges the issue cost and
        # ends the burst with the PC still on this CDP.
        ctx.event = fault
        ctx.interrupted = True
        return 0

    return handler


# ---------------------------------------------------------------------------
# shift helpers


def _asr(value: int, amount: int) -> int:
    if amount == 0:
        return value & MASK32
    return (to_signed(value) >> min(amount, 31)) & MASK32


def _ror(value: int, amount: int) -> int:
    if amount == 0:
        return value & MASK32
    amount %= 32
    if amount == 0:
        return value & MASK32
    value &= MASK32
    return ((value >> amount) | (value << (32 - amount))) & MASK32


_SHIFTERS = {
    Op.LSL: lambda v, a: ((v << a) & MASK32) if a < 32 else (0 if a else v & MASK32),
    Op.LSR: lambda v, a: ((v & MASK32) >> a) if a < 32 else (0 if a else v & MASK32),
    Op.ASR: _asr,
    Op.ROR: _ror,
}
