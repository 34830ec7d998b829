"""Run-time pieces the compiled tiers share.

:meth:`repro.cpu.core.CPU.step` is the readable reference semantics.
The ``block`` and ``jit`` tiers (:mod:`repro.cpu.blocks`,
:mod:`repro.cpu.traces`) generate Python source for every instruction
but one from :func:`repro.cpu.blocks._emit_instruction`; this module
holds what that source runs against:

* :class:`RunContext`, the cursor every compiled instruction updates;
* :func:`cdp_closure`, the one instruction kept as a hand-written
  closure.  A custom instruction's site resolves its dispatch with two
  dict reads, the ``targets`` of the hardware and then the software
  TLB, and it ends the burst through ``RunContext.interrupted`` rather
  than an exception when it is interrupted or its dispatch faults — a
  fault on a short quantum is the common case, so each site builds its
  :class:`~repro.cpu.exceptions.CustomInstructionFault` once.  A
  hardware resolution is one call into the resolved PFU's
  :meth:`~repro.core.pfu.PFU.step`, with the coprocessor's
  ``completion_hook``; the site reads and writes the FPL words itself,
  its registers having been range-checked at translation;
* the shift helpers register-amount shifts call.

``tests/test_translate.py`` checks the compiled tiers against the
reference interpreter on both hand-written and generated programs.
"""

from __future__ import annotations

from typing import Callable

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
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
    # The decode-stage dispatch of ``DispatchUnit.resolve``, inline: the
    # site probes the two TLBs' ``targets`` dicts itself (hardware
    # first, software only on a hardware miss) and bumps their
    # statistics as ``DispatchTLB.lookup`` would.  The dicts are kept by
    # the TLBs' own mutators and refilled in place on restore, so
    # binding them once is safe.
    dispatch = coprocessor.dispatch
    bus = dispatch.trace
    hw_tlb = dispatch.hardware_tlb
    sw_tlb = dispatch.software_tlb
    hw_targets = hw_tlb.targets
    sw_targets = sw_tlb.targets
    key = (pid, imm)
    # A hardware issue goes straight to the resolved PFU's ``step``.
    # The FPL registers are range-checked here, at translation; a site
    # naming a missing one raises the coprocessor's error when it issues.
    pfus = coprocessor.pfus.pfus
    regfile = coprocessor.regfile
    words = regfile.words
    operands_ok = all(0 <= fpl < regfile.size for fpl in (rd, rn, rm))
    capture = coprocessor.capture_operands
    issue = config.cdp_issue_cycles
    soft_cost = config.soft_dispatch_branch_cycles
    # The site's fault is the same every time: build it once.
    fault = CustomInstructionFault(cid=imm, fault_pc=CODE_BASE + 4 * index)
    return_address = CODE_BASE + 4 * (index + 1)

    def handler(budget: int) -> int:
        # Emitters are looked up on the bus at call time: it rebinds
        # them when event sinks attach or detach.
        hw_tlb.lookups += 1
        pfu_index = hw_targets.get(key)
        if pfu_index is not None:
            hw_tlb.hits += 1
            bus.dispatch(pid, imm, "hit")
            if not operands_ok:
                coprocessor.check_operands(rd, rn, rm)
            cycles, result = pfus[pfu_index].step(
                words[rn], words[rm], max(1, budget - issue),
                coprocessor.completion_hook,
            )
            if result is not None:
                words[rd] = result
                ctx.idx += 1
                ctx.retired += 1
            else:
                ctx.interrupted = True
            return issue + cycles
        sw_tlb.lookups += 1
        address = sw_targets.get(key)
        if address is not None:
            sw_tlb.hits += 1
            bus.dispatch(pid, imm, "soft")
            capture(rd, rn, rm)
            regs[14] = return_address
            ctx.idx = (address - CODE_BASE) >> 2
            ctx.retired += 1
            return soft_cost
        bus.dispatch(pid, imm, "fault")
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
