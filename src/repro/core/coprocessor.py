"""The Proteus coprocessor: register file, PFUs, dispatch, operand regs.

This is the unit the ProteanARM attaches to the ARM7 datapath as an
on-chip coprocessor (paper §5).  The CPU model drives it through a small
interface:

* ``mcr``/``mrc`` move words between core and FPL registers;
* ``resolve`` runs the decode-stage dispatch of Figure 1;
* ``execute`` clocks a PFU for a bounded number of cycles, implementing
  the interruptible long-instruction protocol of §4.4.  It is the step
  tier's entry; the compiled tiers call the resolved
  :meth:`~repro.core.pfu.PFU.step` themselves, with the two pieces of
  ``execute`` they share with it: ``check_operands`` for a missing FPL
  register and ``completion_hook`` for the fault hook;
* ``capture_operands`` latches the special-purpose registers when a
  software alternative is entered (§4.3).

The kernel's Custom Instruction Scheduler manages the same object through
its OS-side surface (loading/unloading circuits, TLB maintenance, usage
counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..config import MachineConfig
from ..errors import PFUError
from ..fabric.array import FPLArray
from ..state import Snapshotable
from ..trace.bus import TraceBus
from .circuit import CircuitInstance
from .dispatch import DispatchResult, DispatchUnit
from .operand_regs import OperandRegisters
from .pfu import PFU, PFUBank, parity32
from .regfile import FPLRegisterFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults import FaultInjector


@dataclass
class ProteusCoprocessor(Snapshotable):
    """The complete FPL function unit.

    Its snapshot holds every structure but the circuit instances, which
    process registrations own; the kernel re-attaches them to their PFU
    slots after a restore, so slots and registrations share one object
    per instance.
    """

    STATE = ("regfile", "operands", "dispatch", "pfus", "array")

    config: MachineConfig
    #: Machine event bus shared with the kernel; a standalone coprocessor
    #: gets a private bus so dispatch counters always have a home.
    trace: TraceBus | None = None
    regfile: FPLRegisterFile = field(init=False)
    pfus: PFUBank = field(init=False)
    dispatch: DispatchUnit = field(init=False)
    operand_regs: OperandRegisters = field(default_factory=OperandRegisters)
    array: FPLArray = field(init=False)
    #: Fault injector, attached by the kernel when a plan is active.
    injector: "FaultInjector | None" = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.trace is None:
            self.trace = TraceBus()
        self.regfile = FPLRegisterFile(size=self.config.fpl_registers)
        self.pfus = PFUBank.build(self.config.pfu_count, self.config.pfu_clbs)
        self.dispatch = DispatchUnit.build(self.config.tlb_entries, self.trace)
        self.array = FPLArray.build(
            self.config.pfu_count, self.config.pfu_clbs, self.config.seed
        )

    # ---- datapath interface ------------------------------------------------
    def mcr(self, index: int, value: int) -> None:
        """Move a word from a core register into FPL register ``index``."""
        self.regfile.write(index, value)

    def mrc(self, index: int) -> int:
        """Move FPL register ``index`` into a core register."""
        return self.regfile.read(index)

    def resolve(self, pid: int, cid: int) -> DispatchResult:
        """Decode-stage resolution of an execute instruction."""
        return self.dispatch.resolve(pid, cid)

    def execute(
        self, pfu_index: int, fd: int, fn: int, fm: int, max_cycles: int
    ) -> tuple[int, int | None]:
        """Issue/continue a custom instruction on a PFU.

        Clocks the PFU for at most ``max_cycles``.  On completion the
        result is written to FPL register ``fd``.  If the budget runs out
        first, the invocation context stays latched in the PFU's circuit
        (status register low) and re-executing the same instruction later
        continues transparently.  Returns ``(cycles, result)``, with
        ``result`` ``None`` when the instruction was interrupted.
        """
        if max_cycles <= 0:
            return 0, None
        pfus = self.pfus.pfus
        regfile = self.regfile
        size = regfile.size
        # One range check for the PFU and all three registers; the slow
        # path names the first bad index.
        if not (0 <= pfu_index < len(pfus) and 0 <= fn < size
                and 0 <= fm < size and 0 <= fd < size):
            self.pfus.pfu(pfu_index)
            self.check_operands(fd, fn, fm)
        words = regfile.words
        outcome = pfus[pfu_index].step(
            words[fn], words[fm], max_cycles, self.completion_hook
        )
        if outcome[1] is not None:
            words[fd] = outcome[1]
        return outcome

    def check_operands(self, fd: int, fn: int, fm: int) -> None:
        """Raise the register file's error for the first of ``fn``,
        ``fm``, ``fd`` it does not have; return if it has all three."""
        for index in (fn, fm, fd):
            self.regfile.check(index)

    @property
    def completion_hook(self) -> Callable[[PFU, int], int] | None:
        """The ``fault`` every issue passes to :meth:`PFU.step`: the
        injector's completion check while one is attached, else
        ``None``."""
        return None if self.injector is None else self._faulted_completion

    def _faulted_completion(self, pfu: PFU, needed: int) -> int:
        """XOR mask a live fault puts on the result completing on ``pfu``.

        The result port's parity tree catches odd-weight corruption at
        the completion cycle: the invocation is left one cycle short of
        completing (so the post-recovery re-issue finishes it without
        re-running the computation) and a :class:`FabricFault` surfaces
        to the kernel with the cycles really consumed.  Even-weight
        corruption — or any corruption with the parity check off —
        escapes into the destination register silently.
        """
        from ..cpu.exceptions import FabricFault  # circular at module level

        injector = self.injector
        effect = injector.completion_effect(pfu.index)
        if effect is None:
            return 0
        kind, mask = effect
        if injector.plan.parity_check and parity32(mask):
            if needed > 1:
                pfu.step(0, 0, needed - 1)
            self.trace.fault_detected(
                pfu.instance.pid, kind, pfu.index, "parity"
            )
            raise FabricFault(
                pfu_index=pfu.index,
                kind=kind,
                charge_cycles=self.config.cdp_issue_cycles + needed,
            )
        injector.silent_corruptions += 1
        return mask

    def capture_operands(self, fd: int, fn: int, fm: int) -> None:
        """Latch the special-purpose registers for software dispatch."""
        self.operand_regs.capture(
            self.regfile.read(fn), self.regfile.read(fm), fd
        )

    def store_soft_result(self, value: int) -> int:
        """``STO``: write a software alternative's result to its dest reg."""
        dest = self.operand_regs.take_result_dest()
        self.regfile.write(dest, value)
        return dest

    # ---- OS-side: circuit load / unload -----------------------------------
    def load_circuit(
        self,
        pfu_index: int,
        instance: CircuitInstance,
        reuse_static: bool | None = None,
    ) -> int:
        """Install a circuit in a PFU; returns configuration bytes moved.

        When static-image reuse applies (``reuse_static`` explicitly, or
        ``MachineConfig.reuse_resident_static`` by default) and the PFU's
        region already holds this circuit's static image, only the state
        section moves — the instance-sharing optimisation the paper's
        experiments disable (§5.1).  The CIS passes ``reuse_static=True``
        on the sharing path, where moving only state is the definition of
        the operation.
        """
        pfus = self.pfus.pfus
        if not 0 <= pfu_index < len(pfus):
            self.pfus.pfu(pfu_index)  # raises the bank's PFUError
        pfu = pfus[pfu_index]
        if pfu.instance is not None:
            raise PFUError(
                f"PFU {pfu_index} still holds "
                f"{pfu.instance.spec.name!r}; unload it first"
            )
        if reuse_static is None:
            reuse_static = self.config.reuse_resident_static
        # The array has one region per PFU.
        region = self.array.regions[pfu_index]
        bitstream = instance.bitstream
        resident = region.resident
        moved = 0
        if not (
            reuse_static
            and resident is not None
            and resident.name == bitstream.name
        ):
            moved = region.load_static(bitstream)
        moved += region.load_state(bitstream)
        pfu.load(instance)
        return moved

    def unload_circuit(self, pfu_index: int, keep_static: bool = True) -> tuple[CircuitInstance, int]:
        """Evict a circuit, saving only its state section (§4.1).

        Returns the instance (with its state already captured inside it)
        and the bytes moved off the array.  The static image may stay
        resident in the region so a later reload of the *same* circuit is
        cheap; loading a different circuit overwrites it.
        """
        pfus = self.pfus.pfus
        if not 0 <= pfu_index < len(pfus):
            self.pfus.pfu(pfu_index)  # raises the bank's PFUError
        instance = pfus[pfu_index].unload()
        if not keep_static:
            self.array.regions[pfu_index].unload()
        self.dispatch.unmap_pfu(pfu_index)
        return instance, instance.bitstream.state_bytes

    # ---- OS-side: context switching ------------------------------------------
    def switch_context(
        self, outgoing: dict | None, incoming: dict | None
    ) -> None:
        """A process switch in one call: save the register file and
        operand registers into the ``outgoing`` context, then install
        the ``incoming`` one; either may be ``None``.

        Only these registers move on a context switch; PFU contents and
        TLB mappings are PID-tagged and stay put — the architectural
        point of the paper.  Contexts are the PCB's, made by
        :meth:`fresh_context`, and are overwritten in place, so a switch
        allocates nothing.
        """
        words = self.regfile.words
        operands = self.operand_regs
        if outgoing is not None:
            outgoing["regfile"][:] = words
            outgoing["operands"][:] = (
                operands.source_a, operands.source_b,
                operands.dest_index, operands.valid,
            )
        if incoming is not None:
            # In place (compiled code holds ``words``), unmeasured: the
            # context's shape was checked when the process resumed.
            words[:] = incoming["regfile"]
            (
                operands.source_a, operands.source_b,
                operands.dest_index, operands.valid,
            ) = incoming["operands"]

    def fresh_context(self) -> dict:
        return {
            "regfile": [0] * self.config.fpl_registers,
            "operands": [0, 0, 0, False],
        }

    # ---- machine-state protocol -------------------------------------------
    @property
    def operands(self) -> OperandRegisters:
        """``operand_regs`` under its checkpoint key."""
        return self.operand_regs

    # ---- OS-side: usage statistics (§4.5) -------------------------------------
    def read_usage_counters(self) -> list[int]:
        """Read-and-clear every PFU usage counter."""
        return [pfu.read_and_clear_usage() for pfu in self.pfus]
