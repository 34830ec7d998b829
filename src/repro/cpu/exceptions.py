"""Architecturally visible CPU events handed to the kernel.

These are *not* errors: they are the processor's trap/fault mechanism.
A burst of :meth:`repro.cpu.core.CPU.run` ends with at most one of them
in its result's ``event``, and the POrSCHE kernel handles it, as a real
trap transfers control to an OS handler.  How an event leaves the
interpreter depends on how often it happens:

* :class:`CustomInstructionFault` is the common one — under contention
  on a short quantum most bursts end in it.  On the compiled tiers each
  CDP site builds its fault once, at translation, and signals it through
  the run context (``RunContext.event`` and ``interrupted``), so
  delivering it neither allocates nor unwinds a stack.
* :class:`SyscallTrap`, :class:`ExitTrap` and :class:`FabricFault` are
  rare (a few per process, or only under a fault plan) and are raised
  on every tier; ``run`` catches them.

The ``step`` tier, the readable reference, raises every event.  They
all derive from ``Exception`` so that it, and the rare paths, can.
"""

from __future__ import annotations

from dataclasses import dataclass


class CPUEvent(Exception):
    """Base class for trap/fault events delivered to the kernel."""


@dataclass
class SyscallTrap(CPUEvent):
    """A ``SWI`` instruction trapped into the kernel.

    The program counter has already advanced past the SWI, so resuming
    the process continues at the next instruction.
    """

    number: int

    def __str__(self) -> str:
        return f"SWI #{self.number}"


@dataclass
class ExitTrap(CPUEvent):
    """The process requested termination (``SWI #0`` / ``HALT``)."""

    status: int = 0

    def __str__(self) -> str:
        return f"exit({self.status})"


@dataclass
class CustomInstructionFault(CPUEvent):
    """A CDP instruction matched neither dispatch TLB (paper Figure 1).

    The program counter still points at the faulting instruction so the
    kernel can load/map the circuit and re-issue it, or kill the process
    if the CID was never registered.
    """

    cid: int
    fault_pc: int

    def __str__(self) -> str:
        return f"custom instruction fault, CID {self.cid} at pc={self.fault_pc}"


@dataclass
class FabricFault(CPUEvent):
    """A fabric fault was detected while completing a custom instruction.

    Raised by the coprocessor when the per-issue parity check catches a
    corrupted result (see :mod:`repro.faults`).  The program counter
    still points at the CDP instruction, so after the kernel repairs the
    fabric — reload, software fallback, or quarantine — the instruction
    re-issues and the interrupted invocation completes transparently
    (paper §4.4 execution-context semantics).

    ``charge_cycles`` is what the aborted issue cost the process: issue
    overhead plus the cycles the PFU actually consumed before the fault
    was caught at the would-be completion.
    """

    pfu_index: int
    kind: str
    charge_cycles: int

    def __str__(self) -> str:
        return (
            f"fabric fault ({self.kind}) on PFU {self.pfu_index}, "
            f"{self.charge_cycles} cycles charged"
        )
