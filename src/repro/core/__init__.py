"""The Proteus architecture core (paper §4) — the primary contribution.

This package models the reconfigurable function unit the paper adds to
the processor datapath:

* a 16 × 32-bit FPL register file feeding the PFUs;
* :class:`~repro.core.pfu.PFU` — programmable function units with the
  init/done handshake and 1-bit status register that make long-running
  custom instructions transparently interruptible (§4.4), plus the
  per-PFU usage counters the OS reads for replacement decisions (§4.5);
* :class:`~repro.core.tlb.DispatchTLB` — CAM+RAM translation buffers
  keyed by the globally unique (PID, CID) tuple, so nothing is flushed on
  a context switch and many tuples can share one circuit; each holds its
  CAM's keys itself, at most one valid entry per key (§4.2);
* :class:`~repro.core.dispatch.DispatchUnit` — the decode-stage resolver
  of Figure 1: hardware PFU, software alternative, or OS fault;
* :class:`~repro.core.operand_regs.OperandRegisters` — the special
  purpose registers that let a software alternative find its operands
  without decoding the faulting instruction (§4.3).
"""

from .circuit import CircuitBehaviour, CircuitInstance, CircuitSpec
from .tlb import DispatchTLB, IDTuple
from .dispatch import (
    DispatchKind,
    DispatchResult,
    DispatchUnit,
)
from .operand_regs import OperandRegisters
from .pfu import PFU, PFUBank
from .regfile import FPLRegisterFile
from .coprocessor import ProteusCoprocessor

__all__ = [
    "CircuitBehaviour",
    "CircuitInstance",
    "CircuitSpec",
    "DispatchTLB",
    "IDTuple",
    "DispatchKind",
    "DispatchResult",
    "DispatchUnit",
    "OperandRegisters",
    "PFU",
    "PFUBank",
    "FPLRegisterFile",
    "ProteusCoprocessor",
]
