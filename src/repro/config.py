"""Machine-wide configuration for the ProteanARM model.

All tunables live in one frozen dataclass, :class:`MachineConfig`, so a
whole experiment is reproducible from a single value.  The defaults mirror
the platform described in Section 5 of the paper:

* an ARM7TDMI-class core with the Proteus coprocessor attached;
* four PFUs of 500 CLBs each;
* 54 KB of configuration data per custom instruction;
* scheduling quanta of 10 ms (batch) and 1 ms (interactive).

The paper reports completion times around 10^8..10^9 cycles, i.e. seconds
of simulated time on a 100 MHz-class clock.  Interpreting that many
instructions in pure Python is intractable, so the default
``cycles_per_ms`` models a *scaled* clock (100 kHz instead of 100 MHz) and
workloads are scaled down by the same factor.  All the behaviours the
evaluation studies (contention knees, policy ordering, quantum
sensitivity) depend on ratios — configuration-load cycles : quantum :
total work — which scaling preserves.  Use :meth:`MachineConfig.paper_scale`
for the full-size clock if you have the patience.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any

from .errors import ConfigurationError
from .faults import FaultPlan
from .prefetch import PrefetchPlan
from .synth.plan import SynthesisPlan

#: Configuration bytes for a full 500-CLB PFU static image (paper, §4.1).
PAPER_CONFIG_BYTES = 54 * 1024

#: PFU geometry used for the paper's experiments (§5).
PAPER_PFU_COUNT = 4
PAPER_PFU_CLBS = 500

#: The paper's ARM7-class clock is not stated explicitly; 100 MHz is the
#: era-appropriate value that makes the figure axes self-consistent
#: (10 ms quantum = 1e6 cycles; completion times of 1e8..1e9 cycles are
#: 1..10 s of wall-clock for 1..8 processes).
PAPER_CYCLES_PER_MS = 100_000

#: CPU execution tiers, fastest first (see :mod:`repro.cpu`):
#: ``jit`` trace-compiles hot paths to generated Python, ``block`` fuses
#: straight-line runs into superinstruction functions, ``step`` is the
#: readable reference interpreter.  All three are bit-identical.
EXEC_TIERS = ("jit", "block", "step")


def _default_exec_tier() -> str:
    """Tier default, overridable per run via ``REPRO_EXEC_TIER``."""
    tier = os.environ.get("REPRO_EXEC_TIER", "jit")
    if tier not in EXEC_TIERS:
        raise ConfigurationError(
            f"REPRO_EXEC_TIER={tier!r} is not an execution tier; "
            f"choose one of {', '.join(EXEC_TIERS)}"
        )
    return tier


@dataclass(frozen=True)
class MachineConfig:
    """Every tunable of the simulated ProteanARM platform.

    Cycle costs are expressed in CPU clock cycles.  Costs that model data
    movement (configuration load, state save/restore) are derived from byte
    counts and ``config_bus_bytes_per_cycle`` unless explicitly overridden.
    """

    # ---- clock and scheduling -------------------------------------------
    #: Simulated clock cycles per millisecond.  100_000 models a scaled
    #: 100 MHz clock (see module docstring).
    cycles_per_ms: int = PAPER_CYCLES_PER_MS
    #: Pre-emptive round-robin scheduling quantum, in milliseconds.
    quantum_ms: float = 10.0
    #: Cycles charged for a full process context switch (register save/
    #: restore + scheduler bookkeeping).  ARM7 era kernels: ~1-2 us.
    context_switch_cycles: int = 150

    # ---- FPL geometry ----------------------------------------------------
    #: Number of Programmable Function Units on the coprocessor.
    pfu_count: int = PAPER_PFU_COUNT
    #: CLBs available in each PFU.
    pfu_clbs: int = PAPER_PFU_CLBS
    #: Entries in each dispatch TLB (hardware TLB and software TLB).
    tlb_entries: int = 16
    #: Words in the coprocessor (FPL unit) register file.
    fpl_registers: int = 16

    # ---- configuration movement -----------------------------------------
    #: Static configuration bytes for a full PFU (LUTs + routing).
    config_bytes_per_pfu: int = PAPER_CONFIG_BYTES
    #: Bytes of configuration moved per cycle over the configuration port.
    #: Virtex-era ports are byte-wide (SelectMAP: 8 bits/clock), so a full
    #: 54 KB load costs ~55 k cycles — over half a 1 ms quantum, which is
    #: what makes the 1 ms circuit-switching runs in Figure 2 so much
    #: worse than the 10 ms runs.
    config_bus_bytes_per_cycle: int = 1
    #: Extra bytes in a state section per 32-bit state word (the CLB
    #: register frames are not perfectly dense).
    state_bytes_per_word: int = 8
    #: Fixed state-section framing overhead in bytes.
    state_section_overhead_bytes: int = 32

    # ---- kernel cost model ------------------------------------------------
    #: Cycles to enter + decode any exception/fault into the kernel.
    fault_entry_cycles: int = 40
    #: Cycles for the CIS to re-install a TLB mapping (mapping-only fault).
    tlb_update_cycles: int = 12
    #: Cycles of CIS decision logic per circuit-load fault (victim
    #: selection, bookkeeping) excluding the data transfer itself.
    cis_decision_cycles: int = 60
    #: Cycles charged for a syscall trap + return.
    syscall_cycles: int = 30
    #: Cycles for the kernel to read-and-clear one PFU usage counter.
    usage_read_cycles: int = 4

    # ---- CPU cost model ----------------------------------------------------
    #: Base cycles for ordinary data-processing instructions.
    alu_cycles: int = 1
    #: Cycles for a taken branch (pipeline refill on ARM7: 3).
    branch_cycles: int = 3
    #: Cycles for a load (ARM7 LDR: 3) and store (ARM7 STR: 2).
    load_cycles: int = 3
    store_cycles: int = 2
    #: Cycles for a 32x32 multiply (ARM7 MUL worst case ~4).
    mul_cycles: int = 4
    #: Cycles to move a word between the core and the FPL register file.
    coproc_transfer_cycles: int = 1
    #: Issue overhead for a custom instruction, on top of circuit latency.
    cdp_issue_cycles: int = 1
    #: Cycles for the special branch into a software alternative (operand
    #: capture + branch-and-link).
    soft_dispatch_branch_cycles: int = 4
    #: Cycles for LDO/STO operand-register accesses.
    operand_reg_cycles: int = 1

    # ---- policy knobs -------------------------------------------------------
    #: Seed for the random replacement policy and workload data generators.
    seed: int = 0xC1D5
    #: When True the CIS defers to a registered software alternative instead
    #: of swapping circuits while the array is full ("Soft" runs, Fig. 3).
    prefer_software_when_full: bool = False
    #: When True, a software-deferred circuit is promoted back into hardware
    #: as soon as a PFU frees up (extension, §5.1.3 discussion).
    promote_on_free: bool = False
    #: When True identical circuits registered by different processes share
    #: one PFU instance (the paper disables this in §5.1 to study overload).
    allow_sharing: bool = False
    #: When True, loading a circuit into a PFU region that still holds the
    #: same circuit's static image moves only the state section.  This is
    #: the instance-sharing optimisation of §5.1 ("just changing the state
    #: in a single PFU"); the paper's experiments disable it so that every
    #: load pays the full configuration transfer.
    reuse_resident_static: bool = False

    # ---- dependability ----------------------------------------------------
    #: Fault-injection scenario (see :mod:`repro.faults`).  ``None`` — the
    #: default — builds no injector at all: the machine is bit-identical
    #: to a build that predates fault injection.
    fault_plan: FaultPlan | None = None

    #: Custom-instruction synthesis plan (see :mod:`repro.synth`).
    #: ``None`` — the default — disables the synthesiser entirely: spec
    #: keys, checkpoints and figures are byte-identical to a build that
    #: predates synthesis.
    synthesis: SynthesisPlan | None = None

    #: Speculative configuration prefetch plan (see :mod:`repro.prefetch`).
    #: ``None`` — the default — builds no predictor or transfer engine:
    #: spec keys, checkpoints and figures are byte-identical to a build
    #: that predates prefetching.
    prefetch: PrefetchPlan | None = None

    # ---- simulator implementation knobs ----------------------------------
    #: CPU interpreter tier (``jit`` | ``block`` | ``step``).  Purely a
    #: simulator-speed choice: every tier produces bit-identical cycle
    #: accounting, trace counters and memory images, so results and
    #: checkpoints are interchangeable across tiers (and the tier is
    #: excluded from result-cache keys).  Defaults to the fastest tier;
    #: set ``REPRO_EXEC_TIER`` to override without touching code.
    exec_tier: str = field(default_factory=_default_exec_tier)

    def __post_init__(self) -> None:
        positive = (
            "cycles_per_ms",
            "pfu_count",
            "pfu_clbs",
            "tlb_entries",
            "fpl_registers",
            "config_bytes_per_pfu",
            "config_bus_bytes_per_cycle",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.quantum_ms <= 0:
            raise ConfigurationError("quantum_ms must be positive")
        non_negative = (
            "context_switch_cycles",
            "fault_entry_cycles",
            "tlb_update_cycles",
            "cis_decision_cycles",
            "syscall_cycles",
            "state_bytes_per_word",
            "state_section_overhead_bytes",
        )
        for name in non_negative:
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.exec_tier not in EXEC_TIERS:
            raise ConfigurationError(
                f"exec_tier {self.exec_tier!r} not in {EXEC_TIERS}"
            )

    # ---- derived quantities -------------------------------------------------
    @property
    def quantum_cycles(self) -> int:
        """The scheduling quantum expressed in clock cycles."""
        return max(1, round(self.quantum_ms * self.cycles_per_ms))

    def config_bytes_for(self, clbs: int) -> int:
        """Static configuration bytes for a circuit occupying ``clbs`` CLBs.

        The paper transfers a full 54 KB per custom instruction; we scale
        linearly with CLB usage but never below one quarter of a PFU frame
        (partial reconfiguration still moves whole frames).
        """
        full = self.config_bytes_per_pfu
        scaled = int(full * clbs / self.pfu_clbs)
        return max(full // 4, min(full, scaled))

    def state_bytes_for(self, state_words: int) -> int:
        """State-section bytes for a circuit with ``state_words`` registers."""
        return (
            self.state_section_overhead_bytes
            + self.state_bytes_per_word * state_words
        )

    def transfer_cycles(self, nbytes: int) -> int:
        """Cycles to move ``nbytes`` over the configuration port."""
        bus = self.config_bus_bytes_per_cycle
        return (nbytes + bus - 1) // bus

    def derive(self, **overrides: Any) -> "MachineConfig":
        """Return a copy with ``overrides`` applied (frozen-safe)."""
        return replace(self, **overrides)

    @classmethod
    def paper_scale(cls, **overrides: Any) -> "MachineConfig":
        """The unscaled 100 MHz configuration implied by the paper.

        Running full experiments at this scale takes hours in pure Python;
        it exists for spot checks and documentation.
        """
        merged: dict[str, Any] = {"cycles_per_ms": 100_000_000 // 1000}
        merged.update(overrides)
        return cls(**merged)

    @classmethod
    def interactive(cls, **overrides: Any) -> "MachineConfig":
        """The 1 ms-quantum variant used for the interactive runs."""
        merged: dict[str, Any] = {"quantum_ms": 1.0}
        merged.update(overrides)
        return cls(**merged)


DEFAULT_CONFIG = MachineConfig()
