"""Processes and their kernel bookkeeping (PCBs).

Each process owns a private address space, an ARM register context, a
saved coprocessor context (FPL register file + operand registers), and a
table of circuit registrations made through ``SWI #1``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..core.circuit import CircuitInstance
from ..cpu.core import CPU, CPUState
from ..cpu.isa import code_address
from ..cpu.memory import Memory
from ..cpu.program import Program
from ..errors import CheckpointError, KernelError
from ..state import Snapshotable
from ..trace.counters import ProcessStats  # re-export: the derived view

__all__ = [
    "Process",
    "ProcessState",
    "ProcessStats",
    "Registration",
    "create_process",
]


class ProcessState(enum.Enum):
    """Lifecycle states of a POrSCHE process."""

    READY = "ready"
    RUNNING = "running"
    EXITED = "exited"
    KILLED = "killed"


#: The states of a process that has not finished.  A module constant:
#: reading an ``Enum`` member through its class costs several times a
#: tuple probe, and the scheduler asks once per quantum.
_LIVE = (ProcessState.READY, ProcessState.RUNNING)


@dataclass
class Registration(Snapshotable):
    """One (CID → custom instruction) registration for a process.

    ``pfu_index`` is the kernel's record of where the instance currently
    resides: ``None`` means swapped out (state held in ``instance``).
    ``soft_address`` is the optional software alternative entry point.
    A restore fills in a registration built around a fresh instance of
    the same circuit.
    """

    STATE = (
        "cid", "soft_address", "pfu_index", "table_index", "loads",
        "evictions", "soft_mapped", "instance",
    )

    cid: int
    instance: CircuitInstance
    soft_address: int | None = None
    pfu_index: int | None = None
    #: Index into the program's circuit table, kept so a checkpoint can
    #: rebuild the instance from its spec instead of serialising it.
    table_index: int | None = None
    #: Statistics.
    loads: int = 0
    evictions: int = 0
    soft_mapped: bool = False
    #: Overlap cycles banked by a completed-but-unused prefetch: set when
    #: the transfer engine installs this circuit speculatively, cleared
    #: (and credited as a hit, or written off as wasted) at first use or
    #: eviction.  Zero whenever prefetching is off.
    prefetched: int = 0
    #: For kernel-synthesised circuits (no circuit-table entry): the
    #: mined window descriptor, enough for a checkpoint to re-derive the
    #: spec and program rewrite deterministically (see
    #: :func:`repro.synth.adopt.find_adoption`).
    synth: dict | None = None

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        snap = super().snapshot()
        if self.synth is not None:
            # Absent when unused: synthesis-free checkpoints keep their
            # pre-synthesis byte layout.
            snap["synth"] = dict(self.synth)
        if self.prefetched:
            # Same discipline: prefetch-free checkpoints are byte-stable.
            snap["prefetched"] = self.prefetched
        return snap

    def restore(self, state: dict) -> None:
        super().restore(state)
        synth = state.get("synth")
        self.synth = dict(synth) if synth is not None else None
        self.prefetched = state.get("prefetched", 0)


@dataclass
class Process(Snapshotable):
    """A POrSCHE process: program image + execution contexts + PCB.

    A snapshot holds everything but the program image, which is rebuilt
    from the spec.  Registrations are stored canonically (``reg.cid``
    keys the entry); alias CIDs map to the canonical CID so a restore
    re-shares the same :class:`Registration` object, and rebuilds each
    circuit instance from the program's circuit table (or re-derives a
    synthesised one) before filling in its saved state.
    """

    STATE = ("pid", "cpu", "completion_cycle", "exit_status", "kill_reason")

    pid: int
    program: Program
    memory: Memory
    cpu_state: CPUState
    cpu: CPU
    coproc_context: dict
    state: ProcessState = ProcessState.READY
    registrations: dict[int, Registration] = field(default_factory=dict)
    #: Values emitted through the debug-output syscall.
    output: list[int] = field(default_factory=list)
    #: Simulated clock value when the process finished (exit or kill).
    completion_cycle: int | None = None
    exit_status: int | None = None
    kill_reason: str | None = None
    #: The trace counter sink's per-PID view; the kernel re-points this at
    #: spawn so event-derived attribution lands here.
    stats: ProcessStats = field(default_factory=ProcessStats)
    #: The pristine image before any synthesiser rewrite (``None`` until
    #: a circuit is adopted); checkpoints re-derive adoptions from it.
    base_program: Program | None = None

    @property
    def alive(self) -> bool:
        return self.state in _LIVE

    def adopt_program(self, rewritten: Program) -> None:
        """Swap in a synthesiser-rewritten image, keeping the original."""
        if self.base_program is None:
            self.base_program = self.program
        self.program = rewritten
        self.cpu.retarget(rewritten.image.instructions)

    def registration(self, cid: int) -> Registration | None:
        return self.registrations.get(cid)

    def register(self, registration: Registration) -> None:
        if registration.cid in self.registrations:
            raise KernelError(
                f"pid {self.pid}: CID {registration.cid} already registered"
            )
        self.registrations[registration.cid] = registration

    def read_result(self, name: str) -> bytes:
        """Read a named result region from the process's memory."""
        return self.program.read_result(self.memory, name)

    def result_matches(self, name: str, expected: bytes) -> bool:
        """Bulk-compare a named result region against reference bytes."""
        return self.program.result_matches(self.memory, name, expected)

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        canonical = []
        aliases = {}
        for cid, reg in sorted(self.registrations.items()):
            if cid == reg.cid:
                canonical.append(reg.snapshot())
            else:
                aliases[str(cid)] = reg.cid
        return {
            **super().snapshot(),
            "state": self.state.value,
            "coproc_context": {
                "regfile": list(self.coproc_context["regfile"]),
                "operands": list(self.coproc_context["operands"]),
            },
            "registrations": canonical,
            "aliases": aliases,
            # Grows as the process runs, so outside the fixed-length
            # list rule.
            "output": list(self.output),
        }

    def restore(self, state: dict) -> None:
        if state["pid"] != self.pid:
            raise KernelError(
                f"snapshot for pid {state['pid']} restored into "
                f"pid {self.pid}"
            )
        super().restore(state)
        self.state = ProcessState(state["state"])
        config = self.cpu.config
        context = state["coproc_context"]
        regfile = context["regfile"]
        operands = context["operands"]
        # Checked here, once, so a context switch can copy the saved
        # registers without measuring them.
        if len(regfile) != config.fpl_registers or len(operands) != 4:
            raise CheckpointError(
                f"pid {self.pid}: coproc_context holds {len(regfile)} "
                f"FPL words and {len(operands)} operand fields, expected "
                f"{config.fpl_registers} and 4"
            )
        self.coproc_context = {
            "regfile": list(regfile),
            "operands": [*operands[:3], bool(operands[3])],
        }
        self.registrations = {}
        synth_program: Program | None = None
        for entry in state["registrations"]:
            synth = entry.get("synth")
            if synth is not None:
                # A kernel-synthesised circuit: re-derive the spec and
                # the rewritten image from the pristine program — both
                # are pure functions of (program, config).
                from ..synth.adopt import find_adoption

                adoption, rewritten = find_adoption(
                    self.base_program or self.program, config,
                    cid=entry["cid"],
                    start=synth["start"], end=synth["end"],
                )
                spec = adoption.spec
                synth_program = rewritten
            elif entry["table_index"] is None:
                raise KernelError(
                    f"pid {self.pid}: registration for CID {entry['cid']} "
                    "has no circuit-table index; cannot rebuild instance"
                )
            else:
                spec = self.program.circuit(entry["table_index"])
            registration = Registration(
                cid=entry["cid"],
                instance=spec.instantiate(
                    pid=self.pid, config=config, seed=config.seed
                ),
            )
            registration.restore(entry)
            self.registrations[registration.cid] = registration
        if synth_program is not None:
            self.adopt_program(synth_program)
        elif self.base_program is not None:
            # Snapshot predates the adoption: revert to the pristine
            # image so the synthesiser can re-adopt on its own schedule.
            self.program = self.base_program
            self.cpu.retarget(self.base_program.image.instructions)
            self.base_program = None
        for cid, target in state["aliases"].items():
            self.registrations[int(cid)] = self.registrations[target]
        self.output = list(state["output"])


def create_process(pid: int, program: Program, config, coprocessor) -> Process:
    """Build a ready-to-run process from a program image."""
    memory = program.build_memory()
    cpu_state = CPUState(memory=memory)
    cpu_state.pc = code_address(program.image.entry_index)
    cpu = CPU(
        config=config,
        program=program.image.instructions,
        state=cpu_state,
        coprocessor=coprocessor,
        pid=pid,
    )
    return Process(
        pid=pid,
        program=program,
        memory=memory,
        cpu_state=cpu_state,
        cpu=cpu,
        coproc_context=coprocessor.fresh_context(),
    )
