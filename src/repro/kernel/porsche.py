"""The POrSCHE kernel: process lifecycle, quanta, trap handling.

The kernel drives each process's CPU in quantum-sized bursts.  Traps
(syscalls, custom-instruction faults) are handled synchronously in the
running process's time, and their cost is charged against both the
simulated clock and the remaining quantum — management overhead therefore
erodes throughput exactly as the paper's experiments measure.

A timer interrupt (quantum expiry) pre-empts the process even in the
middle of a long-running custom instruction; the Proteus status-register
protocol (§4.4) makes the re-issue on the next quantum transparent.
"""

from __future__ import annotations

import weakref
from typing import Callable

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..cpu.exceptions import (
    CustomInstructionFault,
    ExitTrap,
    FabricFault,
    SyscallTrap,
)
from ..cpu.program import Program
from ..errors import CheckpointError, KernelError, ProcessKilled, ReproError
from ..faults import FaultInjector
from ..state import Snapshotable
from ..trace.bus import TraceBus
from ..trace.counters import KernelStats  # re-export: the derived view
from .cis import CustomInstructionScheduler
from .predict import TransitionModel
from .process import Process, ProcessState, create_process
from .replacement import ReplacementPolicy, make_policy
from .scheduler import RoundRobinScheduler
from .syscalls import Syscall

__all__ = ["KernelStats", "Porsche"]

MASK32 = 0xFFFFFFFF


class Porsche(Snapshotable):
    """The kernel instance owning one simulated machine's software state.

    All accounting flows through ``self.trace``, the machine event bus
    shared by every layer; ``self.stats`` is the bus counter sink's
    :class:`~repro.trace.counters.KernelStats` view.

    A snapshot holds every process PCB, the scheduler queue, the
    replacement policy, the coprocessor and the trace counters.  Program
    images and bitstreams are not serialised — they are pure functions
    of the experiment spec and the machine config, so ``restore``
    expects a kernel freshly built the same way with the same programs
    spawned in the same order.
    """

    STATE = (
        "clock", "_next_pid", "scheduler", "policy", "coprocessor", "counters",
    )

    def __init__(
        self,
        config: MachineConfig,
        policy: ReplacementPolicy | None = None,
        trace: TraceBus | None = None,
    ) -> None:
        self.config = config
        self.trace = trace if trace is not None else TraceBus()
        # Weakly: the bus is the kernel's, and a strong reference back
        # would leave every finished machine to the cyclic collector.
        kernel = weakref.ref(self)
        self.trace.bind_clock(lambda: kernel().clock)
        self.coprocessor = ProteusCoprocessor(config=config, trace=self.trace)
        self.processes: dict[int, Process] = {}
        self.scheduler = RoundRobinScheduler(processes=self.processes)
        self.policy = policy or make_policy("round_robin", seed=config.seed)
        self.injector = (
            FaultInjector(config.fault_plan)
            if config.fault_plan is not None
            else None
        )
        self.coprocessor.injector = self.injector
        self.predictor = (
            TransitionModel(config.prefetch)
            if config.prefetch is not None
            else None
        )
        if self.predictor is not None:
            # The model learns from every dispatch resolution on the
            # trace bus — per-process program order, identical across
            # execution tiers.
            self.trace.bind_predictor(self.predictor.observe)
        self.cis = CustomInstructionScheduler(
            config=config,
            coprocessor=self.coprocessor,
            policy=self.policy,
            processes=self.processes,
            trace=self.trace,
            injector=self.injector,
            predictor=self.predictor,
        )
        self.clock = 0
        #: ``config.quantum_cycles`` is derived on every read; the config
        #: is frozen, so read it once.
        self._quantum_cycles = config.quantum_cycles
        self.counters = self.trace.counters
        self.stats = self.counters.kernel
        self._next_pid = 1
        self._last_running: Process | None = None
        #: PIDs the synthesiser has already decided about.  A pure
        #: wall-clock memo: the decision itself is re-derivable from
        #: architectural state, so this set is not checkpointed.
        self._synth_done: set[int] = set()

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, program: Program) -> Process:
        """Create a process from a program image and make it runnable."""
        pid = self._next_pid
        self._next_pid += 1
        process = create_process(
            pid=pid,
            program=program,
            config=self.config,
            coprocessor=self.coprocessor,
        )
        # The process's stat bag is the trace counter sink's view, so
        # event-derived attribution lands where callers have always
        # looked for it.
        process.stats = self.trace.counters.process(pid)
        self.processes[pid] = process
        self.scheduler.add(process)
        return process

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_cycles: int | None = None) -> KernelStats:
        """Run until every process has finished (or ``max_cycles``).

        The last quantum before ``max_cycles`` is clamped to the remaining
        cycle budget, so the clock stops at (or barely past) the limit
        instead of overshooting by up to a whole quantum.
        """
        while True:
            if max_cycles is not None and self.clock >= max_cycles:
                return self.stats
            process = self.scheduler.pick()
            if process is None:
                return self.stats
            cap = None if max_cycles is None else max_cycles - self.clock
            self._run_quantum(process, budget_cap=cap)

    def run_quantum(self) -> bool:
        """Run a single quantum; returns False when nothing is runnable."""
        process = self.scheduler.pick()
        if process is None:
            return False
        self._run_quantum(process)
        return True

    # -------------------------------------------------------------------
    def _run_quantum(
        self, process: Process, budget_cap: int | None = None
    ) -> None:
        trace = self.trace
        pid = process.pid
        last = self._last_running
        if last is not process:
            # The context switch: only the coprocessor registers move;
            # PID-tagged PFUs and TLB mappings stay put (§4.2).
            self.coprocessor.switch_context(
                None if last is None else last.coproc_context,
                process.coproc_context,
            )
            cycles = self.config.context_switch_cycles
            self.clock += cycles
            trace.kernel_charge(pid, cycles)
            trace.context_switch(pid)
            hook = self.on_context_switch
            if hook is not None:
                hook(process)
            self._last_running = process
        trace.quantum_start(pid)
        budget = self._quantum_cycles
        if budget_cap is not None:
            budget = min(budget, max(1, budget_cap))
        if self.injector is not None:
            budget -= self._fault_tick(process)
            if budget <= 0:
                budget = 1
        if self.config.synthesis is not None:
            budget -= self._synth_tick(process)
            if not process.alive:
                return  # a rejected synthesised circuit kills
            if budget <= 0:
                budget = 1
        if self.predictor is not None:
            # Settle any speculative transfer whose stream completed
            # during the previous quantum, and consider streaming the
            # incoming process's predicted-next bitstream through the
            # otherwise-idle bus; charges nothing either way.
            self.cis.prefetch_tick(process)
        run = process.cpu.run
        # Every way out of the process (exit, kill) leaves the loop by
        # ``break``, so liveness is tested only after the traps that can
        # end it.  Emitters are looked up on the bus per call: attaching
        # an event sink rebinds them.
        while budget > 0:
            try:
                result = run(budget)
            except ReproError as error:
                # Memory faults and illegal CPU states are fatal to the
                # process (the moral equivalent of SIGSEGV), not the kernel.
                self._kill(process, str(error))
                break
            cycles = result.cycles
            self.clock += cycles
            trace.cpu_burst(pid, cycles, result.instructions)
            budget -= cycles
            event = result.event
            if event is None:
                # Budget exhausted: the timer interrupt pre-empts the
                # process (possibly mid custom-instruction, §4.4).
                trace.timer_interrupt(pid)
                break
            # Exact-type dispatch, most frequent trap first.
            kind = type(event)
            if kind is CustomInstructionFault:
                # Inline: only a kill (an unregistered CID) ends the
                # process here, and it arrives as ProcessKilled.
                try:
                    cycles, action = self.cis.handle_fault(process, event.cid)
                except ProcessKilled as killed:
                    self._charge_kernel(
                        process, self.config.fault_entry_cycles
                    )
                    self._kill(process, killed.reason)
                    break
                self.clock += cycles
                trace.kernel_charge(pid, cycles)
                trace.fault(pid, event.cid, action, cycles)
                budget -= cycles
                if budget <= 0:
                    # The fault handler consumed the rest of the quantum
                    # (a configuration load can exceed a short quantum).
                    # On return from the handler the faulting instruction
                    # re-issues and retires at least one cycle before the
                    # timer preempts; without this, two processes whose
                    # loads outlast the quantum could evict each other's
                    # circuits forever with zero progress.  A partially
                    # executed custom instruction keeps its progress in
                    # the PFU/state section (§4.4), so one cycle is
                    # genuine forward progress.
                    budget = 1
            elif kind is SyscallTrap:
                budget -= self._syscall(process, event.number, budget)
                if not process.alive:
                    break
            elif kind is ExitTrap:
                self._finish(process, status=event.status)
                break
            elif kind is FabricFault:
                budget -= self._fabric_fault(process, event)
                if not process.alive:
                    break
                if budget <= 0:
                    # Same forward-progress guarantee as above: after
                    # recovery the faulted instruction must re-issue.
                    budget = 1
            else:  # pragma: no cover - future event kinds
                raise KernelError(f"unhandled CPU event {event!r}")
        self.scheduler.preempt(process)  # a no-op once the process is gone

    #: Hook for architecture baselines, called with the incoming process
    #: after each switch (PRISC flushes its TLBs here).  The Proteus
    #: architecture deliberately does nothing: dispatch mappings are
    #: PID-tagged.
    on_context_switch: Callable[[Process], None] | None = None

    # -------------------------------------------------------------------
    # traps
    # -------------------------------------------------------------------
    def _syscall(self, process: Process, number: int, budget: int) -> int:
        """Handle a syscall; returns cycles charged."""
        cycles = self.config.syscall_cycles
        self.trace.syscall(process.pid, number)
        regs = process.cpu_state.regs
        reason = None
        try:
            call = Syscall(number)
        except ValueError:
            call = None
            reason = f"unknown syscall {number}"
        try:
            if call is Syscall.REGISTER:
                soft = regs[2] if regs[2] != 0 else None
                cycles += self.cis.register(
                    process, cid=regs[0], table_index=regs[1],
                    soft_address=soft,
                )
            elif call is Syscall.ALIAS:
                cycles += self.cis.register_alias(
                    process, cid=regs[0], target_cid=regs[1]
                )
        except ProcessKilled as error:
            reason = error.reason
        except ReproError as error:
            reason = str(error)
        if call is Syscall.WRITE:
            process.output.append(regs[0])
        elif call is Syscall.CLOCK:
            regs[0] = self.clock & MASK32
        self._charge_kernel(process, cycles)
        if reason is not None:
            self._kill(process, reason)
        elif call is Syscall.EXIT:
            self._finish(process, status=regs[0])
        # YIELD consumes the rest of the quantum.
        return budget if call is Syscall.YIELD else cycles

    # -------------------------------------------------------------------
    # fabric faults (see repro.faults)
    # -------------------------------------------------------------------
    def _fault_tick(self, process: Process) -> int:
        """Quantum-boundary injection + periodic scrub; returns cycles.

        Injection happens at quantum boundaries only — a tier-invariant
        architectural event — so the injector's RNG stream is identical
        across the jit/block/step interpreters.
        """
        injector = self.injector
        for kind, target in injector.advance_quantum(self.coprocessor):
            # pid -1: quantum-boundary injections are nobody's fault.
            self.trace.fault_injected(-1, kind, target)
        if not injector.scrub_due():
            return 0
        cycles = self.cis.scrub_fabric(process)
        self._charge_kernel(process, cycles)
        return cycles

    # ------------------------------------------------------------------
    # custom-instruction synthesis (see repro.synth)
    # ------------------------------------------------------------------
    def _synth_tick(self, process: Process) -> int:
        """Quantum-boundary synthesis check; returns cycles charged.

        The trigger (retired-instruction count) and the mining pass are
        pure functions of architectural state and the machine config, so
        every execution tier, worker and resumed checkpoint adopts the
        same circuit at the same quantum.  Cycles are charged only when
        an adoption actually lands — the no-candidate and deferred cases
        are free, which keeps a resume (whose ``_synth_done`` memo is
        empty) from double-charging decisions the original run already
        made.
        """
        plan = self.config.synthesis
        if process.pid in self._synth_done:
            return 0
        if any(
            reg.synth is not None for reg in process.registrations.values()
        ):
            # Restored from a checkpoint taken after adoption.
            self._synth_done.add(process.pid)
            return 0
        state = process.cpu_state
        if state.instructions_retired < plan.trigger_instructions:
            return 0
        from ..cpu.isa import code_index
        from ..synth.adopt import synthesise

        adoptions, rewritten = synthesise(
            process.base_program or process.program, self.config
        )
        if not adoptions:
            self._synth_done.add(process.pid)
            return 0
        index = code_index(state.pc)
        if any(a.start < index < a.end for a in adoptions):
            # The timer parked the PC mid-window; rewriting now would
            # pull the instructions out from under it.  Retry at the
            # next quantum boundary.
            return 0
        process.adopt_program(rewritten)
        cycles = 0
        try:
            for adoption in adoptions:
                cycles += self.cis.register_spec(
                    process, adoption.cid, adoption.spec,
                    adoption.soft_address, adoption.descriptor(),
                )
        except ProcessKilled as killed:
            self._charge_kernel(process, cycles)
            self._kill(process, killed.reason)
            self._synth_done.add(process.pid)
            return cycles
        self._synth_done.add(process.pid)
        self._charge_kernel(process, cycles)
        return cycles

    def _fabric_fault(self, process: Process, fault: FabricFault) -> int:
        """Recover from a detected fabric fault; returns cycles charged."""
        try:
            cycles, _action = self.cis.handle_fabric_fault(process, fault)
        except ProcessKilled as killed:
            self._charge_kernel(process, self.config.fault_entry_cycles)
            self._kill(process, killed.reason)
            return self.config.fault_entry_cycles
        self._charge_kernel(process, cycles)
        return cycles

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def _finish(self, process: Process, status: int) -> None:
        process.state = ProcessState.EXITED
        process.exit_status = status
        self._exit(process, status=status)

    def _kill(self, process: Process, reason: str) -> None:
        process.state = ProcessState.KILLED
        process.kill_reason = reason
        self._exit(process, killed=True, reason=reason)

    def _exit(self, process: Process, **details) -> None:
        """The one exit tail: stamp completion, release the process's
        circuits and charge the release to the clock."""
        process.completion_cycle = self.clock
        self.trace.process_exit(process.pid, **details)
        cycles = self.cis.process_exit(process)
        self.clock += cycles
        self.trace.kernel_charge(process.pid, cycles, source="exit")

    # -------------------------------------------------------------------
    # accounting
    # -------------------------------------------------------------------
    def _charge_kernel(self, process: Process, cycles: int) -> None:
        self.clock += cycles
        self.trace.kernel_charge(process.pid, cycles)

    # -------------------------------------------------------------------
    # machine-state protocol
    # -------------------------------------------------------------------
    def snapshot(self) -> dict:
        state = super().snapshot()
        last = self._last_running
        state["last_running"] = last.pid if last is not None else None
        state["processes"] = {
            str(pid): process.snapshot()
            for pid, process in self.processes.items()
        }
        # Key present only when a fault plan is active, so checkpoints of
        # injection-free machines keep their pre-fault byte layout.
        if self.injector is not None:
            state["faults"] = self.injector.snapshot()
        # Same discipline for the prefetcher: model + in-flight transfer
        # ride along only when a prefetch plan is active.
        if self.predictor is not None:
            state["prefetch"] = {
                "model": self.predictor.snapshot(),
                "engine": self.cis.engine.snapshot(),
            }
        return state

    def restore(self, state: dict) -> None:
        saved = {int(pid): entry for pid, entry in state["processes"].items()}
        if set(saved) != set(self.processes):
            raise KernelError(
                f"snapshot pids {sorted(saved)} do not match kernel "
                f"pids {sorted(self.processes)}; spawn the same programs "
                "in the same order before restoring"
            )
        for pid, process in self.processes.items():
            process.restore(saved[pid])
        # The synthesis memo is wall-clock only; after a restore the
        # decision state is re-derived from the restored registrations
        # (a pre-adoption snapshot must be free to adopt again).
        self._synth_done.clear()
        super().restore(state)
        # Re-attach circuit instances to their PFU slots, and rebuild the
        # CIS's record of which registration owns each.  Each loaded
        # registration names its PFU; aliases share the Registration
        # object, so one attach per PFU suffices.
        pfus = self.coprocessor.pfus.pfus
        owners = self.cis.owners
        for pfu in pfus:
            pfu.instance = None
            owners[pfu.index] = None
        for pid, process in self.processes.items():
            for registration in process.registrations.values():
                index = registration.pfu_index
                if index is None:
                    continue
                if not (type(index) is int and 0 <= index < len(pfus)):
                    raise CheckpointError(
                        f"pid {pid}: CID {registration.cid} names PFU "
                        f"{index!r}; the machine has PFUs 0..{len(pfus) - 1}"
                    )
                held = pfus[index].instance
                if held is not None and held is not registration.instance:
                    raise CheckpointError(
                        f"PFU {index} is named by two registrations "
                        f"(pids {held.pid} and {pid})"
                    )
                pfus[index].instance = registration.instance
                owners[index] = registration
        # Every hardware tuple must name a live process's registration
        # loaded on the PFU its RAM word names: any other word would
        # steer that process's CDPs to a circuit it never loaded.
        hardware = self.coprocessor.dispatch.hardware_tlb.targets
        for (pid, cid), index in hardware.items():
            process = self.processes.get(pid)
            if process is None or not process.alive:
                raise CheckpointError(
                    f"hardware_tlb.cam: tuple ({pid}, {cid}) names no live "
                    "process"
                )
            registration = process.registrations.get(cid)
            held = None if registration is None else registration.pfu_index
            if type(index) is not int or index != held:
                raise CheckpointError(
                    f"hardware_tlb.ram: tuple ({pid}, {cid}) maps to PFU "
                    f"{index!r}, but its registration holds PFU {held!r}"
                )
        if self.injector is not None:
            self.injector.restore(state["faults"])
        if self.predictor is not None:
            self.predictor.restore(state["prefetch"]["model"])
            self.cis.engine.restore(state["prefetch"]["engine"])
        last = state["last_running"]
        if last is not None and last not in self.processes:
            raise CheckpointError(f"last_running names unknown pid {last!r}")
        self._last_running = self.processes[last] if last is not None else None
        # The counter sink owns per-pid stat bags; keep each PCB's alias
        # pointed at the (mutated-in-place) view.
        for pid, process in self.processes.items():
            process.stats = self.counters.process(pid)
