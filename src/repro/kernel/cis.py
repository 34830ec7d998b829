"""The Custom Instruction Scheduler (paper §5).

The CIS is the kernel component that "manages the circuits registered
with the OS by different applications ... responsible for loading and
unloading circuits and for managing the dispatch hardware".  Its fault
handler implements the policy side of Figure 1:

* **illegal CID** → the process is killed;
* **mapping fault** — the circuit is still loaded but its (PID, CID)
  tuple was pushed out of the finite TLB → reinstall the mapping only
  (§4.2 explicitly requires this check before any load);
* **load fault** — the circuit is not on the array:

  - a free PFU exists → load it there (preferring a region that already
    holds this circuit's static image, so only state moves);
  - the array is full and a software alternative is registered (and the
    kernel is configured to prefer it, or previously chose it) → install
    a software mapping instead of swapping (§2, Figure 3's "Soft" runs);
  - otherwise → pick a victim with the replacement policy, save its
    state section off, and load the new circuit.

All CIS work is charged in cycles; configuration movement dominates, as
the paper intends (54 KB static vs. a few hundred bytes of state).

When a :class:`~repro.prefetch.PrefetchPlan` is active the CIS also owns
the *predictive* layer: a :class:`~repro.kernel.predict.TransitionModel`
fed from the trace bus and a
:class:`~repro.kernel.predict.TransferEngine` that streams the
predicted-next bitstream into a free or victim PFU during cycles the
configuration bus would otherwise idle.  Demand transfers keep absolute
bus priority (every demand byte pushes the speculative stream back), the
engine's target PFU is pinned against eviction while the transfer is in
flight, and mispredicts cancel deterministically — so with the plan off
the accounting below is untouched.

A fault is resolved in one pass, in this order:

1. the registration is looked up (an unregistered CID kills);
2. a completed speculative transfer is installed, then a loaded
   circuit whose tuple fell out of the TLB is remapped;
3. a prefetch still in flight for the faulting process is settled
   against the demand (partial hit, or cancelled as a mispredict);
4. :meth:`~CustomInstructionScheduler._scan` reads the PFU bank once,
   yielding the free PFU (a region still holding the circuit's static
   image first) and the configured PFUs in index order;
5. a free PFU takes the load;
6. with sharing on, an idle resident instance of the same circuit has
   only its state swapped;
7. unless a software alternative is preferred, the victim candidates
   are the configured PFUs of step 4 (less the predicted-hot ones when
   a predictor runs);
8. with no candidate the software alternative is mapped, or the process
   is killed when it has none;
9. otherwise the replacement policy picks a victim from the candidates,
   its state section is saved off, and the circuit loads in its place.

Only a prefetch cancelled in step 7 for want of candidates rescans.

Every swap step has one implementation, whichever path takes it:

* :meth:`~CustomInstructionScheduler._load_into` — a circuit lands on a
  PFU: the configuration transfer through
  :meth:`~repro.core.coprocessor.ProteusCoprocessor.load_circuit`, its
  demand charge and checksum retries, the registration and ``owners``
  bookkeeping, the ``circuit_load`` event and the mapping (demand loads,
  swaps, shares, promotions, and speculative installs, which are
  charged nothing and land unmapped);
* :meth:`~CustomInstructionScheduler._evict` — a circuit leaves a PFU:
  :meth:`~repro.core.coprocessor.ProteusCoprocessor.unload_circuit`, the
  ``circuit_evict`` event, its registration taken off the array through
  the ``owners`` table, and the state save's charge (swaps, shares,
  prefetch victims and quarantine);
* :meth:`~CustomInstructionScheduler._defer` — a fault is resolved by a
  software mapping instead of a load;
* :meth:`~CustomInstructionScheduler._cancel_prefetch` — the in-flight
  speculative transfer is abandoned, with its reason;
* :meth:`~CustomInstructionScheduler._usable` — the PFUs a victim,
  free, share or promote search may pick, filtered by
  :meth:`~CustomInstructionScheduler._scan`;
* :meth:`~CustomInstructionScheduler._recover` — the quarantine →
  fallback → reload decision, for trap-time fabric faults and the
  periodic scrub alike.

A demand swap is therefore ``handle_fault`` → ``_scan`` →
``policy.choose`` → ``_evict`` → ``_load_into``, with one
``unload_circuit`` and one ``load_circuit`` call into the coprocessor.
The victim's owner is found in ``owners`` and the TLB tuples naming the
PFU in the TLB's reverse index, so neither is a walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import MachineConfig
from ..core.coprocessor import ProteusCoprocessor
from ..core.pfu import PFU
from ..core.tlb import IDTuple
from ..cpu.isa import CODE_BASE
from ..errors import KernelError, ProcessKilled
from ..fabric.validate import SecurityPolicy, validate_bitstream
from ..trace.bus import TraceBus
from ..trace.counters import CISStats  # re-export: the derived view
from .predict import TransferEngine, TransitionModel
from .process import Process, Registration
from .replacement import ReplacementPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.exceptions import FabricFault
    from ..faults import FaultInjector

__all__ = ["CISStats", "CustomInstructionScheduler"]


@dataclass
class CustomInstructionScheduler:
    """Kernel-side manager of the Proteus coprocessor.

    Every management action is published on the machine event bus;
    :attr:`stats` is the bus counter sink's derived
    :class:`~repro.trace.counters.CISStats` view.
    """

    config: MachineConfig
    coprocessor: ProteusCoprocessor
    policy: ReplacementPolicy
    processes: dict[int, Process]
    trace: TraceBus = field(default_factory=TraceBus)
    #: Fault injector when a :class:`~repro.faults.FaultPlan` is active.
    injector: "FaultInjector | None" = None
    #: Transition model when a :class:`~repro.prefetch.PrefetchPlan` is
    #: active; ``None`` keeps the CIS purely reactive (pre-prefetch).
    predictor: TransitionModel | None = None
    security: SecurityPolicy = field(init=False)
    #: The speculative transfer engine, built iff a predictor is present.
    engine: TransferEngine | None = field(init=False, default=None)
    #: PFU index -> the registration whose circuit is resident there
    #: (``None`` for an empty PFU), so an eviction finds the registration
    #: it takes off the array without walking its owner's table.  Kept
    #: by :meth:`_load_into` and :meth:`_evict`; a restore rebuilds it.
    owners: list[Registration | None] = field(init=False)

    def __post_init__(self) -> None:
        self.security = SecurityPolicy(
            max_clbs=self.config.pfu_clbs,
            max_state_words=64,
        )
        self.owners = [None] * self.config.pfu_count
        if self.predictor is not None:
            self.engine = TransferEngine()

    @property
    def stats(self) -> CISStats:
        return self.trace.counters.cis

    # ------------------------------------------------------------------
    # registration (SWI #1)
    # ------------------------------------------------------------------
    def register(
        self,
        process: Process,
        cid: int,
        table_index: int,
        soft_address: int | None,
    ) -> int:
        """Register a custom instruction for ``process``; returns cycles.

        The bitstream is validated against the OS security policy before
        it is accepted (§2's security requirements); a rejected bitstream
        kills the process, as would loading hostile configuration data.
        """
        spec = process.program.circuit(table_index)
        cycles = self.config.syscall_cycles + self.config.cis_decision_cycles
        return self._register_spec(
            process, cid, spec, soft_address,
            table_index=table_index, cycles=cycles, synth=None,
        )

    def register_spec(
        self,
        process: Process,
        cid: int,
        spec,
        soft_address: int | None,
        synth: dict,
    ) -> int:
        """Register a kernel-synthesised instruction; returns cycles.

        Same pipeline as :meth:`register` — instantiate, validate
        against the security policy, charge, record — but there is no
        syscall context (the kernel initiates this itself) and no
        circuit-table entry: ``synth`` carries the window descriptor a
        checkpoint needs to re-derive the spec.
        """
        return self._register_spec(
            process, cid, spec, soft_address,
            table_index=None, cycles=self.config.cis_decision_cycles,
            synth=synth,
        )

    def _register_spec(
        self,
        process: Process,
        cid: int,
        spec,
        soft_address: int | None,
        table_index: int | None,
        cycles: int,
        synth: dict | None,
    ) -> int:
        instance = spec.instantiate(
            pid=process.pid, config=self.config, seed=self.config.seed
        )
        report = validate_bitstream(instance.bitstream, self.security)
        self.trace.cis_charge(-1, cycles)
        if not report.ok:
            self.trace.registration_rejected(process.pid, cid)
            self._kill(process, f"bitstream rejected: {report.violations[0]}")
        if soft_address:
            # Checked once here so every tier later branches to a real
            # instruction: a dispatch into the middle of a word or past
            # the image has no meaning on any of them.
            index, offset = divmod(soft_address - CODE_BASE, 4)
            if offset or not 0 <= index < len(process.cpu.program):
                self.trace.registration_rejected(process.pid, cid)
                self._kill(
                    process,
                    f"software alternative {soft_address:#010x} is not "
                    "an instruction address",
                )
        registration = Registration(
            cid=cid,
            instance=instance,
            soft_address=soft_address if soft_address else None,
            table_index=table_index,
            synth=synth,
        )
        process.register(registration)
        self.trace.registered(process.pid, cid)
        return cycles

    def register_alias(
        self, process: Process, cid: int, target_cid: int
    ) -> int:
        """Map an additional CID onto an already-registered instruction.

        §4.2: "a custom instruction can have many ID tuples associated
        with it to facilitate sharing custom instructions" — the dispatch
        flexibility PRISC lacks.  Both CIDs resolve to the same circuit
        instance (and hence the same PFU); each gets its own TLB tuple.
        """
        cycles = self.config.syscall_cycles
        self.trace.cis_charge(-1, cycles)
        target = process.registration(target_cid)
        if target is None:
            self._kill(
                process,
                f"alias CID {cid} targets unregistered CID {target_cid}",
            )
        if cid in process.registrations:
            self._kill(process, f"CID {cid} already registered")
        process.registrations[cid] = target
        self.trace.registered(process.pid, cid)
        return cycles

    # ------------------------------------------------------------------
    # fault handling (Figure 1's "Fault" edge)
    # ------------------------------------------------------------------
    def handle_fault(self, process: Process, cid: int) -> tuple[int, str]:
        """Resolve a custom-instruction fault; returns (cycles, action).

        Raises :class:`ProcessKilled` when the CID was never registered.
        """
        config = self.config
        cycles = config.fault_entry_cycles
        registration = process.registrations.get(cid)
        if registration is None:
            self.trace.cis_charge(-1, cycles)
            self._kill(process, f"unregistered CID {cid}")
        key = IDTuple(process.pid, cid)
        engine = self.engine
        if engine is not None:
            # Install any speculative transfer that completed before this
            # fault; if it was for this very CID the mapping branch below
            # turns a full demand stall into a TLB update.
            self._prefetch_settle()

        # Mapping fault: loaded, but the tuple fell out of the TLB (§4.2).
        if registration.pfu_index is not None:
            self.coprocessor.dispatch.map_hardware(key, registration.pfu_index)
            cycles += config.tlb_update_cycles
            self.trace.mapping_fault(process.pid, cid)
            if registration.prefetched:
                # The prefetch fully hid the transfer: the stall shrank
                # from a configuration load to a mapping fault.
                self.trace.prefetch_hit(
                    process.pid, cid, registration.pfu_index,
                    registration.prefetched,
                )
                registration.prefetched = 0
            if engine is not None:
                self._maybe_prefetch(process, cid, cycles)
            self.trace.cis_charge(-1, cycles)
            return cycles, "mapping"

        entry = engine.entry if engine is not None else None
        if entry is not None and entry["pid"] == process.pid:
            pfu = self.coprocessor.pfus.pfu(entry["pfu"])
            if entry["cid"] != cid:
                # The process went somewhere the model did not predict:
                # abandon the speculative stream deterministically.
                self._cancel_prefetch(process.pid, "mispredict")
            elif pfu.configured or self._quarantined(pfu.index):
                # The target was lost mid-flight (quarantine); fall
                # through to the reactive paths.
                self._cancel_prefetch(process.pid, "demand")
            else:
                # Partial hit: the predicted transfer for this CID is
                # still in flight — wait out the remainder instead of
                # paying the full transfer, then map as a load would.
                remaining = engine.remaining(self.trace.now())
                engine.cancel()
                self._load_into(pfu, registration, key, demand=False)
                self.coprocessor.dispatch.map_hardware(key, pfu.index)
                cycles += remaining + config.tlb_update_cycles
                self.trace.prefetch_hit(
                    process.pid, cid, pfu.index,
                    max(0, entry["total"] - remaining),
                )
                self.trace.load_fault(process.pid, cid)
                self._maybe_prefetch(process, cid, cycles)
                self.trace.cis_charge(-1, cycles)
                return cycles, "prefetch"

        # One walk over the bank finds both the free PFU and the
        # configured ones every later step chooses from.  A free slot
        # always beats sharing: paying one static transfer now is cheaper
        # than serialising processes onto a single shared PFU while
        # others sit idle.
        free, configured = self._scan(registration)
        if free is not None:
            cycles += config.cis_decision_cycles
            cycles += self._load_into(free, registration, key)
            self.trace.load_fault(process.pid, cid)
            if engine is not None:
                self._maybe_prefetch(process, cid, cycles)
            self.trace.cis_charge(-1, cycles)
            return cycles, "load"

        # Array full but another process's instance of the same circuit
        # is resident — swap only the state section instead of moving
        # 54 KB of static configuration (§4.2, §5.1).
        if config.allow_sharing:
            shared = self._find_shareable(registration, configured)
            if shared is not None:
                cycles += self._share_pfu(shared, registration, key)
                if engine is not None:
                    self._maybe_prefetch(process, cid, cycles)
                self.trace.cis_charge(-1, cycles)
                return cycles, "share"

        # Array full: evict a victim and load — unless a software
        # alternative is registered and preferred.  Quarantined PFUs are
        # not eviction candidates, and neither is a PFU pinned by an
        # in-flight speculative transfer — but demand always wins over
        # speculation: if pins leave nothing evictable, the prefetch is
        # cancelled and its target reclaimed for a plain demand load.
        # Once every PFU is quarantined the machine has no serviceable
        # fabric left, so degrade to the software alternative if one
        # exists and kill otherwise.
        soft = registration.soft_address is not None
        candidates: list[PFU] = []
        if not soft or not (
            config.prefer_software_when_full or registration.soft_mapped
        ):
            cycles += self.policy.decision_cycles(config)
            candidates = (
                configured if self.predictor is None
                else self._victim_candidates(configured)
            )
            if not candidates and engine is not None and (
                engine.entry is not None
            ):
                self._cancel_prefetch(process.pid, "demand")
                free, configured = self._scan(registration)
                if free is not None:
                    cycles += self._load_into(free, registration, key)
                    self.trace.load_fault(process.pid, cid)
                    self.trace.cis_charge(-1, cycles)
                    return cycles, "load"
                candidates = self._victim_candidates(configured)
        if not candidates:
            if soft:
                cycles += self._defer(registration, key)
                self.trace.cis_charge(-1, cycles)
                return cycles, "soft"
            self.trace.cis_charge(-1, cycles)
            self._kill(
                process,
                f"CID {cid} unserviceable: every PFU is quarantined and "
                "no software alternative is registered",
            )
        victim = self.policy.choose(candidates, self.coprocessor.pfus)
        cycles += self._evict(victim)
        cycles += self._load_into(victim, registration, key)
        self.trace.load_fault(process.pid, cid)
        if engine is not None:
            self._maybe_prefetch(process, cid, cycles)
        self.trace.cis_charge(-1, cycles)
        return cycles, "swap"

    # ------------------------------------------------------------------
    # process exit
    # ------------------------------------------------------------------
    def process_exit(self, process: Process) -> int:
        """Release a dead process's circuits and mappings; returns cycles."""
        cycles = self.config.cis_decision_cycles
        if self.engine is not None and self.engine.entry is not None and (
            self.engine.entry["pid"] == process.pid
        ):
            self._cancel_prefetch(process.pid, "exit")
        if self.predictor is not None:
            self.predictor.forget(process.pid)
        freed: list[int] = []
        for registration in process.registrations.values():
            if registration.prefetched:
                # Installed speculatively but never issued before exit.
                self.trace.prefetch_wasted(
                    process.pid, registration.cid,
                    registration.pfu_index
                    if registration.pfu_index is not None else -1,
                )
                registration.prefetched = 0
            if registration.pfu_index is not None:
                pfu_index = registration.pfu_index
                name = registration.instance.bitstream.name
                self.coprocessor.unload_circuit(pfu_index, keep_static=True)
                registration.pfu_index = None
                self.owners[pfu_index] = None
                self.trace.circuit_unload(process.pid, pfu_index, name)
                freed.append(pfu_index)
        self.coprocessor.dispatch.unmap_pid(process.pid)
        if self.config.promote_on_free:
            for pfu_index in freed:
                cycles += self._promote_into(pfu_index)
        self.trace.cis_charge(-1, cycles)
        return cycles

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _quarantined(self, pfu_index: int) -> bool:
        return (
            self.injector is not None
            and pfu_index in self.injector.quarantined
        )

    def _usable(self, pfu_index: int) -> bool:
        """In service, and not pinned by an in-flight speculative
        transfer: the PFUs every placement search may pick."""
        if self.injector is None and self.engine is None:
            return True
        return not self._quarantined(pfu_index) and not (
            self.engine is not None and self.engine.pinned(pfu_index)
        )

    def _scan(
        self, registration: Registration
    ) -> tuple[PFU | None, list[PFU]]:
        """One read of the bank for placing ``registration``: the free
        PFU a load should take, and the configured PFUs in index order.

        Only :meth:`_usable` PFUs count.  The free PFU is the first one
        whose region still holds this circuit's static image when the
        reuse optimisation is enabled, else the lowest-numbered one.  The
        configured list feeds the share search and
        :meth:`_victim_candidates`; its index order is the order every
        replacement policy receives its candidates in.
        """
        pfus = self.coprocessor.pfus.pfus
        if self.injector is not None or self.engine is not None:
            # _usable's own early return, hoisted out of the walk.
            usable = self._usable
            pfus = [pfu for pfu in pfus if usable(pfu.index)]
        configured: list[PFU] = []
        free = None
        for pfu in pfus:
            if pfu.instance is not None:
                configured.append(pfu)
            elif free is None:
                free = pfu
        if free is not None and self.config.reuse_resident_static:
            wanted = registration.instance.bitstream.name
            regions = self.coprocessor.array.regions
            for pfu in pfus:
                resident = regions[pfu.index].resident
                if pfu.instance is None and resident is not None and (
                    resident.name == wanted
                ):
                    return pfu, configured
        return free, configured

    def _victim_candidates(self, configured: list[PFU]) -> list[PFU]:
        """The configured PFUs (from :meth:`_scan`) the replacement
        policy may evict from.

        Quarantined PFUs and PFUs pinned by an in-flight prefetch were
        never scanned in.  With a predictor active, residents predicted
        to be a live process's next circuit are preferred *against*
        eviction — but only as a soft filter: when every candidate is
        predicted-hot the unfiltered set is used, so demand loads never
        starve on account of predictions.
        """
        if self.predictor is not None and configured:
            cold = [
                pfu for pfu in configured if not self._predicted_hot(pfu)
            ]
            if cold:
                return cold
        return configured

    def _predicted_hot(self, pfu: PFU) -> bool:
        """Is the resident circuit its owner's predicted-next issue?"""
        instance = pfu.instance
        if instance is None:
            return False
        owner = self.processes.get(instance.pid)
        if owner is None or not owner.alive:
            return False
        hot = self.predictor.predicted(instance.pid)
        if hot is None:
            return False
        registration = owner.registration(hot)
        return registration is not None and registration.instance is instance

    def _charged_transfer(self, nbytes: int) -> int:
        """Cycles to move ``nbytes`` over the configuration port as
        *demand* traffic.

        The single point every demand-side transfer charge flows through
        (`_load_into`, `_evict`, scrub repairs, quarantine saves).  The
        bus is time-shared with absolute demand priority: when a
        speculative transfer is in flight, it stalls for exactly these
        cycles (see :meth:`TransferEngine.demand_traffic`), so demand
        accounting is identical with prefetch on, off, or absent.
        """
        cycles = self.config.transfer_cycles(nbytes)
        if self.engine is not None:
            self.engine.demand_traffic(cycles)
        return cycles

    def _load_into(
        self,
        pfu: PFU,
        registration: Registration,
        key: IDTuple,
        reuse_static: bool | None = None,
        demand: bool = True,
    ) -> int:
        """Transfer ``registration``'s circuit into ``pfu`` and record it
        resident there; returns cycles.

        The one landing path.  A demand load charges its transfer (and,
        under a fault plan, the checksum retries) and maps ``key`` to
        the PFU.  A speculative transfer already streamed over idle bus
        cycles (``demand=False``) is charged nothing and lands unmapped;
        its caller maps it if a fault is waiting on it.
        """
        index = pfu.index
        instance = registration.instance
        coprocessor = self.coprocessor
        moved = coprocessor.load_circuit(index, instance, reuse_static)
        cycles = 0
        injector = self.injector
        if demand:
            cycles = (
                self._charged_transfer(moved) + self.config.tlb_update_cycles
            )
        if demand and injector is not None:
            # Configuration transfers can fail their section checksum;
            # retry with bounded backoff.  Exhausting the retries means
            # accepting the corrupt image — the region then carries a
            # live configuration upset for the scrubber to find.
            attempt = 0
            while injector.transfer_fails():
                attempt += 1
                self.trace.fault_injected(key.pid, "transfer", index)
                if attempt > injector.plan.max_load_retries:
                    injector.force_upset(index)
                    break
                self.trace.fault_detected(
                    key.pid, "transfer", index, "checksum"
                )
                retry_cost = (
                    self.config.cis_decision_cycles * attempt
                    + self._charged_transfer(moved)
                )
                cycles += retry_cost
                self.trace.fault_recovered(
                    key.pid, "transfer", index, "retry", retry_cost
                )
        registration.pfu_index = index
        registration.soft_mapped = False
        registration.loads += 1
        self.owners[index] = registration
        # ``load_circuit`` always moves the state section, and the
        # static image only when it was not still resident.
        bitstream = instance.bitstream
        state_bytes = bitstream.state_bytes
        self.trace.circuit_load(
            key.pid, key.cid, index, bitstream.name,
            moved - state_bytes, state_bytes,
        )
        if demand:
            coprocessor.dispatch.map_hardware(key, index)
        return cycles

    def _defer(self, registration: Registration, key: IDTuple) -> int:
        """Map a (PID, CID) tuple to its software alternative instead of
        loading the circuit; returns cycles."""
        self.coprocessor.dispatch.map_software(key, registration.soft_address)
        self.trace.soft_defer(key.pid, key.cid, registration.soft_mapped)
        registration.soft_mapped = True
        return self.config.tlb_update_cycles

    def _evict(self, victim: PFU, keep_static: bool = True) -> int:
        """Save a victim circuit's state off the array and mark its
        registration off it; returns cycles.

        ``keep_static=False`` is a quarantine: the retiring region keeps
        no image, and the saved state is not exposed to the injector's
        saved-state upsets.  Alias CIDs share one :class:`Registration`,
        so one eviction counts once.
        """
        instance = victim.instance
        if instance is None:
            raise KernelError(f"evicting empty PFU {victim.index}")
        index = victim.index
        __, state_bytes = self.coprocessor.unload_circuit(index, keep_static)
        if keep_static and self.injector is not None and (
            self.injector.corrupt_saved_state(instance)
        ):
            # Corruption strikes after the save-time checksum: silent
            # until the reloaded circuit produces a wrong result.
            self.trace.fault_injected(instance.pid, "state", index)
        self.trace.circuit_evict(
            instance.pid, index, instance.bitstream.name, state_bytes
        )
        registration = self.owners[index]
        if registration is not None:
            self.owners[index] = None
            registration.pfu_index = None
            registration.evictions += 1
            if registration.prefetched:
                # A completed prefetch evicted before first use moved
                # 54 KB for nothing.
                self.trace.prefetch_wasted(
                    instance.pid, registration.cid, index
                )
                registration.prefetched = 0
        return self._charged_transfer(state_bytes)

    def _find_shareable(
        self, registration: Registration, configured: list[PFU]
    ) -> PFU | None:
        """The first configured PFU (from :meth:`_scan`) running an idle
        instance of the same circuit."""
        wanted = registration.instance.spec.name
        for pfu in configured:
            if pfu.instance.spec.name == wanted and not pfu.instance.busy:
                return pfu
        return None

    def _share_pfu(
        self, pfu: PFU, registration: Registration, key: IDTuple
    ) -> int:
        """Swap only circuit state to hand a PFU to another process."""
        cycles = self.config.cis_decision_cycles
        cycles += self._evict(pfu)
        cycles += self._load_into(pfu, registration, key, reuse_static=True)
        self.trace.state_swap(key.pid, key.cid, pfu.index)
        return cycles

    def _promote_into(self, pfu_index: int) -> int:
        """Promote a software-deferred circuit into a freed PFU (§5.1.3)."""
        pfu = self.coprocessor.pfus.pfu(pfu_index)
        if pfu.configured or not self._usable(pfu_index):
            return 0
        for process in self.processes.values():
            if not process.alive:
                continue
            for registration in process.registrations.values():
                if not (
                    registration.soft_mapped
                    and registration.pfu_index is None
                    and registration.instance.spec.promotable
                ):
                    # Stateful streaming circuits stay on the software
                    # path once deferred: their in-fabric state (tap
                    # history, phase machine) would not match the state
                    # the software alternative accumulated in memory.
                    continue
                key = IDTuple(pid=process.pid, cid=registration.cid)
                cycles = self._load_into(pfu, registration, key)
                self.trace.circuit_promote(process.pid, registration.cid, pfu_index)
                return cycles
        return 0

    # ------------------------------------------------------------------
    # speculative prefetch (see repro.prefetch)
    # ------------------------------------------------------------------
    def prefetch_tick(self, process: Process | None = None) -> int:
        """Quantum-boundary hook of the transfer engine; returns 0.

        Settles a completed speculative transfer and — when the bus is
        idle and ``process`` (the process whose quantum just ended) is
        predicted to switch circuits soon — starts streaming its next
        bitstream.  Both cost the running process nothing: the bytes
        move during bus cycles nobody is waiting on.
        """
        if self.engine is None:
            return 0
        self._prefetch_settle()
        if process is not None and process.alive:
            cid = self.predictor.last_cid(process.pid)
            if cid is not None:
                self._maybe_prefetch(process, cid, 0)
        return 0

    def _prefetch_settle(self) -> None:
        """Install the in-flight transfer if its stream has completed.

        The circuit lands configured but *unmapped*: the owner's next
        issue takes a mapping fault (a TLB update) instead of a full
        configuration load.  A target invalidated mid-flight (owner
        died, registration satisfied elsewhere, PFU occupied or
        quarantined) is dropped deterministically.
        """
        engine = self.engine
        entry = engine.entry
        if entry is None or engine.remaining(self.trace.now()) > 0:
            return
        process = self.processes.get(entry["pid"])
        registration = (
            process.registration(entry["cid"])
            if process is not None and process.alive
            else None
        )
        if registration is None or registration.pfu_index is not None:
            engine.cancel()
            return
        pfu = self.coprocessor.pfus.pfu(entry["pfu"])
        if pfu.configured or self._quarantined(pfu.index):
            self._cancel_prefetch(entry["pid"], "demand")
            return
        # Streamed on idle bus cycles: no transfer charge, and no
        # injector retry loop (a failed speculative checksum would simply
        # re-stream; modelling it as free keeps the injector's RNG stream
        # demand-only).
        engine.cancel()
        key = IDTuple(pid=entry["pid"], cid=entry["cid"])
        self._load_into(pfu, registration, key, demand=False)
        registration.prefetched = entry["total"]

    def _cancel_prefetch(self, pid: int, reason: str) -> None:
        """Abandon the in-flight speculative transfer, traced against
        ``pid`` (the process whose action cancelled it)."""
        entry = self.engine.cancel()
        self.trace.prefetch_cancelled(pid, entry["cid"], entry["pfu"], reason)

    def _maybe_prefetch(self, process: Process, cid: int, charged: int) -> None:
        """After resolving a fault on ``cid``, consider streaming the
        predicted-next bitstream during upcoming idle bus cycles.

        ``charged`` is the cycle cost of the fault just handled: the bus
        is busy with demand traffic for that long, so the speculative
        stream starts once it drains.  Issuing is free for every process
        — the whole point is to spend cycles nobody is waiting on.
        """
        engine = self.engine
        if engine is None or engine.entry is not None:
            return
        if not self.predictor.due(process.pid, cid):
            # Mid-run: the process will re-dispatch this same circuit for
            # a while yet, so streaming its successor now would only
            # steal a PFU someone is using (see TransitionModel.due).
            return
        prediction = self.predictor.predict_next(process.pid, cid)
        if prediction is None:
            return
        next_cid = prediction[0]
        registration = process.registration(next_cid)
        if registration is None or registration.pfu_index is not None or (
            registration.soft_mapped
        ):
            return
        total = self.config.transfer_cycles(
            registration.instance.bitstream.static_bytes
            + registration.instance.bitstream.state_bytes
        )
        target, configured = self._scan(registration)
        if target is None:
            if not self.predictor.plan.steal_victims:
                return
            current = process.registration(cid)
            candidates = [
                pfu
                for pfu in self._victim_candidates(configured)
                if pfu.instance is not None
                and not pfu.instance.busy
                and not (
                    current is not None
                    and pfu.instance is current.instance
                )
            ]
            if not candidates:
                return
            target = self.policy.choose(candidates, self.coprocessor.pfus)
            # The victim's state moves out over the same shared bus
            # before the speculative stream starts; fold it into the
            # transfer total so nobody is charged for speculation.
            total += self._evict(target)
        engine.start(
            process.pid, next_cid, target.index, total,
            self.trace.now() + charged,
        )
        self.trace.prefetch_issued(process.pid, next_cid, target.index, total)

    # ------------------------------------------------------------------
    # fabric fault recovery (see repro.faults)
    # ------------------------------------------------------------------
    def handle_fabric_fault(
        self, process: Process, fault: "FabricFault"
    ) -> tuple[int, str]:
        """Recover from a parity-detected fabric fault; returns
        (cycles, action).

        The recovery policy comes from the fault plan: ``reload``
        re-transfers the configuration image, ``fallback`` degrades the
        (PID, CID) mapping to its software alternative through the
        dispatch TLB — the paper-native graceful-degradation path —
        and ``quarantine`` retires the PFU once it accumulates enough
        strikes.  Transient datapath glitches below the quarantine
        threshold simply squash the corrupt result and re-issue.
        """
        if self.injector is None:
            raise KernelError("fabric fault with no fault plan active")
        pfu_index = fault.pfu_index
        repair, action = self._recover(
            pfu_index, reload=fault.kind == "config"
        )
        cycles = self.config.fault_entry_cycles + repair
        self.trace.fault_recovered(
            process.pid, fault.kind, pfu_index, action, cycles
        )
        self.trace.cis_charge(-1, cycles)
        return cycles, action

    def scrub_fabric(self, process: Process) -> int:
        """Checksum-verify every region and repair corrupt ones.

        The periodic scrub is what catches configuration upsets whose
        corrupted results escape the parity check (even-weight masks) or
        that strike idle circuits.  Repair follows the plan's recovery
        policy.  Charged to the process whose quantum the scrub ran in,
        like any other kernel housekeeping.
        """
        injector = self.injector
        if injector is None:
            return 0
        cycles = injector.plan.scrub_check_cycles * len(self.coprocessor.array)
        for pfu_index in injector.upset_regions():
            self.trace.fault_detected(
                process.pid, "config", pfu_index, "scrub"
            )
            repair, action = self._recover(pfu_index, reload=True)
            cycles += repair
            self.trace.fault_recovered(
                process.pid, "config", pfu_index, action, repair
            )
        self.trace.cis_charge(-1, cycles)
        return cycles

    def _recover(self, pfu_index: int, reload: bool) -> tuple[int, str]:
        """Strike ``pfu_index`` and repair it; returns (cycles, action).

        The one recovery decision for trap-time faults and the scrub:
        quarantine once the PFU has enough strikes, else degrade the
        resident circuit to software, else reload the image when
        ``reload`` applies (a configuration upset), else squash the
        result and retry.
        """
        plan = self.injector.plan
        strikes = self.injector.strike(pfu_index)
        if plan.recovery == "quarantine" and (
            strikes >= plan.quarantine_strikes
        ):
            return self._quarantine_pfu(pfu_index), "quarantine"
        target = self._fallback_target(pfu_index)
        if plan.recovery == "fallback" and target is not None:
            return self._fallback(*target), "fallback"
        if reload:
            return self._reload_region(pfu_index), "reload"
        return self.config.cis_decision_cycles, "retry"

    def _fallback_target(
        self, pfu_index: int
    ) -> tuple[Process, Registration] | None:
        """The live owner + registration of the circuit on ``pfu_index``,
        provided it has a software alternative to degrade to."""
        instance = self.coprocessor.pfus.pfu(pfu_index).instance
        if instance is None:
            return None
        owner = self.processes.get(instance.pid)
        if owner is None or not owner.alive:
            return None
        for registration in owner.registrations.values():
            if registration.instance is instance and (
                registration.soft_address is not None
            ):
                return owner, registration
        return None

    def _fallback(self, process: Process, registration: Registration) -> int:
        """Degrade a registration to its software alternative."""
        cycles = self.config.cis_decision_cycles
        pfu_index = registration.pfu_index
        if pfu_index is not None:
            instance = self.coprocessor.pfus.pfu(pfu_index).instance
            if instance is not None and instance.busy:
                # Abandon the in-flight invocation: the software
                # alternative re-executes the instruction from scratch.
                instance.busy = False
                instance.cycles_done = 0
            self.coprocessor.unload_circuit(pfu_index, keep_static=False)
            if self.injector is not None:
                self.injector.clear_region(pfu_index)
            registration.pfu_index = None
            self.owners[pfu_index] = None
            registration.evictions += 1
            self.trace.circuit_unload(
                process.pid, pfu_index, registration.instance.bitstream.name
            )
        key = IDTuple(pid=process.pid, cid=registration.cid)
        self.coprocessor.dispatch.map_software(key, registration.soft_address)
        registration.soft_mapped = True
        cycles += self.config.tlb_update_cycles
        return cycles

    def _reload_region(self, pfu_index: int) -> int:
        """Scrub-and-reload a region's configuration image in place."""
        cycles = self.config.cis_decision_cycles
        region = self.coprocessor.array.region(pfu_index)
        if region.resident is not None:
            cycles += self._charged_transfer(region.resident.static_bytes)
        if self.injector is not None:
            self.injector.clear_region(pfu_index)
        return cycles

    def _quarantine_pfu(self, pfu_index: int) -> int:
        """Retire a PFU from service; its circuit (if any) is saved off
        so replacement can place it elsewhere on the next issue."""
        cycles = self.config.cis_decision_cycles
        engine = self.engine
        if engine is not None and engine.pinned(pfu_index):
            # The fabric under the in-flight speculative stream just
            # went bad; abandon the transfer before retiring the PFU.
            self._cancel_prefetch(engine.entry["pid"], "demand")
        pfu = self.coprocessor.pfus.pfu(pfu_index)
        pid = -1
        if pfu.configured:
            pid = pfu.instance.pid
            cycles += self._evict(pfu, keep_static=False)
        else:
            region = self.coprocessor.array.region(pfu_index)
            if region.resident is not None:
                region.unload()
            self.coprocessor.dispatch.unmap_pfu(pfu_index)
        self.injector.quarantine(pfu_index)
        self.trace.pfu_quarantined(pid, pfu_index)
        return cycles

    def _kill(self, process: Process, reason: str) -> None:
        self.trace.cis_kill(process.pid)
        raise ProcessKilled(pid=process.pid, reason=reason)
