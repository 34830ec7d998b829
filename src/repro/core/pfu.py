"""Programmable Function Units with interruptible execution (paper §4.4, §4.5).

Each PFU presents the two-in/one-out register interface plus two control
signals: *init* in and *completion* out.  A 1-bit status register feeds the
completion signal back into init:

* on reset the status register holds 1, so the first issue of an
  instruction sees init high and starts fresh;
* while the instruction runs the status register holds 0;
* if the instruction is interrupted, re-issuing it finds init low and the
  circuit simply continues — the application never knows.

Each PFU also carries a usage counter, incremented when an instruction
*completes* (not when it starts, so interrupted-and-reissued instructions
count once).  The OS reads and clears these counters to drive replacement
policies such as LRU and second chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import PFUError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .circuit import CircuitInstance

MASK32 = 0xFFFFFFFF


def parity32(value: int) -> int:
    """Parity bit of a 32-bit word — the PFU result port's parity tree.

    The coprocessor checks result parity on every completion when fault
    injection is active; an odd-weight corruption flips the parity bit
    and is caught, an even-weight corruption escapes silently (the
    classic limitation of single-bit parity).
    """
    value &= 0xFFFFFFFF
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


@dataclass
class PFU:
    """One programmable function unit slot."""

    index: int
    clb_capacity: int
    instance: CircuitInstance | None = None
    #: The 1-bit init/done status register (1 = idle/done, 0 = in flight).
    status: int = 1
    #: Completion counter, read-and-cleared by the OS (§4.5).
    usage_counter: int = 0
    #: Lifetime statistics for the evaluation harness.
    total_busy_cycles: int = 0
    total_completions: int = 0

    # ---- configuration side -------------------------------------------------
    @property
    def configured(self) -> bool:
        return self.instance is not None

    def load(self, instance: CircuitInstance) -> None:
        """Install a circuit instance (static + state already transferred).

        The status register is set from the restored execution context: a
        circuit evicted mid-instruction resumes with init low.
        """
        if instance.spec.clb_count > self.clb_capacity:
            raise PFUError(
                f"circuit {instance.spec.name!r} needs "
                f"{instance.spec.clb_count} CLBs; PFU {self.index} has "
                f"{self.clb_capacity}"
            )
        self.instance = instance
        self.status = 0 if instance.busy else 1

    def unload(self) -> CircuitInstance:
        """Remove the current instance (its state was snapshotted first)."""
        if self.instance is None:
            raise PFUError(f"PFU {self.index} is already empty")
        instance = self.instance
        self.instance = None
        self.status = 1
        return instance

    # ---- datapath side ----------------------------------------------------
    def step(
        self,
        a: int,
        b: int,
        max_cycles: int,
        fault: Callable[[PFU, int], int] | None = None,
    ) -> tuple[int, int | None]:
        """Run one custom instruction on this PFU for at most
        ``max_cycles`` (>= 0): the whole datapath work of one CDP issue.

        With status 1 this is a fresh start (init pulses high and the
        operands latch); with status 0 it is a transparent continuation
        of an interrupted instruction and the operands are ignored,
        because the latched values are part of the preserved CLB state.
        The circuit is asked once for its latency and compute function.
        If the budget runs out first the instruction is interrupted (its
        context stays in the instance, status low); otherwise it
        completes: the result is computed, the status register goes high
        and the usage counter counts it.  Either way each field is
        written once.

        ``fault``, if given, is called as ``fault(pfu, needed)`` just
        before a completion computes, with the instruction marked in
        flight so that the hook may step it again; it returns an XOR
        mask for the result (0 for none) or raises, in which case
        nothing completes.

        Returns ``(cycles_consumed, result)`` where ``result`` is
        ``None`` if the instruction did not complete.
        """
        instance = self.instance
        if instance is None:
            raise PFUError(f"PFU {self.index} has no circuit loaded")
        if self.status:
            a &= MASK32
            b &= MASK32
            instance.latched_a = a
            instance.latched_b = b
            done = 0
        elif instance.busy:
            a = instance.latched_a
            b = instance.latched_b
            done = instance.cycles_done
        else:
            raise PFUError(
                f"PFU {self.index}: status low but no invocation in flight"
            )
        state = instance.state
        latency, compute = instance.spec.behaviour.select(a, b, state)
        needed = latency - done
        if max_cycles < needed:
            instance.busy = True
            instance.cycles_done = done + max_cycles
            self.status = 0
            self.total_busy_cycles += max_cycles
            return max_cycles, None
        if needed < 0:
            needed = 0
        if fault is None:
            result = compute(a, b, state) & MASK32
        else:
            instance.busy = True
            instance.cycles_done = done
            self.status = 0
            mask = fault(self, needed)
            result = (compute(a, b, state) ^ mask) & MASK32
        instance.busy = False
        instance.cycles_done = 0
        instance.completions += 1
        self.status = 1
        self.usage_counter += 1
        self.total_busy_cycles += needed
        self.total_completions += 1
        return needed, result

    # ---- OS side --------------------------------------------------------------
    def read_and_clear_usage(self) -> int:
        """Read the completion counter and reset it (§4.5)."""
        count = self.usage_counter
        self.usage_counter = 0
        return count

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        """Scalar PFU state.  The resident instance is identified and
        re-attached by the machine facade, which owns instance identity."""
        return {
            "status": self.status,
            "usage_counter": self.usage_counter,
            "total_busy_cycles": self.total_busy_cycles,
            "total_completions": self.total_completions,
        }

    def restore(
        self, state: dict, instance: CircuitInstance | None = None
    ) -> None:
        self.instance = instance
        self.status = state["status"]
        self.usage_counter = state["usage_counter"]
        self.total_busy_cycles = state["total_busy_cycles"]
        self.total_completions = state["total_completions"]


@dataclass
class PFUBank:
    """The coprocessor's array of PFUs."""

    pfus: list[PFU] = field(default_factory=list)

    @classmethod
    def build(cls, pfu_count: int, pfu_clbs: int) -> "PFUBank":
        if pfu_count <= 0:
            raise PFUError("at least one PFU required")
        return cls(
            pfus=[PFU(index=i, clb_capacity=pfu_clbs) for i in range(pfu_count)]
        )

    def __len__(self) -> int:
        return len(self.pfus)

    def __iter__(self):
        return iter(self.pfus)

    def pfu(self, index: int) -> PFU:
        if not 0 <= index < len(self.pfus):
            raise PFUError(f"no PFU {index}")
        return self.pfus[index]

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {"pfus": [pfu.snapshot() for pfu in self.pfus]}

    def restore(
        self, state: dict, instances: list[CircuitInstance | None] | None = None
    ) -> None:
        saved = state["pfus"]
        if len(saved) != len(self.pfus):
            raise PFUError("PFU bank snapshot does not match geometry")
        if instances is None:
            instances = [None] * len(self.pfus)
        for pfu, entry, instance in zip(self.pfus, saved, instances):
            pfu.restore(entry, instance)
