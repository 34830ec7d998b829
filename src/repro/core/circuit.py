"""Custom-instruction circuits: behavioural models plus metadata.

A *circuit* is what an application registers with the operating system
under a process-unique Circuit ID (CID).  In the Proteus model a circuit
presents the standard two-word-in / one-word-out PFU interface, may take
many cycles, and may keep a small amount of state in CLB registers.

We separate three notions:

* :class:`CircuitBehaviour` — the functional + timing model (what real
  hardware description would synthesise to);
* :class:`CircuitSpec` — behaviour plus resource metadata (CLB budget,
  state words) and the generated configuration bitstream;
* :class:`CircuitInstance` — one process's live instance, carrying its
  architectural state words and the execution context needed to resume an
  interrupted invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..config import MachineConfig
from ..errors import PFUError
from ..fabric.bitstream import Bitstream, build_bitstream
from ..state import Snapshotable
from .pfu import PFU

MASK32 = 0xFFFFFFFF

#: Words of execution context appended to every state section: the busy
#: flag, the completed-cycle count, and the two latched operands.  These
#: live in CLB registers so an in-flight instruction survives eviction.
EXECUTION_CONTEXT_WORDS = 4


#: ``compute(a, b, state) -> result``: may mutate ``state`` in place.
Compute = Callable[[int, int, list[int]], int]


class CircuitBehaviour(Protocol):
    """Functional and timing model of a custom instruction.

    The PFU asks it one question per issue or continuation:
    :meth:`select`.
    """

    def select(
        self, a: int, b: int, state: list[int]
    ) -> tuple[int, Compute]:
        """``(latency, compute)`` for these operands: the cycles from
        init to completion, and the function the PFU calls once, when
        the instruction completes, to produce the result (the PFU masks
        it to 32 bits)."""


@dataclass(frozen=True)
class FunctionBehaviour:
    """Adapter building a :class:`CircuitBehaviour` from plain callables.

    ``fn(a, b, state) -> result`` and either a fixed latency or a callable
    ``latency_fn(a, b, state) -> cycles``.
    """

    fn: Compute
    fixed_latency: int = 1
    latency_fn: Callable[[int, int, list[int]], int] | None = None

    def select(
        self, a: int, b: int, state: list[int]
    ) -> tuple[int, Compute]:
        if self.latency_fn is not None:
            return max(1, self.latency_fn(a, b, state)), self.fn
        return max(1, self.fixed_latency), self.fn


@dataclass(frozen=True)
class CircuitSpec:
    """A registrable custom instruction: behaviour + resources + bitstream."""

    name: str
    behaviour: CircuitBehaviour
    clb_count: int
    app_state_words: int = 0
    initial_state: tuple[int, ...] = ()
    #: True when the hardware circuit and a software alternative may be
    #: swapped mid-stream (the circuit's state words are constants, so
    #: no history is lost).  Stateful streaming circuits (tap histories,
    #: phase machines) must stay on one dispatch path once running; the
    #: CIS only re-promotes software-deferred circuits with this set.
    promotable: bool = True

    def __post_init__(self) -> None:
        if self.clb_count <= 0:
            raise PFUError(f"{self.name}: circuit needs at least one CLB")
        if self.app_state_words < 0:
            raise PFUError(f"{self.name}: negative state word count")
        if len(self.initial_state) > self.app_state_words:
            raise PFUError(
                f"{self.name}: initial state longer than declared state"
            )

    @property
    def state_words(self) -> int:
        """Total state words, including the execution context (§4.4)."""
        return self.app_state_words + EXECUTION_CONTEXT_WORDS

    def build_bitstream(self, config: MachineConfig, seed: int = 0) -> Bitstream:
        """Generate the configuration image sized per the machine config."""
        return build_bitstream(
            name=self.name,
            clb_count=self.clb_count,
            state_words=self.state_words,
            static_bytes=config.config_bytes_for(self.clb_count),
            state_bytes=max(
                self.state_words * 4,
                config.state_bytes_for(self.state_words),
            ),
            seed=seed,
        )

    def instantiate(
        self, pid: int, config: MachineConfig, seed: int = 0
    ) -> "CircuitInstance":
        """Create a fresh per-process instance of this circuit."""
        return CircuitInstance(
            spec=self,
            pid=pid,
            bitstream=self.build_bitstream(config, seed=seed),
        )

    @classmethod
    def compose(
        cls,
        name: str,
        graph,
        *,
        clb_count: int | None = None,
        latency=None,
        app_state_words: int = 0,
        initial_state: tuple[int, ...] = (),
        promotable: bool = True,
    ) -> "CircuitSpec":
        """Build a spec from an FU element graph (or phase machine).

        ``graph`` is an :class:`~repro.fabric.elements.ElementGraph` or
        :class:`~repro.fabric.elements.PhaseMachine`; its behaviour is
        compiled from the element menu and its CLB count and latency
        default to the library's cost-model estimates.  Pass explicit
        ``clb_count``/``latency`` to record a hand floorplan — apps that
        pipeline or share resources beyond what the estimator assumes
        override both, which keeps their bitstreams (a pure function of
        name, CLBs and state words) byte-identical to the hand-written
        originals.
        """
        if graph.max_state_index() >= app_state_words:
            raise PFUError(
                f"{name}: graph touches state word "
                f"{graph.max_state_index()}, only {app_state_words} declared"
            )
        return cls(
            name=name,
            behaviour=graph.as_behaviour(latency),
            clb_count=(
                clb_count if clb_count is not None else graph.clb_estimate()
            ),
            app_state_words=app_state_words,
            initial_state=initial_state,
            promotable=promotable,
        )


@dataclass
class CircuitInstance(Snapshotable):
    """A live, per-process instance of a circuit.

    The instance owns the architectural state words (e.g. a blend factor
    or delay-line coefficient loaded via the state section) and the
    execution context of any in-flight invocation.  The paper's final
    system would share instances between processes using the same circuit
    by swapping only state; :class:`repro.kernel.cis` supports that when
    ``MachineConfig.allow_sharing`` is set.

    A snapshot saves the state section as :meth:`capture_words` packs it
    (``words``) beside the completion count.
    """

    STATE = ("completions",)

    spec: CircuitSpec
    pid: int
    bitstream: Bitstream
    state: list[int] = field(default_factory=list)
    # Execution context (persisted across eviction via the state section).
    busy: bool = False
    cycles_done: int = 0
    latched_a: int = 0
    latched_b: int = 0
    #: Total invocations completed over the instance lifetime (statistic;
    #: the architecturally visible counter lives in the PFU).
    completions: int = 0

    def __post_init__(self) -> None:
        if not self.state:
            self.state = list(self.spec.initial_state) + [0] * (
                self.spec.app_state_words - len(self.spec.initial_state)
            )
        if len(self.state) != self.spec.app_state_words:
            raise PFUError(
                f"{self.spec.name}: state has {len(self.state)} words, "
                f"spec declares {self.spec.app_state_words}"
            )

    # ---- standalone invocation ----------------------------------------------
    # The datapath runs an instance through :meth:`PFU.step`; these run
    # the same primitive on a detached slot, for models and tests that
    # hold an instance outside any PFU.
    def begin(self, a: int, b: int) -> int:
        """Latch operands for a fresh invocation; returns total latency."""
        if self.busy:
            raise PFUError(
                f"{self.spec.name}: begin() while an invocation is in flight"
            )
        self._slot().step(a, b, 0)
        return self.remaining_cycles()

    def remaining_cycles(self) -> int:
        """Cycles still needed to complete the in-flight invocation."""
        if not self.busy:
            raise PFUError(f"{self.spec.name}: no invocation in flight")
        total, _ = self.spec.behaviour.select(
            self.latched_a, self.latched_b, self.state
        )
        return max(0, total - self.cycles_done)

    def advance(self, cycles: int) -> int | None:
        """Clock the circuit for up to ``cycles``; return result if done.

        Returns the 32-bit result when the invocation completes within the
        budget, else ``None`` (instruction interrupted, context retained).
        """
        if cycles < 0:
            raise PFUError("cannot advance by negative cycles")
        if not self.busy:
            raise PFUError(f"{self.spec.name}: no invocation in flight")
        return self._slot().step(0, 0, cycles)[1]

    def _slot(self) -> PFU:
        """A PFU holding only this instance, its status set to match."""
        return PFU(
            index=-1,
            clb_capacity=self.spec.clb_count,
            instance=self,
            status=0 if self.busy else 1,
        )

    # ---- state movement (eviction / restore) -----------------------------
    def capture_words(self) -> list[int]:
        """All CLB-register words: app state then execution context."""
        return list(self.state) + [
            1 if self.busy else 0,
            self.cycles_done & MASK32,
            self.latched_a,
            self.latched_b,
        ]

    def restore_words(self, words: list[int]) -> None:
        if len(words) != self.spec.state_words:
            raise PFUError(
                f"{self.spec.name}: restore expects "
                f"{self.spec.state_words} words, got {len(words)}"
            )
        split = self.spec.app_state_words
        # A state section may come off a fault-corrupted snapshot: clamp
        # every word to the 32 bits a CLB register can actually hold, and
        # refuse a negative completed-cycle count outright — otherwise
        # out-of-range values flow straight into compute()/advance().
        self.state = [word & MASK32 for word in words[:split]]
        busy_flag, cycles_done, latched_a, latched_b = words[split:split + 4]
        if cycles_done < 0:
            raise PFUError(
                f"{self.spec.name}: negative cycles_done in state section"
            )
        self.busy = bool(busy_flag)
        self.cycles_done = cycles_done & MASK32
        self.latched_a = latched_a & MASK32
        self.latched_b = latched_b & MASK32

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        return {"words": self.capture_words(), **super().snapshot()}

    def restore(self, state: dict) -> None:
        self.restore_words(state["words"])
        super().restore(state)
