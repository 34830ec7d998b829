"""Seeded fault injection for the FPL fabric (dependability campaigns).

Real configuration memories suffer single-event upsets; transfer buses
drop words; datapaths glitch.  The paper's (PID, CID) dispatch mechanism
exists precisely so the OS can keep running when a custom instruction
cannot be serviced in hardware (§3) — this module turns that
graceful-degradation story from implicit to measured.

A :class:`FaultPlan` describes an injection scenario: Bernoulli rates
per quantum (configuration upsets, datapath glitches), per-transfer and
per-save corruption rates, an optional explicit schedule, and the
recovery policy the kernel should apply.  The plan lives on
:class:`~repro.config.MachineConfig`; when it is ``None`` (the default)
no injector is built and the machine is bit-identical to an
injection-free build.

A :class:`FaultInjector` executes the plan with its **own** RNG stream
(never the workload or replacement-policy streams) and draws only at
tier-invariant architectural events — quantum boundaries, configuration
transfers, circuit evictions — so outcomes are bit-identical across the
jit/block/step execution tiers and across ``--jobs N`` parallel
sweeps.  It is ``Snapshotable``: checkpoint/resume under injection is
bit-identical to an uninterrupted run.

Fault model:

* **config** — a bit flip in a loaded region's configuration image.
  Corrupts every subsequent result from that PFU until repaired.
  Detected either by the per-issue result parity check (odd-weight
  corruption only) or by periodic checksum scrubbing.
* **datapath** — a transient glitch affecting one in-flight invocation.
* **transfer** — a configuration-load transfer failure, caught by the
  bitstream section checksums and retried with bounded backoff.
* **state** — a bit flip in a swapped-out circuit's saved state words;
  silent by construction (it happens after the save-time checksum).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ReproError
from .state import Snapshotable, decode_int_keys, encode_int_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.circuit import CircuitInstance
    from .core.coprocessor import ProteusCoprocessor

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "RECOVERY_POLICIES",
    "FAULT_KINDS",
    "plan_from_dict",
    "plan_to_dict",
]

#: Recovery policies the kernel can apply to a detected fabric fault.
RECOVERY_POLICIES = ("reload", "fallback", "quarantine")

#: Fault kinds a schedule entry may name.
FAULT_KINDS = ("config", "datapath")

_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class FaultPlan:
    """One injection scenario: what to inject, when, and how to recover.

    All rates are per-quantum (or per-event) Bernoulli probabilities in
    ``[0, 1]``; a rate of zero draws nothing from the RNG, so a purely
    schedule-driven plan is deterministic independent of the rates'
    stream positions.
    """

    #: Seed for the injector's private RNG stream.
    seed: int = 1
    #: Per-quantum probability of flipping a bit in a loaded region.
    config_upset_rate: float = 0.0
    #: Per-quantum probability of arming a transient datapath glitch.
    datapath_error_rate: float = 0.0
    #: Per-transfer probability that a configuration load fails its
    #: checksum and must be retried.
    transfer_error_rate: float = 0.0
    #: Per-eviction probability of corrupting the saved state words.
    state_upset_rate: float = 0.0
    #: Explicit ``(quantum, kind)`` injections, on top of the rates.
    schedule: tuple[tuple[int, str], ...] = ()
    #: Scrub the array every N quanta (0 disables scrubbing).
    scrub_interval_quanta: int = 0
    #: Check result parity on every PFU completion.
    parity_check: bool = True
    #: Kernel recovery policy: ``reload``, ``fallback`` or ``quarantine``.
    recovery: str = "reload"
    #: Give up retrying a failing configuration transfer after this many
    #: retries (the corrupt image is then accepted as a config upset).
    max_load_retries: int = 2
    #: Quarantine a PFU once it accumulates this many detected faults.
    quarantine_strikes: int = 3
    #: Scrub cost: checksum-verification cycles per region.
    scrub_check_cycles: int = 8

    def __post_init__(self) -> None:
        for name in (
            "config_upset_rate",
            "datapath_error_rate",
            "transfer_error_rate",
            "state_upset_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {rate!r}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ReproError(
                f"unknown recovery policy {self.recovery!r}; "
                f"choose from {RECOVERY_POLICIES}"
            )
        for at, kind in self.schedule:
            if kind not in FAULT_KINDS:
                raise ReproError(
                    f"schedule kind {kind!r} at quantum {at} not in "
                    f"{FAULT_KINDS}"
                )
            if at < 0:
                raise ReproError(f"schedule quantum must be >= 0, got {at}")
        if self.max_load_retries < 0:
            raise ReproError("max_load_retries must be >= 0")
        if self.quarantine_strikes < 1:
            raise ReproError("quarantine_strikes must be >= 1")
        if self.scrub_interval_quanta < 0:
            raise ReproError("scrub_interval_quanta must be >= 0")

    @property
    def enabled(self) -> bool:
        return bool(
            self.config_upset_rate
            or self.datapath_error_rate
            or self.transfer_error_rate
            or self.state_upset_rate
            or self.schedule
        )


def plan_to_dict(plan: FaultPlan) -> dict:
    """JSON-friendly form of a plan (tuples become lists)."""
    from dataclasses import asdict

    payload = asdict(plan)
    payload["schedule"] = [[at, kind] for at, kind in plan.schedule]
    return payload


def plan_from_dict(payload: dict) -> FaultPlan:
    """Rebuild a plan from :func:`plan_to_dict` output (or JSON)."""
    data = dict(payload)
    data["schedule"] = tuple(
        (int(at), str(kind)) for at, kind in data.get("schedule", ())
    )
    return FaultPlan(**data)


@dataclass
class FaultInjector(Snapshotable):
    """Executes a :class:`FaultPlan` against one machine.

    Keeps the ground truth of every live fault: ``upsets`` maps a region
    index to the accumulated XOR mask its configuration carries,
    ``armed`` holds pending one-shot datapath glitches, ``quarantined``
    the regions the kernel has retired.  Detection and recovery are the
    kernel's job — the injector only injects, answers queries, and
    counts what escaped.
    """

    STATE = ("quantum", "silent_corruptions", "state_corruptions")

    plan: FaultPlan
    rng: random.Random = field(init=False)
    #: Quanta started (drives rates, schedule, and the scrub clock).
    quantum: int = field(init=False, default=0)
    #: region index -> accumulated config-corruption XOR mask.
    upsets: dict[int, int] = field(init=False, default_factory=dict)
    #: pfu index -> one-shot datapath glitch mask for the next completion.
    armed: dict[int, int] = field(init=False, default_factory=dict)
    quarantined: set[int] = field(init=False, default_factory=set)
    #: pfu index -> detected faults attributed so far (strike counter).
    strikes: dict[int, int] = field(init=False, default_factory=dict)
    #: Corrupted results that escaped detection and reached a register.
    silent_corruptions: int = field(init=False, default=0)
    #: Saved-state words corrupted during an eviction.
    state_corruptions: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.plan.seed)

    # ------------------------------------------------------------------
    # injection (called once per quantum by the kernel)
    # ------------------------------------------------------------------
    def advance_quantum(
        self, coprocessor: "ProteusCoprocessor"
    ) -> list[tuple[str, int]]:
        """Start a quantum: apply scheduled and rate-drawn injections.

        Returns the ``(kind, target)`` pairs actually injected so the
        kernel can trace them.  Draw order is fixed — schedule entries,
        then the config rate, then the datapath rate — and zero rates
        draw nothing, which keeps the stream deterministic.
        """
        quantum = self.quantum
        self.quantum += 1
        injected: list[tuple[str, int]] = []
        for at, kind in self.plan.schedule:
            if at == quantum:
                target = self._inject(kind, coprocessor)
                if target is not None:
                    injected.append((kind, target))
        rate = self.plan.config_upset_rate
        if rate and self.rng.random() < rate:
            target = self._inject("config", coprocessor)
            if target is not None:
                injected.append(("config", target))
        rate = self.plan.datapath_error_rate
        if rate and self.rng.random() < rate:
            target = self._inject("datapath", coprocessor)
            if target is not None:
                injected.append(("datapath", target))
        return injected

    def _inject(
        self, kind: str, coprocessor: "ProteusCoprocessor"
    ) -> int | None:
        """Pick a target and inject; returns the target index or None.

        Target choice is drawn from the RNG only when the eligible set is
        non-empty — occupancy is itself deterministic, so the stream
        stays aligned across tiers and resume.
        """
        if kind == "config":
            candidates = [
                index
                for index in coprocessor.array.occupied_regions()
                if index not in self.quarantined
            ]
            if not candidates:
                return None
            index = self.rng.choice(candidates)
            mask = self.rng.randrange(1, 1 << 32)
            merged = self.upsets.get(index, 0) ^ mask
            if merged:
                self.upsets[index] = merged
            else:  # pragma: no cover - flip of a flip cancels out
                self.upsets.pop(index, None)
            return index
        candidates = [
            pfu.index
            for pfu in coprocessor.pfus
            if pfu.configured and pfu.index not in self.quarantined
        ]
        if not candidates:
            return None
        index = self.rng.choice(candidates)
        self.armed[index] = self.rng.randrange(1, 1 << 32)
        return index

    def scrub_due(self) -> bool:
        """True when the periodic scrub fires this quantum.

        Call after :meth:`advance_quantum` (the quantum counter is the
        number of quanta started).
        """
        interval = self.plan.scrub_interval_quanta
        return interval > 0 and self.quantum % interval == 0

    # ------------------------------------------------------------------
    # queries (called by the coprocessor / CIS; no RNG draws unless noted)
    # ------------------------------------------------------------------
    def completion_effect(self, pfu_index: int) -> tuple[str, int] | None:
        """Effect on the result now completing on ``pfu_index``.

        Returns ``(kind, xor_mask)`` or ``None``.  A pending datapath
        glitch is consumed; a config upset persists until repaired.
        Pure — consumes pre-armed state, never draws from the RNG.
        """
        mask = self.armed.pop(pfu_index, None)
        if mask is not None:
            return "datapath", mask
        mask = self.upsets.get(pfu_index)
        if mask is not None:
            return "config", mask
        return None

    def transfer_fails(self) -> bool:
        """Draw whether a configuration transfer fails its checksum."""
        rate = self.plan.transfer_error_rate
        return bool(rate) and self.rng.random() < rate

    def corrupt_saved_state(self, instance: "CircuitInstance") -> bool:
        """Maybe flip one bit in an evicted circuit's saved state words.

        Models corruption *after* the save-time checksum was computed, so
        it is silent until the wrong result surfaces.
        """
        rate = self.plan.state_upset_rate
        if not rate or self.rng.random() >= rate:
            return False
        words = instance.state
        if not words:
            return False
        index = self.rng.randrange(len(words))
        bit = self.rng.randrange(32)
        words[index] ^= 1 << bit
        self.state_corruptions += 1
        return True

    def force_upset(self, pfu_index: int) -> None:
        """Accept a corrupt configuration image (exhausted transfer
        retries) as a live config upset on the region."""
        mask = self.rng.randrange(1, 1 << 32)
        self.upsets[pfu_index] = self.upsets.get(pfu_index, 0) ^ mask

    def upset_regions(self) -> list[int]:
        """Regions currently carrying config corruption (scrub targets)."""
        return sorted(self.upsets)

    # ------------------------------------------------------------------
    # recovery bookkeeping
    # ------------------------------------------------------------------
    def strike(self, pfu_index: int) -> int:
        """Attribute one detected fault to a PFU; returns its new count."""
        count = self.strikes.get(pfu_index, 0) + 1
        self.strikes[pfu_index] = count
        return count

    def clear_region(self, pfu_index: int) -> None:
        """Forget live faults on a repaired / vacated region."""
        self.upsets.pop(pfu_index, None)
        self.armed.pop(pfu_index, None)

    def quarantine(self, pfu_index: int) -> None:
        self.quarantined.add(pfu_index)
        self.clear_region(pfu_index)

    def is_quarantined(self, pfu_index: int) -> bool:
        return pfu_index in self.quarantined

    # ---- machine-state protocol -------------------------------------------
    def snapshot(self) -> dict:
        version, internal, gauss = self.rng.getstate()
        return {
            "rng": [version, list(internal), gauss],
            "upsets": encode_int_keys(self.upsets),
            "armed": encode_int_keys(self.armed),
            "quarantined": sorted(self.quarantined),
            "strikes": encode_int_keys(self.strikes),
            **super().snapshot(),
        }

    def restore(self, state: dict) -> None:
        version, internal, gauss = state["rng"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.upsets = decode_int_keys(state["upsets"])
        self.armed = decode_int_keys(state["armed"])
        self.quarantined = set(state["quarantined"])
        self.strikes = decode_int_keys(state["strikes"])
        super().restore(state)
