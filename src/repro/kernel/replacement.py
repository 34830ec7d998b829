"""Circuit replacement policies for the CIS (paper §4.5, §5.1.1).

When a circuit must be loaded and no PFU is free, the CIS picks a victim.
The paper's experiments use **round robin** and **random** selection; §4.5
adds per-PFU usage counters precisely so the OS can also implement
"classic scheduling algorithms such as Least Recently Used (LRU), Second
Chance, etc." — both are provided here and exercised by the ablation
benchmarks.

Policies see only what the hardware exposes: the candidate PFUs and the
read-and-clear usage counters.  Counter reads are charged per
:attr:`~repro.config.MachineConfig.usage_read_cycles`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from ..config import MachineConfig
from ..core.pfu import PFU, PFUBank
from ..errors import KernelError
from ..state import Snapshotable, decode_int_keys, encode_int_keys


class ReplacementPolicy(Snapshotable, ABC):
    """Strategy interface for victim selection (stateless by default)."""

    #: Short name used by experiment configuration and reports.
    name: str = "abstract"

    @abstractmethod
    def choose(self, candidates: list[PFU], bank: PFUBank) -> PFU:
        """Pick the PFU whose circuit will be evicted.

        ``candidates`` are PFUs of ``bank`` in index order, as the CIS's
        bank walk yields them.
        """

    def decision_cycles(self, config: MachineConfig) -> int:
        """Kernel cycles charged for making one decision."""
        return config.cis_decision_cycles

    def reset(self) -> None:
        """Forget history (new experiment run)."""


def _require_candidates(candidates: list[PFU]) -> None:
    if not candidates:
        raise KernelError("replacement invoked with no candidate PFUs")


@dataclass
class RoundRobinReplacement(ReplacementPolicy):
    """Cycle a pointer over the PFU indices (paper §5.1.1).

    The paper observes this interacts badly with the round-robin *process*
    scheduler: processes tend to lose their circuits right after a context
    switch.
    """

    STATE = ("_hand",)

    name: str = field(default="round_robin", init=False)
    _hand: int = 0

    def choose(self, candidates: list[PFU], bank: PFUBank) -> PFU:
        _require_candidates(candidates)
        # The candidates come in index order, so the first one at or
        # past the hand is the one the hand reaches first; with none
        # there, it wraps round to the lowest.
        hand = self._hand
        for victim in candidates:
            if victim.index >= hand:
                break
        else:
            victim = candidates[0]
        index = victim.index
        count = len(bank.pfus)
        if not 0 <= index < count:
            raise KernelError("round-robin replacement found no candidate")
        self._hand = (index + 1) % count
        return victim

    def reset(self) -> None:
        self._hand = 0


@dataclass
class RandomReplacement(ReplacementPolicy):
    """Uniform random victim (paper §5.1.1)."""

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    name: str = field(default="random", init=False)

    def choose(self, candidates: list[PFU], bank: PFUBank) -> PFU:
        _require_candidates(candidates)
        return self.rng.choice(candidates)

    def snapshot(self) -> dict:
        version, internal, gauss_next = self.rng.getstate()
        return {"rng": [version, list(internal), gauss_next]}

    def restore(self, state: dict) -> None:
        version, internal, gauss_next = state["rng"]
        # JSON round-trips tuples as lists; setstate() wants tuples back.
        self.rng.setstate((version, tuple(internal), gauss_next))


@dataclass
class _CounterTrackingPolicy(ReplacementPolicy):
    """Shared machinery for policies driven by the usage counters (§4.5).

    On every decision the kernel reads-and-clears each PFU's completion
    counter (cost: one read per PFU) and updates its recency/reference
    bookkeeping from the observed counts.
    """

    STATE = ("_time",)

    _last_used: dict[int, int] = field(default_factory=dict)
    _referenced: dict[int, bool] = field(default_factory=dict)
    _time: int = 0

    def _observe(self, bank: PFUBank) -> None:
        self._time += 1
        for pfu in bank:
            count = pfu.read_and_clear_usage()
            if count > 0:
                self._last_used[pfu.index] = self._time
                self._referenced[pfu.index] = True

    def decision_cycles(self, config: MachineConfig) -> int:
        return (
            config.cis_decision_cycles
            + config.usage_read_cycles * config.pfu_count
        )

    def reset(self) -> None:
        self._last_used.clear()
        self._referenced.clear()
        self._time = 0

    def snapshot(self) -> dict:
        return {
            "last_used": encode_int_keys(self._last_used),
            "referenced": encode_int_keys(self._referenced),
            **super().snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._last_used = decode_int_keys(state["last_used"])
        self._referenced = decode_int_keys(state["referenced"])
        super().restore(state)


@dataclass
class LRUReplacement(_CounterTrackingPolicy):
    """Evict the least recently used circuit, judged by usage counters."""

    name: str = field(default="lru", init=False)

    def choose(self, candidates: list[PFU], bank: PFUBank) -> PFU:
        _require_candidates(candidates)
        self._observe(bank)
        return min(
            candidates, key=lambda pfu: self._last_used.get(pfu.index, 0)
        )


@dataclass
class SecondChanceReplacement(_CounterTrackingPolicy):
    """Clock algorithm over the PFUs using counter-derived reference bits."""

    STATE = ("_time", "_hand")

    name: str = field(default="second_chance", init=False)
    _hand: int = 0

    def choose(self, candidates: list[PFU], bank: PFUBank) -> PFU:
        _require_candidates(candidates)
        self._observe(bank)
        candidate_indices = {pfu.index for pfu in candidates}
        # Two sweeps guarantee termination: the first clears reference
        # bits, the second must find an unreferenced candidate.
        for _ in range(2 * len(bank)):
            index = self._hand
            self._hand = (self._hand + 1) % len(bank)
            if index not in candidate_indices:
                continue
            if self._referenced.get(index, False):
                self._referenced[index] = False
                continue
            return bank.pfu(index)
        # All candidates kept their reference bits set concurrently; fall
        # back to the first candidate at or after the hand, advancing it,
        # so the clock keeps rotating instead of pinning candidates[0].
        for _ in range(len(bank)):
            index = self._hand
            self._hand = (self._hand + 1) % len(bank)
            if index in candidate_indices:
                return bank.pfu(index)
        raise KernelError("second-chance replacement found no candidate")

    def reset(self) -> None:
        super().reset()
        self._hand = 0


#: Registry used by experiment configuration.
POLICY_NAMES = ("round_robin", "random", "lru", "second_chance")


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    if name == "round_robin":
        return RoundRobinReplacement()
    if name == "random":
        return RandomReplacement(rng=random.Random(seed))
    if name == "lru":
        return LRUReplacement()
    if name == "second_chance":
        return SecondChanceReplacement()
    raise KernelError(
        f"unknown replacement policy {name!r}; choose from {POLICY_NAMES}"
    )
