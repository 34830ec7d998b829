"""Replacement policies (§4.5, §5.1.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adder_spec
from repro.config import MachineConfig
from repro.core.pfu import PFUBank
from repro.errors import KernelError
from repro.kernel.replacement import (
    LRUReplacement,
    POLICY_NAMES,
    RandomReplacement,
    RoundRobinReplacement,
    SecondChanceReplacement,
    make_policy,
)

CONFIG = MachineConfig()


def loaded_bank(count: int = 4) -> PFUBank:
    bank = PFUBank.build(count, 500)
    for index in range(count):
        bank.pfu(index).load(adder_spec(f"c{index}").instantiate(1, CONFIG))
    return bank


def complete_one(bank: PFUBank, index: int) -> None:
    bank.pfu(index).step(1, 2, 100)


class TestFactory:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_make_policy(self, name):
        assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(KernelError):
            make_policy("clairvoyant")


class TestRoundRobin:
    def test_cycles_through_pfus(self):
        policy = RoundRobinReplacement()
        bank = loaded_bank()
        picks = [policy.choose(list(bank), bank).index for _ in range(6)]
        assert picks == [0, 1, 2, 3, 0, 1]

    def test_skips_non_candidates(self):
        policy = RoundRobinReplacement()
        bank = loaded_bank()
        candidates = [bank.pfu(1), bank.pfu(3)]
        picks = [policy.choose(candidates, bank).index for _ in range(4)]
        assert picks == [1, 3, 1, 3]

    def test_reset(self):
        policy = RoundRobinReplacement()
        bank = loaded_bank()
        policy.choose(list(bank), bank)
        policy.reset()
        assert policy.choose(list(bank), bank).index == 0

    def test_no_candidates_rejected(self):
        with pytest.raises(KernelError):
            RoundRobinReplacement().choose([], loaded_bank())


class TestRandom:
    def test_deterministic_with_seed(self):
        bank = loaded_bank()
        seq_a = [
            make_policy("random", seed=5).choose(list(bank), bank).index
            for _ in range(1)
        ]
        seq_b = [
            make_policy("random", seed=5).choose(list(bank), bank).index
            for _ in range(1)
        ]
        assert seq_a == seq_b

    def test_covers_all_candidates_eventually(self):
        policy = RandomReplacement()
        bank = loaded_bank()
        picks = {policy.choose(list(bank), bank).index for _ in range(100)}
        assert picks == {0, 1, 2, 3}


class TestLRU:
    def test_untouched_pfu_evicted_first(self):
        policy = LRUReplacement()
        bank = loaded_bank()
        complete_one(bank, 0)
        complete_one(bank, 2)
        policy.choose(list(bank), bank)  # observes usage
        complete_one(bank, 0)
        victim = policy.choose(list(bank), bank)
        assert victim.index in (1, 3)  # never used

    def test_recency_ordering(self):
        policy = LRUReplacement()
        bank = loaded_bank()
        # Touch each PFU in its own observation epoch.
        for index in (3, 1, 0, 2):
            complete_one(bank, index)
            policy.choose([bank.pfu(0)], bank)  # observation only
        victim = policy.choose(list(bank), bank)
        assert victim.index == 3  # least recently completed

    def test_decision_cost_includes_counter_reads(self):
        policy = LRUReplacement()
        plain = RoundRobinReplacement()
        assert policy.decision_cycles(CONFIG) > plain.decision_cycles(CONFIG)


class TestSecondChance:
    def test_referenced_pfus_get_second_chance(self):
        policy = SecondChanceReplacement()
        bank = loaded_bank()
        complete_one(bank, 0)  # PFU 0 referenced
        victim = policy.choose(list(bank), bank)
        assert victim.index == 1  # 0 spared, hand moves on

    def test_eventually_picks_previously_referenced(self):
        policy = SecondChanceReplacement()
        bank = loaded_bank()
        for index in range(4):
            complete_one(bank, index)
        victim = policy.choose(list(bank), bank)
        # All referenced: first sweep clears, second sweep picks.
        assert victim.index in range(4)

    def test_reset_clears_hand_and_bits(self):
        policy = SecondChanceReplacement()
        bank = loaded_bank()
        complete_one(bank, 0)
        policy.choose(list(bank), bank)
        policy.reset()
        victim = policy.choose(list(bank), bank)
        assert victim.index == 0

    def test_fallback_respects_hand_position(self):
        """When every candidate's reference bit stays set, the fallback
        must evict at the hand (advancing it), not pin candidates[0]."""

        class StickyBits(dict):
            # Reference bits that refuse to clear: models candidates
            # being re-referenced concurrently with the sweep.
            def __setitem__(self, key, value):
                if value:
                    super().__setitem__(key, value)

        policy = SecondChanceReplacement()
        bank = loaded_bank()
        policy._referenced = StickyBits(
            {index: True for index in range(len(bank))}
        )
        policy._hand = 2
        victim = policy.choose(list(bank), bank)
        assert victim.index == 2  # the hand, not candidates[0]
        assert policy._hand == 3  # and the clock advanced past it

    def test_fallback_keeps_rotating(self):
        class StickyBits(dict):
            def __setitem__(self, key, value):
                if value:
                    super().__setitem__(key, value)

        policy = SecondChanceReplacement()
        bank = loaded_bank()
        policy._referenced = StickyBits(
            {index: True for index in range(len(bank))}
        )
        picks = [policy.choose(list(bank), bank).index for _ in range(5)]
        assert picks == [0, 1, 2, 3, 0]


@given(
    policy_name=st.sampled_from(POLICY_NAMES),
    candidate_indices=st.sets(
        st.integers(min_value=0, max_value=3), min_size=1
    ),
    rounds=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60)
def test_policy_always_returns_a_candidate(policy_name, candidate_indices, rounds):
    policy = make_policy(policy_name, seed=3)
    bank = loaded_bank()
    candidates = [bank.pfu(i) for i in sorted(candidate_indices)]
    for _ in range(rounds):
        victim = policy.choose(candidates, bank)
        assert victim.index in candidate_indices


class TestQuarantineExclusion:
    """The CIS filters quarantined PFUs out of the candidate list (fault
    recovery, §repro.faults); no policy may resurrect one — even when it
    looks like the most attractive victim."""

    QUARANTINED = 2

    def candidates(self, bank):
        return [pfu for pfu in bank if pfu.index != self.QUARANTINED]

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_never_selects_quarantined(self, name):
        policy = make_policy(name, seed=3)
        bank = loaded_bank()
        picks = [
            policy.choose(self.candidates(bank), bank).index
            for _ in range(12)
        ]
        assert self.QUARANTINED not in picks

    def test_lru_skips_quarantined_even_when_oldest(self):
        policy = LRUReplacement()
        bank = loaded_bank()
        # Every healthy PFU just completed work; the quarantined one is
        # idle, i.e. the perfect LRU victim — it still must not be picked.
        for index in range(len(bank)):
            if index != self.QUARANTINED:
                complete_one(bank, index)
        victim = policy.choose(self.candidates(bank), bank)
        assert victim.index != self.QUARANTINED

    def test_second_chance_skips_quarantined_when_all_referenced(self):
        policy = SecondChanceReplacement()
        bank = loaded_bank()
        # Pin every healthy PFU: all reference bits set.  The two-sweep
        # clock and its fallback must both stay inside the candidates.
        for index in range(len(bank)):
            if index != self.QUARANTINED:
                complete_one(bank, index)
        picks = [
            policy.choose(self.candidates(bank), bank).index
            for _ in range(8)
        ]
        assert self.QUARANTINED not in picks

    def test_all_quarantined_is_an_error_not_a_pick(self):
        policy = make_policy("round_robin")
        bank = loaded_bank()
        with pytest.raises(KernelError):
            policy.choose([], bank)
