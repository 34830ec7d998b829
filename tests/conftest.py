"""Shared fixtures for the test suite.

Tests run on a heavily scaled machine (small quanta, fast config port)
so whole-workload runs finish in milliseconds while exercising the same
code paths as the full experiments.
"""

from __future__ import annotations

import pytest

from repro.config import EXEC_TIERS, MachineConfig
from repro.core.circuit import CircuitSpec, FunctionBehaviour
from repro.core.coprocessor import ProteusCoprocessor
from repro.kernel.porsche import Porsche
from repro.kernel.replacement import make_policy


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path, monkeypatch):
    """Keep tests hermetic: never read or write the repo's sweep cache,
    and never discover (or squat on) a developer's serve daemon."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))
    monkeypatch.setenv("REPRO_SERVE_SOCKET", str(tmp_path / "serve.sock"))


@pytest.fixture
def config() -> MachineConfig:
    """A small, fast machine: 4 PFUs, short quanta, quick config port."""
    return MachineConfig(
        cycles_per_ms=1000,
        quantum_ms=1.0,
        config_bus_bytes_per_cycle=512,
        context_switch_cycles=10,
        fault_entry_cycles=5,
        tlb_update_cycles=2,
        cis_decision_cycles=5,
        syscall_cycles=5,
    )


@pytest.fixture
def coprocessor(config) -> ProteusCoprocessor:
    return ProteusCoprocessor(config=config)


@pytest.fixture
def kernel(config) -> Porsche:
    return Porsche(config)


def same_on_every_tier(monkeypatch, run):
    """Call ``run()`` under each exec tier and demand one answer.

    Returns the ``step`` reference's value for further checks.
    """
    results = {}
    for tier in EXEC_TIERS:
        monkeypatch.setenv("REPRO_EXEC_TIER", tier)
        results[tier] = run()
    for tier in EXEC_TIERS:
        assert results[tier] == results["step"], tier
    return results["step"]


def make_kernel(config: MachineConfig, policy_name: str = "round_robin") -> Porsche:
    return Porsche(config, make_policy(policy_name, seed=7))


def adder_spec(
    name: str = "adder",
    latency: int = 3,
    clbs: int = 100,
    state_words: int = 0,
    promotable: bool = True,
) -> CircuitSpec:
    """A trivial custom instruction: rd = rn + rm after ``latency`` cycles."""
    return CircuitSpec(
        name=name,
        behaviour=FunctionBehaviour(
            fn=lambda a, b, state: (a + b) & 0xFFFFFFFF,
            fixed_latency=latency,
        ),
        clb_count=clbs,
        app_state_words=state_words,
        initial_state=(0,) * state_words,
        promotable=promotable,
    )


def counter_spec(name: str = "counter", latency: int = 2) -> CircuitSpec:
    """A stateful circuit: returns and increments an internal counter."""

    def fn(a: int, b: int, state: list[int]) -> int:
        state[0] = (state[0] + 1) & 0xFFFFFFFF
        return state[0]

    return CircuitSpec(
        name=name,
        behaviour=FunctionBehaviour(fn=fn, fixed_latency=latency),
        clb_count=50,
        app_state_words=1,
        initial_state=(0,),
        promotable=False,
    )
