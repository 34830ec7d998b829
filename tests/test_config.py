"""MachineConfig validation and derived quantities."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    MachineConfig,
    PAPER_CONFIG_BYTES,
    PAPER_PFU_COUNT,
)
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_CONFIG.pfu_count == PAPER_PFU_COUNT

    @pytest.mark.parametrize(
        "field",
        [
            "cycles_per_ms",
            "pfu_count",
            "pfu_clbs",
            "tlb_entries",
            "fpl_registers",
            "config_bytes_per_pfu",
            "config_bus_bytes_per_cycle",
        ],
    )
    def test_positive_fields_reject_zero(self, field):
        with pytest.raises(ConfigurationError):
            MachineConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field",
        ["context_switch_cycles", "fault_entry_cycles", "syscall_cycles"],
    )
    def test_cost_fields_reject_negative(self, field):
        with pytest.raises(ConfigurationError):
            MachineConfig(**{field: -1})

    def test_quantum_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(quantum_ms=0)

    def test_unknown_exec_tier_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_TIER", "closure")
        with pytest.raises(ConfigurationError, match=(
            r"^REPRO_EXEC_TIER='closure' is not an execution tier; "
            r"choose one of jit, block, step$"
        )):
            MachineConfig()


class TestDerivedQuantities:
    def test_quantum_cycles(self):
        config = MachineConfig(cycles_per_ms=1000, quantum_ms=10.0)
        assert config.quantum_cycles == 10_000

    def test_quantum_cycles_fractional(self):
        config = MachineConfig(cycles_per_ms=1000, quantum_ms=0.5)
        assert config.quantum_cycles == 500

    def test_quantum_cycles_never_zero(self):
        config = MachineConfig(cycles_per_ms=10, quantum_ms=0.001)
        assert config.quantum_cycles >= 1

    def test_full_pfu_config_is_54kb(self):
        config = MachineConfig()
        assert config.config_bytes_for(config.pfu_clbs) == PAPER_CONFIG_BYTES

    def test_config_bytes_scale_with_clbs(self):
        config = MachineConfig()
        half = config.config_bytes_for(config.pfu_clbs // 2)
        assert half == PAPER_CONFIG_BYTES // 2

    def test_config_bytes_floor_is_quarter_frame(self):
        config = MachineConfig()
        tiny = config.config_bytes_for(1)
        assert tiny == PAPER_CONFIG_BYTES // 4

    def test_state_bytes_include_overhead(self):
        config = MachineConfig()
        assert config.state_bytes_for(0) == config.state_section_overhead_bytes
        assert config.state_bytes_for(4) == (
            config.state_section_overhead_bytes + 4 * config.state_bytes_per_word
        )

    def test_transfer_cycles_round_up(self):
        config = MachineConfig(config_bus_bytes_per_cycle=4)
        assert config.transfer_cycles(4) == 1
        assert config.transfer_cycles(5) == 2
        assert config.transfer_cycles(0) == 0

    def test_paper_load_cost_dominates_a_1ms_quantum(self):
        """54 KB over a byte-wide port is over half of 1 ms at 100 MHz."""
        config = MachineConfig.paper_scale(quantum_ms=1.0)
        load = config.transfer_cycles(PAPER_CONFIG_BYTES)
        assert 0.4 < load / config.quantum_cycles < 0.7


class TestConstructors:
    def test_derive_overrides_one_field(self):
        derived = DEFAULT_CONFIG.derive(pfu_count=2)
        assert derived.pfu_count == 2
        assert derived.tlb_entries == DEFAULT_CONFIG.tlb_entries

    def test_derive_does_not_mutate_original(self):
        DEFAULT_CONFIG.derive(pfu_count=2)
        assert DEFAULT_CONFIG.pfu_count == PAPER_PFU_COUNT

    def test_paper_scale_clock(self):
        config = MachineConfig.paper_scale()
        assert config.cycles_per_ms == 100_000

    def test_interactive_quantum(self):
        config = MachineConfig.interactive()
        assert config.quantum_ms == 1.0

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.pfu_count = 8  # type: ignore[misc]
