"""Process memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.memory import Memory
from repro.errors import MemoryFault


def mem() -> Memory:
    return Memory(size=4096, guard_below=0x100)


class TestWordAccess:
    def test_store_load(self):
        m = mem()
        m.store_word(0x200, 0xDEADBEEF)
        assert m.load_word(0x200) == 0xDEADBEEF

    def test_little_endian(self):
        m = mem()
        m.store_word(0x200, 0x11223344)
        assert m.load_byte(0x200) == 0x44
        assert m.load_byte(0x203) == 0x11

    def test_values_masked(self):
        m = mem()
        m.store_word(0x200, -1)
        assert m.load_word(0x200) == 0xFFFFFFFF

    def test_unaligned_rejected(self):
        m = mem()
        with pytest.raises(MemoryFault, match="unaligned"):
            m.load_word(0x201)
        with pytest.raises(MemoryFault, match="unaligned"):
            m.store_word(0x202, 0)


class TestByteAccess:
    def test_store_load(self):
        m = mem()
        m.store_byte(0x305, 0xAB)
        assert m.load_byte(0x305) == 0xAB

    def test_byte_masked(self):
        m = mem()
        m.store_byte(0x305, 0x1FF)
        assert m.load_byte(0x305) == 0xFF


class TestProtection:
    def test_guard_page(self):
        m = mem()
        with pytest.raises(MemoryFault, match="guard"):
            m.load_word(0)
        with pytest.raises(MemoryFault, match="guard"):
            m.store_byte(0xFF, 1)

    def test_out_of_bounds(self):
        m = mem()
        with pytest.raises(MemoryFault):
            m.load_word(4096)
        with pytest.raises(MemoryFault):
            m.store_word(4094, 0)  # word straddles the end

    def test_code_space_not_mapped(self):
        from repro.cpu.isa import CODE_BASE

        with pytest.raises(MemoryFault):
            mem().load_word(CODE_BASE)

    def test_size_must_exceed_guard(self):
        with pytest.raises(MemoryFault):
            Memory(size=0x100, guard_below=0x100)


class TestBulk:
    def test_write_read_block(self):
        m = mem()
        m.write_block(0x200, b"hello")
        assert m.read_block(0x200, 5) == b"hello"

    def test_read_words(self):
        m = mem()
        m.store_word(0x200, 1)
        m.store_word(0x204, 2)
        assert m.read_words(0x200, 2) == [1, 2]

    def test_read_words_matches_sequential_loads(self):
        m = mem()
        for i in range(16):
            m.store_word(0x200 + 4 * i, (i * 0x01010101) & 0xFFFFFFFF)
        assert m.read_words(0x200, 16) == [
            m.load_word(0x200 + 4 * i) for i in range(16)
        ]

    def test_read_words_non_positive_count(self):
        assert mem().read_words(0x200, 0) == []
        assert mem().read_words(0x200, -3) == []

    @given(
        address=st.integers(min_value=0, max_value=4200),
        count=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=150)
    def test_read_words_fault_parity_with_load_loop(self, address, count):
        """The bulk path raises exactly the fault (address and message)
        that ``count`` sequential ``load_word`` calls would raise —
        or returns exactly their values when none faults."""
        m = mem()
        try:
            expected = [m.load_word(address + 4 * i) for i in range(count)]
        except MemoryFault as fault:
            with pytest.raises(MemoryFault) as caught:
                m.read_words(address, count)
            assert caught.value.address == fault.address
            assert str(caught.value) == str(fault)
        else:
            assert m.read_words(address, count) == expected

    def test_restore_round_trip(self):
        m = mem()
        m.store_word(0x200, 0xDEADBEEF)
        other = mem()
        other.restore(m.snapshot())
        assert other.load_word(0x200) == 0xDEADBEEF

    @pytest.mark.parametrize("field, value", [("size", 8192),
                                              ("guard_below", 0x200)])
    def test_restore_rejects_a_different_layout(self, field, value):
        """Compiled code binds the backing store and its bounds, so a
        snapshot may refill the bytes but never move size or guard."""
        m = mem()
        state = m.snapshot()
        state[field] = value
        with pytest.raises(MemoryFault, match="does not match layout"):
            m.restore(state)
        assert (m.size, m.guard_below) == (4096, 0x100)

    def test_stack_top_word_aligned(self):
        assert Memory(size=4094).stack_top % 4 == 0

    @given(
        address=st.integers(min_value=0x100, max_value=4092).map(lambda a: a & ~3),
        value=st.integers(min_value=0, max_value=0xFFFFFFFF),
    )
    @settings(max_examples=100)
    def test_store_load_roundtrip(self, address, value):
        m = mem()
        m.store_word(address, value)
        assert m.load_word(address) == value
