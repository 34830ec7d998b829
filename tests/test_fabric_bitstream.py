"""Bitstream format: the static/state split of §4.1."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitstreamError
from repro.fabric.array import PFURegion
from repro.fabric.bitstream import (
    Bitstream,
    build_bitstream,
    flip_bit,
    parse_bitstream,
)


def sample(state_words: int = 4) -> Bitstream:
    return build_bitstream(
        name="sample",
        clb_count=100,
        state_words=state_words,
        static_bytes=1024,
        state_bytes=max(64, state_words * 4),
        seed=1,
    )


class TestConstruction:
    def test_sizes(self):
        bs = sample()
        assert bs.static_bytes == 1024
        assert bs.state_bytes == 64
        assert bs.total_bytes == 1088

    def test_stateful_flag(self):
        assert sample(4).is_stateful
        assert not sample(0).is_stateful

    def test_deterministic_static_section(self):
        assert sample().static_section == sample().static_section

    def test_different_names_differ(self):
        other = build_bitstream("other", 100, 0, 1024, 64)
        assert other.static_section != sample().static_section

    def test_rejects_zero_clbs(self):
        with pytest.raises(BitstreamError):
            build_bitstream("x", 0, 0, 16, 16)

    def test_rejects_empty_static(self):
        with pytest.raises(BitstreamError):
            build_bitstream("x", 1, 0, 0, 16)

    def test_rejects_undersized_state_section(self):
        with pytest.raises(BitstreamError):
            build_bitstream("x", 1, 8, 16, 16)


class TestStateMovement:
    def test_snapshot_size_is_declared_state_size(self):
        """State transfers move whole frames, so the cost is constant."""
        bs = sample(4)
        assert len(bs.state_section) == bs.state_bytes
        region = PFURegion(index=0, clb_capacity=bs.clb_count)
        region.load_static(bs)
        assert region.load_state(bs) == bs.state_bytes
        assert region.load_state(bs) == bs.state_bytes

    def test_state_is_far_smaller_than_static(self):
        """The point of the split: context switches move the small part."""
        bs = sample(4)
        assert bs.state_bytes * 10 < bs.static_bytes


class TestSerialisation:
    def test_roundtrip(self):
        bs = sample()
        parsed = parse_bitstream(bs.serialise())
        assert parsed == bs

    def test_roundtrip_preserves_flags(self):
        bs = build_bitstream(
            "flagged", 10, 0, 64, 0, uses_iobs=True, mux_routing=False
        )
        parsed = parse_bitstream(bs.serialise())
        assert parsed.uses_iobs
        assert not parsed.mux_routing

    def test_truncated_rejected(self):
        blob = sample().serialise()
        with pytest.raises(BitstreamError):
            parse_bitstream(blob[:-10])

    def test_bad_magic_rejected(self):
        blob = bytearray(sample().serialise())
        blob[0] ^= 0xFF
        with pytest.raises(BitstreamError):
            parse_bitstream(bytes(blob))

    def test_corrupted_static_section_rejected(self):
        blob = bytearray(sample().serialise())
        blob[60] ^= 0x01  # somewhere inside the static payload
        with pytest.raises(BitstreamError):
            parse_bitstream(bytes(blob))

    def test_foreign_section_with_valid_checksum_rejected(self):
        """Intact checksums are not enough: the payload must be the one
        the header's recipe generates."""
        bs = sample()
        blob = bs.serialise()
        foreign = build_bitstream("other", 100, 4, 1024, 64).static_section
        start = blob.index(bs.static_section)
        forged = (
            blob[:start - 8]
            + hashlib.sha256(foreign).digest()[:8]
            + foreign
            + blob[start + len(foreign):]
        )
        with pytest.raises(BitstreamError, match="recipe"):
            parse_bitstream(forged)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(BitstreamError):
            parse_bitstream(sample().serialise() + b"\x00")

    @given(
        static_bytes=st.integers(min_value=1, max_value=512),
        state_words=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, static_bytes, state_words, seed):
        bs = build_bitstream(
            "prop", 10, state_words, static_bytes,
            max(8, state_words * 4), seed=seed,
        )
        assert parse_bitstream(bs.serialise()) == bs


class TestSingleEventUpsets:
    """Any single-bit flip of a serialised image is detected, never
    silently parsed back as the original circuit (and never crashes
    with anything other than :class:`BitstreamError`)."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_single_bit_flip_never_silent(self, data):
        state_words = data.draw(st.integers(0, 6), label="state_words")
        static_bytes = data.draw(st.integers(1, 256), label="static_bytes")
        seed = data.draw(st.integers(0, 100), label="seed")
        blob = build_bitstream(
            "seu", 10, state_words, static_bytes,
            max(8, state_words * 4), seed=seed,
        ).serialise()
        bit = data.draw(st.integers(0, len(blob) * 8 - 1), label="bit")

        corrupted = flip_bit(blob, bit)
        assert corrupted != blob
        try:
            parsed = parse_bitstream(corrupted)
        except BitstreamError:
            return  # detected — the expected outcome for this format
        # Tolerated only if the difference is *visible*: a parse that
        # reproduces the original bytes would be a silent corruption.
        assert parsed.serialise() != blob

    def test_every_bit_of_a_small_image(self):
        blob = build_bitstream("dense", 4, 1, 16, 8, seed=3).serialise()
        for bit in range(len(blob) * 8):
            with pytest.raises(BitstreamError):
                parse_bitstream(flip_bit(blob, bit))

    def test_flip_restores_on_double_application(self):
        blob = sample().serialise()
        assert flip_bit(flip_bit(blob, 77), 77) == blob

    @pytest.mark.parametrize("bit", [-1, 10**9])
    def test_flip_out_of_range(self, bit):
        with pytest.raises(BitstreamError):
            flip_bit(sample().serialise(), bit)
