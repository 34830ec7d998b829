"""FPL array regions and placement."""

import pytest

from repro.errors import PlacementError
from repro.fabric.array import FPLArray
from repro.fabric.bitstream import build_bitstream


def bs(name="c1", clbs=100, state_words=2):
    return build_bitstream(name, clbs, state_words, 512, 32)


class TestArray:
    def test_build(self):
        array = FPLArray.build(4, 500)
        assert len(array) == 4

    def test_build_rejects_zero(self):
        with pytest.raises(PlacementError):
            FPLArray.build(0, 500)

    def test_region_bounds(self):
        array = FPLArray.build(2, 500)
        with pytest.raises(PlacementError):
            array.region(2)


class TestRegion:
    def test_load_static_returns_bytes(self):
        array = FPLArray.build(1, 500)
        assert array.region(0).load_static(bs()) == 512

    def test_oversized_circuit_rejected(self):
        array = FPLArray.build(1, 50)
        with pytest.raises(PlacementError):
            array.region(0).load_static(bs(clbs=100))

    def test_load_state_requires_static(self):
        array = FPLArray.build(1, 500)
        with pytest.raises(PlacementError):
            array.region(0).load_state(bs())

    def test_load_state_name_must_match(self):
        array = FPLArray.build(1, 500)
        region = array.region(0)
        region.load_static(bs("c1"))
        with pytest.raises(PlacementError):
            region.load_state(bs("c2"))

    def test_load_state_returns_bytes(self):
        array = FPLArray.build(1, 500)
        region = array.region(0)
        stream = bs("c1")
        region.load_static(stream)
        moved = region.load_state(stream)
        assert moved == stream.state_bytes

    def test_unload_frees_region(self):
        array = FPLArray.build(1, 500)
        region = array.region(0)
        region.load_static(bs())
        region.unload()
        assert region.is_free
