"""The FPL unit register file."""

import pytest

from repro.core.regfile import FPLRegisterFile
from repro.errors import CheckpointError, DispatchError


class TestRegisterFile:
    def test_starts_zeroed(self):
        regs = FPLRegisterFile(size=16)
        assert all(regs.read(i) == 0 for i in range(16))

    def test_write_read(self):
        regs = FPLRegisterFile()
        regs.write(3, 1234)
        assert regs.read(3) == 1234

    def test_values_masked(self):
        regs = FPLRegisterFile()
        regs.write(0, -1)
        assert regs.read(0) == 0xFFFFFFFF

    def test_bounds(self):
        regs = FPLRegisterFile(size=16)
        with pytest.raises(DispatchError):
            regs.read(16)
        with pytest.raises(DispatchError):
            regs.write(-1, 0)

    def test_save_restore(self):
        regs = FPLRegisterFile(size=4)
        for i in range(4):
            regs.write(i, i * 10)
        saved = regs.snapshot()
        words = regs.words
        regs.write(0, 999)
        regs.restore(saved)
        assert regs.read(0) == 0
        assert regs.words is words  # in place: compiled code holds it

    def test_save_is_a_copy(self):
        regs = FPLRegisterFile(size=4)
        saved = regs.snapshot()
        regs.write(0, 1)
        assert saved["regs"][0] == 0

    def test_restore_length_checked(self):
        regs = FPLRegisterFile(size=4)
        with pytest.raises(CheckpointError, match=r"FPLRegisterFile\.regs"):
            regs.restore({"regs": [0, 0]})

    def test_needs_positive_size(self):
        with pytest.raises(DispatchError):
            FPLRegisterFile(size=0)
