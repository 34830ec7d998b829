"""Software-dispatch operand registers (§4.3)."""

import pytest

from repro.core.operand_regs import OperandRegisters
from repro.errors import DispatchError


class TestOperandRegisters:
    def test_capture_and_read(self):
        regs = OperandRegisters()
        regs.capture(11, 22, 3)
        assert regs.read_operand(0) == 11
        assert regs.read_operand(1) == 22

    def test_values_masked_to_32_bits(self):
        regs = OperandRegisters()
        regs.capture(1 << 40, -1, 0)
        assert regs.read_operand(0) == 0
        assert regs.read_operand(1) == 0xFFFFFFFF

    def test_take_result_dest_ends_dispatch(self):
        regs = OperandRegisters()
        regs.capture(1, 2, 7)
        assert regs.take_result_dest() == 7
        assert not regs.valid

    def test_read_without_capture_rejected(self):
        with pytest.raises(DispatchError):
            OperandRegisters().read_operand(0)

    def test_sto_without_capture_rejected(self):
        with pytest.raises(DispatchError):
            OperandRegisters().take_result_dest()

    def test_bad_selector_rejected(self):
        regs = OperandRegisters()
        regs.capture(1, 2, 0)
        with pytest.raises(DispatchError):
            regs.read_operand(2)

    def test_nested_dispatch_detected(self):
        """§4.3: a software alternative using another software-dispatched
        custom instruction clobbers the registers — flagged, not fatal."""
        regs = OperandRegisters()
        regs.capture(1, 2, 0)
        regs.capture(3, 4, 1)
        assert regs.clobbers == 1
        assert regs.read_operand(0) == 3

    def test_save_restore_across_process_switch(self):
        """The registers survive a snapshot round trip; a process switch
        moves the same four fields (``ProteusCoprocessor.switch_context``)."""
        regs = OperandRegisters()
        regs.capture(5, 6, 2)
        saved = regs.snapshot()
        assert saved["regs"] == [5, 6, 2, True]
        regs.capture(9, 9, 9)
        regs.take_result_dest()
        regs.restore(saved)
        assert regs.valid
        assert regs.read_operand(0) == 5
        assert regs.take_result_dest() == 2
