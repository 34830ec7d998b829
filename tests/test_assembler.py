"""The two-pass assembler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.assembler import (
    DATA_BASE,
    _split_operands,
    assemble,
    format_instruction,
)
from repro.cpu.isa import CODE_BASE, Cond, Op
from repro.errors import AssemblerError


class TestBasicParsing:
    def test_empty_source(self):
        program = assemble("; nothing\n\n@ also nothing\n")
        assert program.instructions == []

    def test_mov_immediate(self):
        program = assemble("MOV r1, #42")
        (instr,) = program.instructions
        assert instr.op is Op.MOV and instr.rd == 1
        assert instr.imm == 42 and instr.uses_imm

    def test_mov_register(self):
        (instr,) = assemble("MOV r1, r2").instructions
        assert not instr.uses_imm and instr.rm == 2

    def test_negative_and_hex_immediates(self):
        program = assemble("MOV r0, #-5\nMOV r1, #0x1F")
        assert program.instructions[0].imm == -5
        assert program.instructions[1].imm == 0x1F

    def test_case_insensitive_mnemonics(self):
        (instr,) = assemble("add r0, r1, #1").instructions
        assert instr.op is Op.ADD

    def test_register_aliases(self):
        (instr,) = assemble("MOV sp, lr").instructions
        assert instr.rd == 13 and instr.rm == 14

    def test_three_operand_forms(self):
        source = "\n".join(
            f"{op} r0, r1, r2"
            for op in ("ADD", "SUB", "RSB", "AND", "ORR", "EOR", "BIC",
                       "LSL", "LSR", "ASR", "ROR")
        )
        for instr in assemble(source).instructions:
            assert (instr.rd, instr.rn, instr.rm) == (0, 1, 2)

    def test_mul(self):
        (instr,) = assemble("MUL r3, r4, r5").instructions
        assert instr.op is Op.MUL and (instr.rd, instr.rn, instr.rm) == (3, 4, 5)

    def test_compares(self):
        program = assemble("CMP r0, #1\nCMN r1, r2\nTST r3, #4")
        assert [i.op for i in program.instructions] == [Op.CMP, Op.CMN, Op.TST]

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("FROB r0, r1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError, match="expects 3 operands"):
            assemble("ADD r0, r1")

    def test_bad_register(self):
        with pytest.raises(AssemblerError, match="bad register"):
            assemble("MOV r16, #0")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 3"):
            assemble("NOP\nNOP\nBROKEN r0\n")


class TestBranches:
    def test_forward_and_backward(self):
        program = assemble(
            """
            start:
                B end
                NOP
            end:
                B start
            """
        )
        branch_fwd, __, branch_back = program.instructions
        assert branch_fwd.imm == 1  # skip one instruction
        assert branch_back.imm == -3

    def test_conditional_suffixes(self):
        source = "x:\n" + "\n".join(
            f"B{cond} x" for cond in
            ("EQ", "NE", "LT", "LE", "GT", "GE", "CC", "CS", "HI", "LS",
             "MI", "PL", "LO", "HS")
        )
        conds = [i.cond for i in assemble(source).instructions]
        assert conds[0] is Cond.EQ
        assert conds[-2] is Cond.CC  # LO alias
        assert conds[-1] is Cond.CS  # HS alias

    def test_bl_and_bx(self):
        program = assemble("main: BL main\nBX lr")
        assert program.instructions[0].op is Op.BL
        assert program.instructions[1].rn == 14

    def test_unknown_target(self):
        with pytest.raises(AssemblerError, match="unknown branch target"):
            assemble("B nowhere")

    def test_data_label_is_not_a_branch_target(self):
        with pytest.raises(AssemblerError, match="not a code label"):
            assemble(".data\nx: .word 1\n.text\nB x")


class TestMemoryOperands:
    def test_plain(self):
        (instr,) = assemble("LDR r0, [r1]").instructions
        assert instr.imm == 0 and not instr.post_inc

    def test_offset(self):
        (instr,) = assemble("LDR r0, [r1, #8]").instructions
        assert instr.imm == 8 and not instr.post_inc

    def test_post_increment(self):
        (instr,) = assemble("STR r0, [r1], #4").instructions
        assert instr.imm == 4 and instr.post_inc

    def test_byte_forms(self):
        program = assemble("LDRB r0, [r1]\nSTRB r0, [r1]")
        assert [i.op for i in program.instructions] == [Op.LDRB, Op.STRB]

    def test_post_inc_with_offset_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("LDR r0, [r1, #4], #4")

    def test_malformed_address(self):
        with pytest.raises(AssemblerError, match="bad address"):
            assemble("LDR r0, r1")


class TestCoprocessorOps:
    def test_mcr_mrc(self):
        program = assemble("MCR f3, r1\nMRC r2, f4")
        mcr, mrc = program.instructions
        assert (mcr.rd, mcr.rn) == (3, 1)
        assert (mrc.rd, mrc.rn) == (2, 4)

    def test_cdp(self):
        (instr,) = assemble("CDP #7, f1, f2, f3").instructions
        assert instr.imm == 7
        assert (instr.rd, instr.rn, instr.rm) == (1, 2, 3)

    def test_cdp_rejects_negative_cid(self):
        with pytest.raises(AssemblerError):
            assemble("CDP #-1, f0, f0, f0")

    def test_ldo_sto(self):
        program = assemble("LDO r0, #0\nLDO r1, #1\nSTO r2")
        assert program.instructions[0].imm == 0
        assert program.instructions[2].rn == 2

    def test_ldo_selector_range(self):
        with pytest.raises(AssemblerError):
            assemble("LDO r0, #2")

    def test_fpl_register_range(self):
        with pytest.raises(AssemblerError, match="bad FPL register"):
            assemble("MCR f16, r0")


class TestDataSection:
    def test_words(self):
        program = assemble(".data\ntable: .word 1, 2, 0xFF")
        assert program.data == (
            (1).to_bytes(4, "little")
            + (2).to_bytes(4, "little")
            + (0xFF).to_bytes(4, "little")
        )
        assert program.labels["table"] == DATA_BASE

    def test_bytes_and_space(self):
        program = assemble(".data\nb: .byte 1, 2\ngap: .space 6\nend: .word 0")
        assert program.labels["gap"] == DATA_BASE + 2
        assert program.labels["end"] == DATA_BASE + 8

    def test_word_label_fixup(self):
        """A .word naming a code label resolves to its address."""
        program = assemble(
            """
            .text
            main: NOP
            target: NOP
            .data
            ptr: .word target
            """
        )
        stored = int.from_bytes(program.data[:4], "little")
        assert stored == CODE_BASE + 4

    def test_unknown_word_symbol(self):
        with pytest.raises(AssemblerError, match="unknown symbol"):
            assemble(".data\nptr: .word nowhere")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\nMOV r0, #1")

    def test_directive_in_text_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 1")

    def test_byte_range_checked(self):
        with pytest.raises(AssemblerError):
            assemble(".data\nb: .byte 300")

    def test_negative_space_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".data\ns: .space -1")


class TestSymbols:
    def test_equ_constants(self):
        program = assemble(".equ N, 5\nMOV r0, #N")
        assert program.instructions[0].imm == 5

    def test_equ_arithmetic(self):
        program = assemble(".equ N, 5\nMOV r0, #N+3")
        assert program.instructions[0].imm == 8

    def test_duplicate_equ_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble(".equ N, 1\n.equ N, 2")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x: NOP\nx: NOP")

    def test_label_address_in_immediate(self):
        program = assemble(".data\nbuf: .space 4\n.text\nMOV r0, #buf")
        assert program.instructions[0].imm == DATA_BASE

    def test_entry_index_defaults_to_zero(self):
        assert assemble("NOP").entry_index == 0

    def test_entry_index_uses_main(self):
        program = assemble("helper: NOP\nmain: NOP")
        assert program.entry_index == 1

    def test_label_address_lookup(self):
        program = assemble("x: NOP")
        assert program.label_address("x") == CODE_BASE
        with pytest.raises(AssemblerError):
            program.label_address("y")

    def test_line_map(self):
        program = assemble("NOP\n\nNOP")
        assert program.line_map == {0: 1, 1: 3}


class TestFormatting:
    def test_formats_are_parseable_shapes(self):
        source = """
        main:
            MOV r0, #1
            ADD r1, r0, r2
            LDR r3, [r1, #4]
            STR r3, [r1], #4
            CMP r0, #0
            BNE main
            BL main
            BX lr
            MCR f0, r1
            MRC r1, f0
            CDP #1, f2, f0, f1
            LDO r0, #0
            STO r0
            SWI #3
            NOP
        """
        for instr in assemble(source).instructions:
            text = format_instruction(instr)
            assert instr.op.name in text


class TestSplitOperands:
    """The bracket-free fast path of ``_split_operands`` must return
    exactly what its character loop returns."""

    @staticmethod
    def reference(rest: str) -> list[str]:
        operands: list[str] = []
        depth = 0
        current = ""
        for char in rest:
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            if char == "," and depth == 0:
                operands.append(current.strip())
                current = ""
            else:
                current += char
        if current.strip():
            operands.append(current.strip())
        return operands

    @given(st.text(alphabet=" \t,r0x1#f[]-", max_size=24))
    @settings(max_examples=400)
    def test_matches_the_character_loop(self, rest):
        assert _split_operands(rest) == self.reference(rest)

    @pytest.mark.parametrize("rest", [
        "", " ", ",", " , ", "a,", ",a", "a,,b", " 0x1 , 0x2 ,\t",
        "r0, [r1, #4]", "r0, [r1], #4", "a], b", "[a, b",
    ])
    def test_edge_cases(self, rest):
        assert _split_operands(rest) == self.reference(rest)
