"""Tests for the two-pass assembler and the disassembler."""

import re

import pytest

from repro.fuzz.oracles import reference_assemble
from repro.isa import (
    AssemblyError,
    Instruction,
    Op,
    Reg,
    assemble,
    assemble_unit,
    decode_all,
    disassemble,
    encode,
    format_listing,
)


def ops(code, base=0):
    return [i.op for i in decode_all(code, base)]


def test_simple_sequence():
    code = assemble(
        """
        push rbp
        mov rbp, rsp
        mov rax, 59
        pop rbp
        ret
        """
    )
    assert ops(code) == [Op.PUSH_R, Op.MOV_RR, Op.MOV_RI, Op.POP1, Op.RET]


def test_labels_forward_and_backward():
    unit = assemble_unit(
        """
        start:
            jmp fwd
        back:
            ret
        fwd:
            jmp back
        """
    )
    insns = unit.instructions
    assert insns[0].target == unit.labels["fwd"]
    assert insns[2].target == unit.labels["back"]


def test_label_as_immediate():
    unit = assemble_unit(
        """
            mov rax, data
            ret
        data:
            .quad 42
        """
    )
    assert unit.instructions[0].imm == unit.labels["data"]


def test_memory_operands():
    unit = assemble_unit(
        """
        mov rax, [rbp-8]
        mov [rsp+16], rbx
        lea rdi, [rsp+0x20]
        jmp [rax+8]
        """
    )
    load, store, lea, jmpm = unit.instructions
    assert load.op == Op.LOAD and load.base == Reg.RBP and load.disp == -8
    assert store.op == Op.STORE and store.base == Reg.RSP and store.disp == 16
    assert lea.op == Op.LEA and lea.disp == 0x20
    assert jmpm.op == Op.JMP_M and jmpm.base == Reg.RAX and jmpm.disp == 8


def test_mem_operand_without_disp():
    unit = assemble_unit("mov rax, [rbx]")
    assert unit.instructions[0].disp == 0


def test_shape_dispatch_jmp_call_push():
    unit = assemble_unit(
        """
        t:
        jmp t
        jmp rax
        call t
        call rbx
        push rcx
        push 7
        """
    )
    got = [i.op for i in unit.instructions]
    assert got == [Op.JMP_REL, Op.JMP_R, Op.CALL_REL, Op.CALL_R, Op.PUSH_R, Op.PUSH_I]


def test_arith_imm_vs_reg():
    unit = assemble_unit(
        """
        add rax, rbx
        add rax, 5
        cmp rdx, 0
        test rsi, rsi
        """
    )
    got = [i.op for i in unit.instructions]
    assert got == [Op.ADD_RR, Op.ADD_RI, Op.CMP_RI, Op.TEST_RR]


def test_conditional_jumps():
    source = "t:\n" + "\n".join(
        f"{m} t" for m in ["je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"]
    )
    unit = assemble_unit(source)
    assert len(unit.instructions) == 12


def test_directives():
    unit = assemble_unit(
        """
        .quad 0x1122334455667788
        .byte 1, 2, 3
        .zero 4
        .asciz "hi"
        """
    )
    assert unit.code == (
        bytes.fromhex("8877665544332211") + b"\x01\x02\x03" + b"\x00" * 4 + b"hi\x00"
    )


def test_comments_and_blank_lines():
    code = assemble(
        """
        ; full line comment
        nop  ; trailing comment
        # hash comment
        ret
        """
    )
    assert ops(code) == [Op.NOP, Op.RET]


def test_undefined_label_raises():
    with pytest.raises(AssemblyError, match="undefined label"):
        assemble("jmp nowhere")


def test_duplicate_label_raises():
    with pytest.raises(AssemblyError, match="duplicate label"):
        assemble("a:\na:\nret")


def test_unknown_mnemonic_raises():
    with pytest.raises(AssemblyError, match="unknown mnemonic"):
        assemble("frobnicate rax")


def test_base_addr_affects_rel_encoding():
    unit = assemble_unit("start: jmp start", base_addr=0x400000)
    assert unit.instructions[0].target == 0x400000


def test_disassemble_skips_data():
    blob = b"\x0f\x0e" + assemble("ret")
    insns = disassemble(blob)
    assert [i.op for i in insns] == [Op.RET]


def test_format_listing_roundtrip_text():
    listing = format_listing(assemble("mov rax, 59\nsyscall\nret"), base_addr=0x400000)
    assert "mov rax, 0x3b" in listing
    assert "syscall" in listing
    assert "ret" in listing


# ---------------------------------------------------------------------------
# comments, malformed statements and the statement memo
# ---------------------------------------------------------------------------


def test_asciz_keeps_a_hash_inside_its_string():
    assert assemble('.asciz "a#b"  # a comment') == b"a#b\x00"


def test_asciz_keeps_a_semicolon_inside_its_string():
    assert assemble('.asciz "a;b"  ; a comment') == b"a;b\x00"


@pytest.mark.parametrize(
    "statement, message",
    [
        ("pop", "pop takes one operand"),
        ("mov rax, [rzz+8]", "unknown register name: 'rzz'"),
        ("mov32 rax, 0x80000000", "imm32 out of range"),
        ("shl rax, 300", "imm8 out of range"),
        ("shl rax, rcx", "shl expects an immediate or label, got rcx"),
        ("mov32 rax, rbx", "mov expects an immediate or label, got rbx"),
        ("inc 5", "inc expects a register, got 5"),
        ("xchg rax, 3", "xchg expects a register, got 3"),
        ("ret rax", "ret takes no operands"),
        ("pop rax, rbx", "pop takes one operand"),
        ("jne 0x10, 8", "jne takes one operand"),
    ],
)
def test_malformed_statement_names_its_line(statement, message):
    with pytest.raises(AssemblyError, match=rf"^line 3: {re.escape(message)}"):
        assemble(f"nop\nret\n{statement}\nnop")
    with pytest.raises(ValueError):  # callers that catch ValueError still do
        assemble(statement)


def test_memo_resolves_labels_and_rel32_per_call():
    """One text assembles to each call's own bytes, whatever an earlier
    call at another address or with other labels left in the memo."""
    source = "jmp ext\ncall ext\nmov rax, ext\n"
    for base in (0, 0x400000):
        for ext in (0x601000, 0x7000):
            code = assemble_unit(source, base_addr=base, extra_labels={"ext": ext}).code
            assert code == (
                encode(Instruction(op=Op.JMP_REL, rel=ext - (base + 5)))
                + encode(Instruction(op=Op.CALL_REL, rel=ext - (base + 10)))
                + encode(Instruction(op=Op.MOV_RI, dst=Reg.RAX, imm=ext))
            )


def test_memo_keeps_no_failure():
    with pytest.raises(AssemblyError, match="^line 1: "):
        assemble("shl rax, 300")
    with pytest.raises(AssemblyError, match="^line 4: "):
        assemble("nop\n\nret\nshl rax, 300")
    with pytest.raises(AssemblyError, match="^line 2: unknown register"):
        assemble("nop\nmov rax, [rzz+8]")
    with pytest.raises(AssemblyError, match="^line 3: unknown register"):
        assemble("nop\nnop\nmov rax, [rzz+8]")


def test_instructions_match_the_reference_assembler():
    source = """
    start: push rbp
        mov rbp, rsp
        mov rax, [rbp-8]
        mov [rsp+16], rbx
        .quad 7
        mov rax, data
        jmp start
        jne 0x1010
        mov rax, -1
    data: .asciz "x;y"
        call rax
        ret
    """
    unit = assemble_unit(source, base_addr=0x1000)
    code, labels, insns = reference_assemble(source, 0x1000)
    assert unit.code == code and unit.labels == labels
    assert unit.instructions == insns
    assert [i.addr for i in unit.instructions] == [i.addr for i in insns]
    assert insns[0].addr == 0x1000 and insns[-1].addr == labels["data"] + 4 + 2


def test_cold_images_build_byte_identical_twice(monkeypatch):
    from repro.bench.netperf import NETPERF_PROGRAM
    from repro.bench.programs import BENCHMARK_SUITE
    from repro.isa import assembler
    from repro.obfuscation.pipeline import CONFIGS, build_program

    programs = {**BENCHMARK_SUITE, NETPERF_PROGRAM.name: NETPERF_PROGRAM}
    builds = [
        ("binary_search", "none"),
        ("netperf", "none"),
        ("string_ops", "llvm_obf"),
        ("bubble_sort", "tigress"),
    ]

    def images():
        return [
            build_program(programs[p].source, CONFIGS[c], seed=7).image.to_bytes()
            for p, c in builds
        ]

    monkeypatch.setattr(assembler, "_MEMO", {})
    cold = images()
    assert assembler._MEMO
    assert images() == cold
