"""Tests for the concrete emulator: ALU semantics, stack, control flow,
syscalls, faults."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.binfmt import STACK_TOP, BinaryImage, Section, make_image
from repro.emulator import (
    AttackTriggered,
    DivideError,
    Emulator,
    InvalidInstruction,
    MemoryFault,
    PAGE_SIZE,
    PERM_R,
    PERM_W,
    ProcessExit,
    StepLimitExceeded,
    Sys,
    run_image,
)
from repro.isa import ALL_REGS, MASK64, Flag, Reg, assemble_unit
from repro.obs import Tracer, format_trace_summary, tracing


def emu_for(source, data=b"", **kwargs):
    unit = assemble_unit(source, base_addr=0x400000)
    image = make_image(unit.code, data=data, symbols=unit.labels)
    return Emulator(image, **kwargs)


def run_regs(source, **kwargs):
    emu = emu_for(source + "\nhlt", **kwargs)
    with pytest.raises(ProcessExit):
        while True:
            emu.step()
    return emu.cpu


def test_mov_and_arith():
    cpu = run_regs(
        """
        mov rax, 10
        mov rbx, 3
        add rax, rbx
        sub rax, 1
        mul rbx, rax   ; rbx = 3 * 12 = 36
        """
    )
    assert cpu.get(Reg.RAX) == 12
    assert cpu.get(Reg.RBX) == 36


def test_wraparound_64bit():
    cpu = run_regs(
        """
        mov rax, 0xffffffffffffffff
        add rax, 2
        """
    )
    assert cpu.get(Reg.RAX) == 1
    assert cpu.flags[Flag.CF]


def test_signed_overflow_flag():
    cpu = run_regs(
        """
        mov rax, 0x7fffffffffffffff
        add rax, 1
        """
    )
    assert cpu.flags[Flag.OF]
    assert cpu.flags[Flag.SF]


def test_logic_ops_clear_cf_of():
    cpu = run_regs(
        """
        mov rax, 0xff00
        mov rbx, 0x0ff0
        and rax, rbx
        """
    )
    assert cpu.get(Reg.RAX) == 0x0F00
    assert not cpu.flags[Flag.CF]
    assert not cpu.flags[Flag.OF]


def test_xor_zero_sets_zf():
    cpu = run_regs(
        """
        mov rax, 123
        xor rax, 123
        """
    )
    assert cpu.flags[Flag.ZF]


def test_shifts():
    cpu = run_regs(
        """
        mov rax, 1
        shl rax, 4
        mov rbx, 0x8000000000000000
        sar rbx, 63
        mov rcx, 0x10
        shr rcx, 1
        """
    )
    assert cpu.get(Reg.RAX) == 16
    assert cpu.get(Reg.RBX) == 0xFFFFFFFFFFFFFFFF
    assert cpu.get(Reg.RCX) == 8


def test_div_mod():
    cpu = run_regs(
        """
        mov rax, 17
        mov rbx, 5
        udiv rax, rbx
        mov rcx, 17
        umod rcx, rbx
        """
    )
    assert cpu.get(Reg.RAX) == 3
    assert cpu.get(Reg.RCX) == 2


def test_divide_by_zero_raises():
    emu = emu_for(
        """
        mov rax, 1
        mov rbx, 0
        udiv rax, rbx
        """
    )
    with pytest.raises(DivideError):
        for _ in range(5):
            emu.step()


def test_inc_dec_preserve_cf():
    cpu = run_regs(
        """
        mov rax, 0xffffffffffffffff
        add rax, 1      ; sets CF
        mov rbx, 5
        inc rbx
        """
    )
    assert cpu.flags[Flag.CF], "inc must preserve CF"


def test_push_pop_and_xchg():
    cpu = run_regs(
        """
        mov rax, 111
        mov rbx, 222
        push rax
        push rbx
        pop rcx
        pop rdx
        xchg rcx, rdx
        """
    )
    assert cpu.get(Reg.RCX) == 111
    assert cpu.get(Reg.RDX) == 222


def test_load_store_data_section():
    emu = emu_for(
        """
        mov rax, 0x600000
        mov rbx, 0x1234
        mov [rax+8], rbx
        mov rcx, [rax+8]
        hlt
        """,
        data=b"\x00" * 64,
    )
    emu.run()
    assert emu.cpu.get(Reg.RCX) == 0x1234


def test_byte_load_store():
    emu = emu_for(
        """
        mov rax, 0x600000
        mov rbx, 0x11FF
        movb [rax], rbx        ; stores 0xFF only
        movzxb rcx, [rax]
        hlt
        """,
        data=b"\x00" * 16,
    )
    emu.run()
    assert emu.cpu.get(Reg.RCX) == 0xFF


def test_lea_computes_address_without_access():
    cpu = run_regs(
        """
        mov rbx, 0x100
        lea rax, [rbx+0x20]
        """
    )
    assert cpu.get(Reg.RAX) == 0x120


def test_call_ret():
    cpu = run_regs(
        """
            call fn
            jmp done
        fn:
            mov rax, 77
            ret
        done:
        """
    )
    assert cpu.get(Reg.RAX) == 77


def test_leave_restores_frame():
    cpu = run_regs(
        """
        mov rbp, 0x9999
        push rbp            ; saved rbp
        mov rbp, rsp
        sub rsp, 32
        mov rbp, rsp
        add rbp, 32
        leave
        """
    )
    assert cpu.get(Reg.RBP) == 0x9999


def test_conditional_jump_taken_and_not():
    cpu = run_regs(
        """
            mov rax, 5
            cmp rax, 5
            je eq
            mov rbx, 0
            jmp out
        eq:
            mov rbx, 1
        out:
            cmp rax, 9
            jg wrong
            mov rcx, 2
            jmp end
        wrong:
            mov rcx, 3
        end:
        """
    )
    assert cpu.get(Reg.RBX) == 1
    assert cpu.get(Reg.RCX) == 2


def test_signed_vs_unsigned_compare():
    cpu = run_regs(
        """
            mov rax, 0xffffffffffffffff   ; -1 signed, huge unsigned
            cmp rax, 1
            jl signed_less
            mov rbx, 0
            jmp next
        signed_less:
            mov rbx, 1
        next:
            cmp rax, 1
            ja unsigned_above
            mov rcx, 0
            jmp end
        unsigned_above:
            mov rcx, 1
        end:
        """
    )
    assert cpu.get(Reg.RBX) == 1, "-1 < 1 signed"
    assert cpu.get(Reg.RCX) == 1, "0xffff... > 1 unsigned"


def test_indirect_jumps_register_and_memory():
    # The jump table lives on the stack: .text is not writable.
    cpu = run_regs(
        """
            mov rax, target
            jmp rax
            mov rbx, 999
        target:
            mov rbx, 42
            mov rcx, rsp
            sub rcx, 64
            mov rdx, target2
            mov [rcx], rdx
            jmp [rcx]
            mov rsi, 888
        target2:
            mov rsi, 7
        end:
        """
    )
    assert cpu.get(Reg.RBX) == 42
    assert cpu.get(Reg.RSI) == 7


def test_jmp_table_in_data_requires_mapped_memory():
    emu = emu_for(
        """
        mov rax, 0x600000
        mov rbx, 0x400000
        mov [rax], rbx
        jmp [rax]
        """,
        data=b"\x00" * 16,
    )
    for _ in range(4):
        emu.step()
    assert emu.cpu.rip == 0x400000


def test_syscall_write_captures_stdout():
    unit_src = """
        mov rax, 1          ; write
        mov rdi, 1          ; fd
        mov rsi, msg
        mov rdx, 5
        syscall
        mov rax, 60
        mov rdi, 0
        syscall
    msg:
        .asciz "hello"
    """
    unit = assemble_unit(unit_src, base_addr=0x400000)
    image = make_image(unit.code, symbols=unit.labels)
    status, stdout = run_image(image)
    assert status == 0
    assert stdout == b"hello"


def test_execve_raises_attack_triggered():
    emu = emu_for(
        """
        mov rax, 59
        mov rdi, path
        mov rsi, 0
        mov rdx, 0
        syscall
    path:
        .asciz "/bin/sh"
        """
    )
    with pytest.raises(AttackTriggered) as excinfo:
        emu.run()
    event = excinfo.value.event
    assert event.number == Sys.EXECVE
    assert event.path == b"/bin/sh"
    assert event.is_shell_spawn()


def test_mprotect_event_fields():
    emu = emu_for(
        """
        mov rax, 10
        mov rdi, 0x600000
        mov rsi, 0x1000
        mov rdx, 7
        syscall
        """
    )
    with pytest.raises(AttackTriggered) as excinfo:
        emu.run()
    event = excinfo.value.event
    assert event.number == Sys.MPROTECT
    assert event.addr == 0x600000
    assert event.length == 0x1000
    assert event.prot == 7


def test_mprotect_modelled_when_not_stopping():
    emu = emu_for(
        """
        mov rax, 10
        mov rdi, 0x600000
        mov rsi, 0x1000
        mov rdx, 7
        syscall
        mov rax, 60
        mov rdi, 0
        syscall
        """,
        data=b"\x00" * 16,
        stop_on_attack=False,
    )
    status = emu.run()
    assert status == 0
    assert len(emu.syscalls.events) == 1


def test_unknown_syscall_returns_enosys():
    cpu = run_regs(
        """
        mov rax, 9999
        syscall
        """
    )
    assert cpu.get(Reg.RAX) == (-38) & ((1 << 64) - 1)


def test_write_to_text_faults():
    emu = emu_for(
        """
        mov rax, 0x400000
        mov rbx, 1
        mov [rax], rbx
        """
    )
    with pytest.raises(MemoryFault):
        for _ in range(3):
            emu.step()


def test_execute_from_data_faults():
    emu = emu_for(
        """
        mov rax, 0x600000
        jmp rax
        """,
        data=b"\x00" * 16,
    )
    with pytest.raises(InvalidInstruction):
        for _ in range(3):
            emu.step()


def test_unmapped_access_faults():
    emu = emu_for("mov rax, [rbx+0]")
    emu.cpu.set(Reg.RBX, 0x123456789)
    with pytest.raises(MemoryFault):
        emu.step()


def test_step_limit():
    emu = emu_for("loop: jmp loop", step_limit=100)
    with pytest.raises(StepLimitExceeded):
        emu.run()


def test_stack_initial_rsp_below_top():
    emu = emu_for("nop")
    assert emu.cpu.get(Reg.RSP) < STACK_TOP


def test_step_hook_sees_every_instruction():
    seen = []
    emu = emu_for("mov rax, 1\nmov rbx, 2\nhlt", step_hook=lambda _emu, insn: seen.append(insn))
    emu.run()
    assert len(seen) == 3


def test_run_catching_attack_returns_none_on_crash():
    emu = emu_for("mov rax, [rbx]")  # rbx=0 → unmapped
    assert emu.run_catching_attack() is None


# -- syscall argument decoding ----------------------------------------------


def _handler(**kwargs):
    from repro.emulator import Memory, SyscallHandler

    return SyscallHandler(Memory(), **kwargs)


def test_mmap_event_records_prot_and_flags():
    handler = _handler()
    args = (0x700000, 0x2000, 7, 0x22, 0, 0)
    with pytest.raises(AttackTriggered) as excinfo:
        handler.dispatch(int(Sys.MMAP), args)
    event = excinfo.value.event
    assert event.number == Sys.MMAP
    assert (event.addr, event.length, event.prot, event.flags) == (0x700000, 0x2000, 7, 0x22)


def test_mremap_event_decodes_real_signature():
    """mremap(old_addr, old_size, new_size, flags, new_addr) — it was
    decoded like mmap, mislabelling new_size/flags as prot."""
    handler = _handler()
    args = (0x600000, 0x1000, 0x3000, 1, 0x700000, 0)
    with pytest.raises(AttackTriggered) as excinfo:
        handler.dispatch(int(Sys.MREMAP), args)
    event = excinfo.value.event
    assert event.number == Sys.MREMAP
    assert event.args == args[:5]
    assert event.addr == 0x600000
    assert event.length == 0x3000, "length is the *new* size (arg 2)"
    assert event.flags == 1
    assert event.prot is None, "mremap has no prot argument"


# -- mprotect argument validation (kernel semantics) -------------------------


_EINVAL = (-22) & ((1 << 64) - 1)
_ENOMEM = (-12) & ((1 << 64) - 1)


def test_mprotect_unaligned_addr_returns_einval():
    handler = _handler()
    ret = handler.dispatch(int(Sys.MPROTECT), (0x600001, 0x1000, 7, 0, 0, 0))
    assert ret == _EINVAL
    assert handler.events == [], "invalid request must not be recorded"


def test_mprotect_bad_prot_bits_return_einval():
    handler = _handler()
    for prot in (8, 0x10, 7 | 0x20):
        ret = handler.dispatch(int(Sys.MPROTECT), (0x600000, 0x1000, prot, 0, 0, 0))
        assert ret == _EINVAL, hex(prot)
    assert handler.events == []


def test_mprotect_valid_request_still_raises_attack():
    handler = _handler()
    with pytest.raises(AttackTriggered):
        handler.dispatch(int(Sys.MPROTECT), (0x600000, 0x1000, 7, 0, 0, 0))


def test_mprotect_applies_requested_prot_when_modelled():
    from repro.emulator import Memory, PAGE_SIZE, PERM_R, PERM_X, SyscallHandler

    mem = Memory()
    mem.map(0x600000, PAGE_SIZE, PERM_R)
    handler = SyscallHandler(mem, stop_on_attack=False)
    ret = handler.dispatch(int(Sys.MPROTECT), (0x600000, PAGE_SIZE, 5, 0, 0, 0))
    assert ret == 0
    assert mem.perms_at(0x600000) == (PERM_R | PERM_X)


def test_mprotect_unmapped_region_returns_einval_when_modelled():
    handler = _handler(stop_on_attack=False)
    ret = handler.dispatch(int(Sys.MPROTECT), (0x600000, 0x1000, 7, 0, 0, 0))
    assert ret == _EINVAL


def test_mprotect_validates_before_policy_filter():
    """Malformed requests fail with -EINVAL before any policy hook runs."""
    seen = []

    def filt(sys_no, args):
        seen.append(sys_no)
        return None

    handler = _handler(syscall_filter=filt)
    assert handler.dispatch(int(Sys.MPROTECT), (0x600001, 0x1000, 7, 0, 0, 0)) == _EINVAL
    assert seen == []


def test_syscall_filter_vetoes_mprotect():
    _EACCES = (-13) & ((1 << 64) - 1)

    def filt(sys_no, args):
        return _EACCES if sys_no is Sys.MPROTECT else None

    handler = _handler(syscall_filter=filt)
    ret = handler.dispatch(int(Sys.MPROTECT), (0x600000, 0x1000, 7, 0, 0, 0))
    assert ret == _EACCES
    assert handler.events == [], "vetoed call must not count as an attack"


@pytest.mark.parametrize(
    "sys_no, args",
    [
        (Sys.EXECVE, (0xDEAD000, 0, 0, 0, 0, 0)),
        (Sys.MPROTECT, (0x600000, 0x1000, 7, 0, 0, 0)),
        (Sys.MMAP, (0x700000, 0x2000, 7, 0x22, 0, 0)),
        (Sys.MREMAP, (0x600000, 0x1000, 0x3000, 1, 0x700000, 0)),
    ],
)
def test_syscall_filter_sees_each_attack_syscall_once(sys_no, args):
    seen = []

    def allow(sys_no, args):
        seen.append((sys_no, args))
        return None

    with pytest.raises(AttackTriggered):
        _handler(syscall_filter=allow).dispatch(int(sys_no), args)
    assert seen == [(sys_no, args)], "called once, with the raw args"

    def veto(sys_no, args):
        seen.append((sys_no, args))
        return 0x1234

    seen.clear()
    handler = _handler(syscall_filter=veto)
    assert handler.dispatch(int(sys_no), args) == 0x1234, "the veto becomes rax"
    assert seen == [(sys_no, args)]
    assert handler.events == [], "vetoed call must not count as an attack"


# -- modelled anonymous mmap --------------------------------------------------


def test_mmap_model_bump_allocates_and_maps():
    from repro.emulator import PAGE_SIZE
    from repro.emulator.syscalls import MMAP_BASE

    handler = _handler(stop_on_attack=False)
    first = handler.dispatch(int(Sys.MMAP), (0, 0x1800, 7, 0x22, 0, 0))
    assert first == MMAP_BASE
    assert handler.memory.is_mapped(first)
    assert handler.memory.perms_at(first) == 7
    second = handler.dispatch(int(Sys.MMAP), (0, 0x1000, 3, 0x22, 0, 0))
    assert second == MMAP_BASE + 2 * PAGE_SIZE, "0x1800 rounds up to two pages"


def test_mmap_model_rejects_bad_requests():
    handler = _handler(stop_on_attack=False)
    assert handler.dispatch(int(Sys.MMAP), (0, 0, 7, 0, 0, 0)) == _EINVAL
    assert handler.dispatch(int(Sys.MMAP), (0, 0x1000, 0x10, 0, 0, 0)) == _EINVAL
    assert handler.dispatch(int(Sys.MMAP), (0x700001, 0x1000, 7, 0, 0, 0)) == _EINVAL


def test_mmap_model_refuses_to_clobber_existing_mapping():
    from repro.emulator import PAGE_SIZE, PERM_R

    handler = _handler(stop_on_attack=False)
    handler.memory.map(0x700000, PAGE_SIZE, PERM_R)
    ret = handler.dispatch(int(Sys.MMAP), (0x700000, 0x1000, 7, 0, 0, 0))
    assert ret == _ENOMEM
    # An overlap past the first page counts too, as does a PROT_NONE page.
    handler.memory.map(0x800000 + 9 * PAGE_SIZE, PAGE_SIZE, 0)
    ret = handler.dispatch(int(Sys.MMAP), (0x800000, 16 * PAGE_SIZE, 7, 0, 0, 0))
    assert ret == _ENOMEM
    assert not handler.memory.is_mapped(0x800000)


def test_mmap_model_huge_length_returns_promptly():
    # With stop_on_attack off the model maps what the guest asks for; a
    # 2**60-byte request must get -ENOMEM, not a walk over 2**48 pages.
    from repro.emulator.syscalls import MMAP_BASE, MMAP_MAX_LENGTH

    for addr in (0, 0x10000000):
        emu = emu_for(
            f"""
            mov rax, 9
            mov rdi, {addr:#x}
            mov rsi, {1 << 60:#x}
            mov rdx, 7
            syscall
            hlt
            """,
            stop_on_attack=False,
        )
        started = time.perf_counter()
        emu.run()
        assert time.perf_counter() - started < 5.0
        assert emu.cpu.get(Reg.RAX) == _ENOMEM
        assert len(emu.syscalls.events) == 1
        assert emu.syscalls.mmap_cursor == MMAP_BASE
    handler = _handler(stop_on_attack=False)
    assert handler.dispatch(int(Sys.MMAP), (0, MMAP_MAX_LENGTH, 3, 0x22, 0, 0)) == MMAP_BASE
    assert handler.dispatch(int(Sys.MMAP), (0, MMAP_MAX_LENGTH + 1, 3, 0x22, 0, 0)) == _ENOMEM


# -- write(2) length clamping ------------------------------------------------


def _write_handler(pages=1, fill=b"A"):
    from repro.emulator import Memory, PAGE_SIZE, PERM_R, SyscallHandler

    mem = Memory()
    mem.map(0x1000, pages * PAGE_SIZE, PERM_R)
    mem.write_initial(0x1000, fill * (pages * PAGE_SIZE))
    return SyscallHandler(mem, stop_on_attack=False)


def test_write_clamps_count_to_mapped_run():
    """The guest's count was trusted unboundedly — a corrupted length
    made the host materialize the whole read.  Clamp to what is mapped
    (partial-write semantics, like the kernel)."""
    handler = _write_handler(pages=1)
    ret = handler.dispatch(int(Sys.WRITE), (1, 0x1800, 1 << 40, 0, 0, 0))
    assert ret == 0x800, "partial write up to the end of the mapping"
    assert bytes(handler.stdout) == b"A" * 0x800


def test_write_crossing_pages_clamps_at_unmapped():
    handler = _write_handler(pages=2)
    ret = handler.dispatch(int(Sys.WRITE), (1, 0x1100, 0x10000, 0, 0, 0))
    assert ret == 0x1F00  # both pages minus the 0x100 offset
    assert len(handler.stdout) == 0x1F00


def test_write_within_mapping_is_exact():
    handler = _write_handler(pages=1)
    ret = handler.dispatch(int(Sys.WRITE), (1, 0x1000, 5, 0, 0, 0))
    assert ret == 5
    assert bytes(handler.stdout) == b"AAAAA"


def test_write_unmapped_buffer_returns_efault():
    handler = _handler(stop_on_attack=False)
    ret = handler.dispatch(int(Sys.WRITE), (1, 0xDEAD000, 16, 0, 0, 0))
    assert ret == (-14) & ((1 << 64) - 1)
    assert not handler.stdout


def test_write_zero_count_returns_zero():
    handler = _write_handler()
    assert handler.dispatch(int(Sys.WRITE), (1, 0x1000, 0, 0, 0, 0)) == 0


# -- block dispatch --------------------------------------------------------------


COUNTDOWN = """
    mov rcx, 5
loop:
    dec rcx
    jne loop
    hlt
"""


def test_run_dispatches_blocks_and_counts_them_like_steps():
    """``mov; dec; jne`` is one block and the loop body ``dec; jne``
    another; ``hlt`` a third.  The steps are the per-step loop's."""
    emu = emu_for(COUNTDOWN)
    assert emu.run() == 0
    assert (emu.steps, emu.blocks, emu.translations) == (12, 3, 4)
    stepped = emu_for(COUNTDOWN, step_hook=lambda _emu, _insn: None)
    assert stepped.run() == 0
    assert (stepped.steps, stepped.blocks, stepped.translations) == (12, 0, 4)


@pytest.mark.parametrize("limit", range(1, 12))
def test_step_limit_inside_a_block_stops_where_single_steps_stop(limit):
    emu, stepped = emu_for(COUNTDOWN, step_limit=limit), emu_for(COUNTDOWN, step_limit=limit)
    with pytest.raises(StepLimitExceeded):
        emu.run()
    with pytest.raises(StepLimitExceeded):
        while True:
            stepped.step()
    assert (emu.steps, emu.cpu.rip, emu.cpu.regs) == (limit, stepped.cpu.rip, stepped.cpu.regs)


def test_fault_inside_a_block_counts_it_and_leaves_rip_on_it():
    emu = emu_for("mov rax, 1\nmov rbx, 0\nmov rcx, [rbx+0]\nmov rax, 2\nhlt")
    with pytest.raises(MemoryFault):
        emu.run()
    assert emu.steps == 3
    assert emu.fetch().op.name == "LOAD"
    assert emu.cpu.get(Reg.RAX) == 1


def test_emulate_run_span_counts_blocks_and_nfl_trace_shows_them():
    tracer = Tracer()
    with tracing(tracer):
        run_image(emu_for(COUNTDOWN).image)
    (root,) = tracer.roots
    assert root.name == "emulate.run"
    assert root.counters == {
        "steps": 12,
        "syscall_events": 0,
        "translations": 4,
        "flushes": 0,
        "blocks": 3,
    }
    summary = format_trace_summary(tracer.to_lines())
    assert "blocks=3 flushes=0 steps=12" in summary


# -- instruction fetch at mapping and permission edges ------------------------


def test_fetch_stops_at_the_last_executable_byte():
    """A ``ret`` in the last byte of .text, with an unmapped page after
    it, decodes from the one executable byte left."""
    head = "call last\nhlt\n"
    size = len(assemble_unit(head + "last:\nret", base_addr=0x400000).code)
    unit = assemble_unit(f"{head}.zero {PAGE_SIZE - size}\nlast:\nret", base_addr=0x400000)
    assert len(unit.code) == PAGE_SIZE
    emu = Emulator(make_image(unit.code, symbols=unit.labels))
    assert not emu.memory.is_mapped(0x400000 + PAGE_SIZE)
    assert emu.run() == 0
    assert emu.steps == 3


def test_fetch_straddling_into_a_non_executable_page_is_invalid():
    insn = assemble_unit("mov rax, 0x1122334455667788").code
    split = 3
    image = BinaryImage(
        sections=[
            Section(".text", 0x400000, bytes(PAGE_SIZE - split) + insn[:split], executable=True),
            Section(".data", 0x400000 + PAGE_SIZE, insn[split:], writable=True),
        ],
        symbols={},
        entry=0x400000 + PAGE_SIZE - split,
    )
    emu = Emulator(image)
    with pytest.raises(InvalidInstruction):
        emu.step()


def test_mprotect_dropping_exec_invalidates_the_decode_cache():
    """``g`` is decoded and cached by the first call; once its page
    loses PROT_EXEC the second call must not run the cached ``ret``."""
    nops = "\n".join(["nop"] * 0x1100)
    unit = assemble_unit(
        f"""
        g:
            ret
        {nops}
        _start:
            call g
            mov rax, 10
            mov rdi, 0x400000
            mov rsi, 0x1000
            mov rdx, 3          ; PROT_READ|PROT_WRITE
            syscall
            call g
            hlt
        """,
        base_addr=0x400000,
    )
    assert unit.labels["_start"] >= 0x401000
    image = make_image(unit.code, symbols=unit.labels, entry=unit.labels["_start"])
    emu = Emulator(image, stop_on_attack=False)
    with pytest.raises(InvalidInstruction, match="0x400000"):
        emu.run()
    assert emu.memory.perms_at(0x400000) == PERM_R | PERM_W


def test_code_stored_into_a_memoised_page_made_executable_is_redecoded():
    """``f`` lives in .data.  The program stores into that page (the
    write memo now holds it, W and not X), mprotects it RWX, calls
    ``f``, patches ``f``'s immediate with one u64 store and calls it
    again: the second call must run the new bytes."""
    f = assemble_unit("mov rax, 0x1111111111111111\nret").code
    imm = f.index((0x1111111111111111).to_bytes(8, "little"))
    emu = emu_for(
        f"""
            mov rbx, 0x600000
            mov rcx, 0
            mov [rbx+0x100], rcx
            mov rax, 10
            mov rdi, 0x600000
            mov rsi, 0x1000
            mov rdx, 7          ; PROT_READ|PROT_WRITE|PROT_EXEC
            syscall
            call rbx
            mov rdx, rax
            mov rcx, 0x2222222222222222
            mov [rbx+{imm}], rcx
            call rbx
            hlt
        """,
        data=f + bytes(0x200),
        stop_on_attack=False,
    )
    assert emu.run() == 0
    assert emu.cpu.get(Reg.RDX) == 0x1111111111111111
    assert emu.cpu.get(Reg.RAX) == 0x2222222222222222
    assert emu.flushes == 2  # the mprotect, then the patch
    # No instruction ran twice from the cache: ``f`` was decoded again
    # after the patch flushed it.
    assert emu.translations == emu.steps == 18


# -- where an indirect transfer lands -----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    form=st.sampled_from(("ret", "jmp {reg}", "jmp [{reg}{disp:+d}]", "call {reg}")),
    reg=st.sampled_from(ALL_REGS),
    values=st.lists(
        st.integers(min_value=0, max_value=MASK64),
        min_size=len(ALL_REGS),
        max_size=len(ALL_REGS),
    ),
    rsp_slot=st.integers(min_value=-64, max_value=64),
    base_slot=st.integers(min_value=-64, max_value=64),
    disp=st.integers(min_value=-256, max_value=256),
    word=st.integers(min_value=0, max_value=MASK64),
)
@example(
    form="call {reg}",
    reg=Reg.RSP,
    values=[0] * len(ALL_REGS),
    rsp_slot=0,
    base_slot=0,
    disp=0,
    word=0x401000,
)
def test_transfer_target_is_where_the_step_lands(
    form, reg, values, rsp_slot, base_slot, disp, word
):
    source = form.format(reg=reg.name.lower(), disp=disp)
    emu = emu_for(source)
    rsp0 = emu.cpu.get(Reg.RSP)
    for r, value in zip(ALL_REGS, values):
        emu.cpu.set(r, value)
    rsp = rsp0 + 8 * rsp_slot
    emu.cpu.set(Reg.RSP, rsp)
    emu.memory.write_u64(rsp, word)
    if form.startswith("jmp ["):
        emu.cpu.set(reg, rsp0 + 8 * base_slot)
        emu.memory.write_u64(rsp0 + 8 * base_slot + disp, word)
    target = emu.transfer_target(emu.fetch())
    emu.step()
    assert emu.cpu.rip == target
    if source == "call rsp":
        assert target == rsp - 8
