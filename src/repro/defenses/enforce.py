"""Policy enforcement in the concrete emulator — the ground-truth layer.

A :class:`PolicyEnforcer` attaches to an :class:`~repro.emulator.cpu.Emulator`
through two existing hook points:

* ``Emulator.step_hook`` — inspects every instruction *before* it
  executes; for indirect control transfers (``ret``, ``jmp reg``,
  ``jmp [mem]``, ``call reg``) it asks
  :meth:`~repro.emulator.cpu.Emulator.transfer_target` where the
  transfer lands and checks that against the policy's CFI target sets
  and the shadow stack.  A violation raises
  :class:`DefenseViolation`, modelling the process kill a hardware or
  instrumentation CFI monitor performs.
* ``SyscallHandler.syscall_filter`` — vetoes W^X-violating
  ``mprotect``/``mmap`` requests with ``-EACCES``, modelling an
  mprotect-hooking kernel module: the guest sees the error and keeps
  running (denials are recorded, not fatal).

ASLR is enforced on the payload, not per instruction: without a leak
the attacker's absolute addresses are wrong, which
:func:`validate_payload_with_policy` models by sliding every payload
word that points into the image by a fixed nonzero delta before
injection.  With ``leak_budget`` remaining, one leak-oracle query is
consumed and the payload runs unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..binfmt.image import BinaryImage
from ..emulator.cpu import Emulator
from ..emulator.memory import PERM_W
from ..emulator.syscalls import PROT_EXEC, PROT_WRITE, Sys, SyscallEvent
from ..isa.instructions import Instruction, Op
from ..isa.registers import MASK64
from ..obs import metrics, span
from .cfi import CFITargets, KIND_CALL, KIND_JUMP, KIND_RET, shared_cfi_targets
from .policy import CFIMode, DefensePolicy

_EACCES = -13 & ((1 << 64) - 1)

#: The deterministic wrong-guess delta for un-leaked ASLR payloads:
#: page-aligned and small enough to stay inside the 64-bit space.
ASLR_SLIDE = 0x10000


class DefenseViolation(Exception):
    """A mitigation detected the attack and killed the process."""

    def __init__(self, policy: str, kind: str, detail: str, addr: Optional[int] = None):
        super().__init__(f"[{policy}] {kind}: {detail}")
        self.policy = policy
        self.kind = kind  # "cfi" | "shadow_stack"
        self.detail = detail
        self.addr = addr


class PolicyEnforcer:
    """Checks one :class:`DefensePolicy` over a concrete execution."""

    def __init__(
        self,
        policy: DefensePolicy,
        targets: Optional[CFITargets] = None,
        *,
        image: Optional[BinaryImage] = None,
    ) -> None:
        if policy.cfi is not CFIMode.OFF and targets is None:
            if image is None:
                raise ValueError("CFI enforcement needs CFITargets or the image")
            targets = shared_cfi_targets(image.to_bytes())
        self.policy = policy
        self.targets = targets
        self.shadow: List[int] = []
        self.checks = 0
        self.denied_syscalls: List[Tuple[Sys, tuple]] = []
        self._emu: Optional[Emulator] = None

    # -- wiring -----------------------------------------------------------

    def install(self, emu: Emulator) -> "PolicyEnforcer":
        """Attach to an emulator's step and syscall hooks."""
        self._emu = emu
        emu.step_hook = self.step_hook
        emu.syscalls.syscall_filter = self.syscall_filter
        return self

    # -- control-transfer checks ------------------------------------------

    def _check_cfi(self, kind: str, target: int) -> None:
        if self.policy.cfi is CFIMode.OFF:
            return
        assert self.targets is not None
        self.checks += 1
        if not self.targets.valid_target(self.policy.cfi, kind, target):
            metrics().counter("defense.cfi_violations").inc()
            raise DefenseViolation(
                self.policy.name,
                "cfi",
                f"{self.policy.cfi.value} CFI rejects {kind} to {target:#x}",
                addr=target,
            )

    def step_hook(self, emu: Emulator, insn: Instruction) -> None:
        op = insn.op
        if op is Op.RET:
            target = emu.transfer_target(insn)
            self._check_cfi(KIND_RET, target)
            if self.policy.shadow_stack:
                self.checks += 1
                if not self.shadow or self.shadow[-1] != target:
                    metrics().counter("defense.shadow_violations").inc()
                    expected = f"{self.shadow[-1]:#x}" if self.shadow else "<empty>"
                    raise DefenseViolation(
                        self.policy.name,
                        "shadow_stack",
                        f"ret to {target:#x}, shadow stack holds {expected}",
                        addr=target,
                    )
                self.shadow.pop()
        elif op is Op.JMP_R or op is Op.JMP_M:
            self._check_cfi(KIND_JUMP, emu.transfer_target(insn))
        elif op is Op.CALL_R:
            self._check_cfi(KIND_CALL, emu.transfer_target(insn))
            if self.policy.shadow_stack:
                self.shadow.append(insn.end)
        elif op is Op.CALL_REL:
            if self.policy.shadow_stack:
                self.shadow.append(insn.end)

    # -- syscall checks ----------------------------------------------------

    def syscall_filter(self, sys_no: Sys, args: tuple) -> Optional[int]:
        if not self.policy.wx:
            return None
        if sys_no is Sys.MPROTECT:
            addr, length, prot = args[0], args[1], args[2]
            if not prot & PROT_EXEC:
                return None
            if prot & PROT_WRITE:
                return self._deny(sys_no, args, "W+X mprotect request")
            if self._emu is not None and self._emu.memory.any_page_with(
                PERM_W, addr, length
            ):
                return self._deny(sys_no, args, "mprotect +X on writable pages")
        elif sys_no is Sys.MMAP and self.policy.wx_strict_mmap:
            prot = args[2]
            if prot & PROT_EXEC and prot & PROT_WRITE:
                return self._deny(sys_no, args, "W+X mmap request")
        return None

    def _deny(self, sys_no: Sys, args: tuple, reason: str) -> int:
        self.denied_syscalls.append((sys_no, args[:3]))
        metrics().counter("defense.syscalls_denied").inc()
        return _EACCES


def enforced_emulator(
    image: BinaryImage,
    policy: DefensePolicy,
    *,
    targets: Optional[CFITargets] = None,
    stop_on_attack: bool = True,
    step_limit: int = 2_000_000,
) -> Tuple[Emulator, PolicyEnforcer]:
    """An emulator for ``image`` with ``policy`` hooks installed."""
    emu = Emulator(image, stop_on_attack=stop_on_attack, step_limit=step_limit)
    enforcer = PolicyEnforcer(policy, targets, image=image)
    enforcer.install(emu)
    return emu, enforcer


# ---------------------------------------------------------------------------
# Enforced payload validation
# ---------------------------------------------------------------------------


@dataclass
class EnforcedRun:
    """The outcome of one payload execution under a policy."""

    ok: bool
    outcome: str  # "attack" | "cfi" | "shadow_stack" | "crash" | "no_attack"
    event: Optional[SyscallEvent] = None
    violation: Optional[str] = None
    denied_syscalls: int = 0
    leaks_used: int = 0
    cfi_checks: int = 0
    slide_applied: int = 0

    @property
    def blocked(self) -> bool:
        """Did the policy defeat the run (a kill, a vetoed syscall or
        an ASLR miss), rather than the payload itself?"""
        return not self.ok and bool(
            self.outcome in ("cfi", "shadow_stack")
            or self.denied_syscalls
            or self.slide_applied
        )


def _slide_image_words(payload_words, image: BinaryImage, slide: int):
    """Shift every payload word that points into an image section.

    Models an un-leaked ASLR guess: the attacker baked in addresses for
    the non-randomized layout, the loader put the image ``slide`` bytes
    away, so every absolute pointer (gadget addresses *and* data
    addresses) misses by ``-slide``.
    """
    spans = [
        (s.addr, s.addr + max(len(s.data), 1)) for s in image.sections
    ]

    def in_image(word: int) -> bool:
        return any(lo <= word < hi for lo, hi in spans)

    return [
        (w + slide) & MASK64 if in_image(w) else w for w in payload_words
    ]


def validate_payload_with_policy(
    image: BinaryImage,
    payload,
    resolved,
    policy: DefensePolicy,
    *,
    targets: Optional[CFITargets] = None,
    step_limit: int = 500_000,
) -> EnforcedRun:
    """Run ``payload`` against ``image`` with ``policy`` enforced.

    Delivers through :func:`repro.planner.payload.deliver_payload`, the
    unprotected validator's path (same threat model, stack placement
    and goal matching), with the ASLR knowledge model applied to the
    injected words and the policy hooks installed at the moment of
    diversion.  Does not mutate ``payload.validated``.
    """
    from ..planner.payload import deliver_payload, event_matches

    with span("defense.enforce") as sp:
        leaks_used = 0
        words = list(payload.words)
        entry = payload.entry_address
        slide_applied = 0
        if policy.aslr:
            if policy.leak_budget >= 1:
                leaks_used = 1
            else:
                words = _slide_image_words(words, image, ASLR_SLIDE)
                entry = (entry + ASLR_SLIDE) & MASK64
                slide_applied = ASLR_SLIDE

        enforcer = PolicyEnforcer(policy, targets, image=image)
        run = EnforcedRun(ok=False, outcome="crash", leaks_used=leaks_used)
        try:
            run.event = deliver_payload(
                image, words, entry, step_limit=step_limit, on_divert=enforcer.install
            )
        except DefenseViolation as violation:
            run.outcome = violation.kind
            run.violation = str(violation)
            sp.add("violations")
        except Exception:
            sp.add("crashes")
        else:
            if run.event is None:
                return run  # the payload never got control
            run.ok = event_matches(run.event, resolved)
            run.outcome = "attack" if run.ok else "no_attack"
            sp.add("attacks" if run.ok else "misses")
        if run.outcome != "crash":
            sp.add("cfi_checks", enforcer.checks)
        run.denied_syscalls = len(enforcer.denied_syscalls)
        run.cfi_checks = enforcer.checks
        run.slide_applied = slide_applied
        return run
