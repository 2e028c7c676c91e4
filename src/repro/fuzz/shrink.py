"""Auto-shrinker: reduce a failing case to a minimal reproducer.

Three reductions, applied to a fixpoint (each candidate is accepted
only if the original oracle still fails on it):

* **re-rooting** — move the window start to a later decode boundary,
  dropping leading instructions without touching any bytes;
* **instruction drop** — remove one body instruction, re-lay the
  window out from the text base, and re-target indexed conditional
  jumps (via :func:`repro.fuzz.gen.spec_of`/``relayout``);
* **byte trim** — for raw-image oracles, delete chunks (then single
  bytes) ddmin-style.

Programs and assembly sources shrink by dropping whole source lines.  The shrinker never
invents inputs: every accepted candidate failed the same oracle, so
the final case is a true minimal-ish reproducer suitable for the
regression corpus.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..isa.encoding import decode_window, encode_program
from ..isa.instructions import Instruction, Op
from .gen import relayout, spec_of
from .oracles import Case, Emulator, EmulatorFactory, clone_case, run_case

#: Upper bound on oracle re-runs per shrink (keeps pathological cases
#: from dominating a campaign).
_MAX_CHECKS = 200


def window_chain(text: bytes, offset: int) -> List[Instruction]:
    """The fall-through decode chain from ``offset`` up to and
    including the first indirect transfer (empty if none decodes)."""
    chain: List[Instruction] = []
    for insn in decode_window(text, offset, base_addr=0):
        chain.append(insn)
        if insn.is_indirect() or insn.op is Op.SYSCALL:
            break
    return chain


def window_insn_count(case: Case) -> int:
    """Reproducer size metric: instructions in the fall-through chain."""
    return len(window_chain(case.text, case.offset))


def shrink_case(
    case: Case,
    *,
    emulator_factory: EmulatorFactory = Emulator,
    max_checks: int = _MAX_CHECKS,
    still_fails: Optional[Callable[[Case], bool]] = None,
) -> Case:
    """Reduce ``case`` while it keeps failing its oracle.

    Returns the smallest failing case found (possibly ``case`` itself
    when no reduction reproduces).  ``still_fails`` overrides the
    reproduction predicate (tests use it to observe oracle calls).
    """
    budget = [max_checks]

    def fails(candidate: Case) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if still_fails is not None:
            return still_fails(candidate)
        try:
            return bool(run_case(candidate, emulator_factory=emulator_factory))
        except Exception:
            return False  # a reduction that crashes the oracle is no reproducer

    if case.kind == "window":
        return _shrink_window(case, fails, budget)
    if case.kind in ("image", "formula", "ops"):
        # A formula case's bytes are conjunct indices, an ops case's
        # memory-op indices: dropping one drops a conjunct or an op.
        return _shrink_bytes(case, fails, budget)
    if case.kind in ("program", "asm"):
        return _shrink_program(case, fails, budget)
    return case


_Pred = Callable[[Case], bool]


def _shrink_window(case: Case, fails: _Pred, budget: List[int]) -> Case:
    current = case
    changed = True
    while changed and budget[0] > 0:
        changed = False
        # 1. re-root at the next decode boundary (drop leading insns).
        chain = window_chain(current.text, current.offset)
        for insn in chain[:-1]:
            candidate = clone_case(current, offset=insn.addr + insn.size)
            if fails(candidate):
                current = candidate
                changed = True
                break
        if changed:
            continue
        # 2. trim the text to exactly the window's bytes.
        chain = window_chain(current.text, current.offset)
        if chain:
            end = chain[-1].addr + chain[-1].size
            if current.offset != 0 or end != len(current.text):
                candidate = clone_case(
                    current, text=current.text[current.offset : end], offset=0
                )
                if fails(candidate):
                    current = candidate
                    changed = True
                    continue
        # 3. drop one instruction with relayout (needs a clean chain).
        chain = window_chain(current.text, current.offset)
        if len(chain) > 1:
            rebased = relayout(spec_of(chain), base=0)
            for k in range(len(rebased) - 1):  # never drop the terminator
                spec = spec_of(rebased)
                del spec[k]
                adjusted = []
                for insn, target in spec:
                    if target is not None:
                        if target > k:
                            target -= 1
                        target = min(target, len(spec))
                    adjusted.append((insn, target))
                candidate = clone_case(
                    current, text=encode_program(relayout(adjusted, base=0)), offset=0
                )
                if fails(candidate):
                    current = candidate
                    changed = True
                    break
    return current


def _shrink_bytes(case: Case, fails: _Pred, budget: List[int]) -> Case:
    current = case
    chunk = max(1, len(current.text) // 2)
    while chunk >= 1 and budget[0] > 0:
        pos = 0
        while pos < len(current.text) and budget[0] > 0:
            trimmed = current.text[:pos] + current.text[pos + chunk :]
            if trimmed and fails(clone_case(current, text=trimmed)):
                current = clone_case(current, text=trimmed)
            else:
                pos += chunk
        chunk //= 2
    return current


def _shrink_program(case: Case, fails: _Pred, budget: List[int]) -> Case:
    current = case
    changed = True
    while changed and budget[0] > 0:
        changed = False
        lines = current.source.splitlines()
        for k in range(len(lines)):
            candidate = clone_case(
                current, source="\n".join(lines[:k] + lines[k + 1 :]) + "\n"
            )
            if fails(candidate):
                current = candidate
                changed = True
                break
    return current
