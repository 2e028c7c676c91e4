"""Gadget survival under a defense policy — the filtering layer.

:func:`killed_by` is the one survival rule; :func:`gadget_survives`
and :func:`filter_pool` both read it.  It is a *necessary* condition:
a gadget survives only if some chain position could legally use it
under the policy.  It deliberately over-approximates — the
enforcement layer (:mod:`repro.defenses.enforce`) is the precise check
a finished payload must still pass — so "surviving gadgets"
upper-bounds the residual attack surface, the quantity the census
reports per defense × obfuscation.

Per mitigation:

* **coarse CFI** — the gadget's entry must be a recovered instruction
  boundary.  This is exactly the aligned/unaligned split: obfuscation's
  unaligned bonus gadgets die, its aligned blow-up survives.
* **fine CFI** — the gadget's entry must carry *some* fine-grained
  label (a call-preceded return site, or a function entry for the
  initial corrupted forward transfer).
* **shadow stack** — the diversion is a corrupted forward transfer, so
  the chain starts with an empty shadow frame: any gadget *ending* in
  ``ret`` would pop an empty (or mismatched) shadow stack.  Only
  jump-/call-/syscall-terminated gadgets survive (the JOP residue).
* **W^X / ASLR** — no per-gadget effect: W^X constrains syscalls and
  page permissions, ASLR constrains the attacker's knowledge of
  addresses.  Both bite at enforcement/planning time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..gadgets.record import GadgetRecord
from ..obs import metrics, span
from ..symex.executor import EndKind
from .cfi import CFITargets
from .policy import CFIMode, DefensePolicy


#: What kills a record (:func:`killed_by`) → the counter it bumps.
_KILL_COUNTERS = {
    "cfi": "defense.gadgets_killed_cfi",
    "shadow_stack": "defense.gadgets_killed_shadow",
}


def killed_by(
    policy: DefensePolicy,
    record: GadgetRecord,
    targets: Optional[CFITargets] = None,
) -> Optional[str]:
    """The mitigation that rules ``record`` out under ``policy``:
    ``"cfi"``, ``"shadow_stack"``, or None when it survives.

    ``targets`` is required when the policy enables CFI (the check is
    image-relative); pass the :class:`CFITargets` built for the record's
    image.
    """
    if policy.cfi is not CFIMode.OFF:
        if targets is None:
            raise ValueError("CFI survival needs the image's CFITargets")
        if policy.cfi is CFIMode.COARSE:
            cfi_ok = record.location in targets.aligned
        else:
            cfi_ok = targets.fine_reachable(record.location)
        if not cfi_ok:
            return "cfi"
    if policy.shadow_stack and record.end is EndKind.RET:
        return "shadow_stack"
    return None


def gadget_survives(
    policy: DefensePolicy,
    record: GadgetRecord,
    targets: Optional[CFITargets] = None,
) -> bool:
    """Could any chain position legally use ``record`` under ``policy``?"""
    return killed_by(policy, record, targets) is None


@dataclass
class SurvivalCensus:
    """Surviving-pool accounting for one (image, policy) pair."""

    policy: str
    pool_size: int = 0
    surviving: int = 0
    killed_cfi: int = 0
    killed_shadow_stack: int = 0
    by_jmp_type: Dict[str, int] = field(default_factory=dict)

    @property
    def survival_ratio(self) -> float:
        return self.surviving / self.pool_size if self.pool_size else 0.0

    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "pool_size": self.pool_size,
            "surviving": self.surviving,
            "survival_ratio": round(self.survival_ratio, 4),
            "killed_cfi": self.killed_cfi,
            "killed_shadow_stack": self.killed_shadow_stack,
            "by_jmp_type": dict(sorted(self.by_jmp_type.items())),
        }


def filter_pool(
    policy: DefensePolicy,
    records: Sequence[GadgetRecord],
    *,
    targets: Optional[CFITargets] = None,
    census: Optional[SurvivalCensus] = None,
) -> List[GadgetRecord]:
    """The pool's survivors under ``policy`` (:func:`killed_by`), in
    original order.

    A pure post-filter: the input pool (and anything cached by
    :mod:`repro.pipeline`) is never mutated, and with a policy that
    kills no gadget the very same list object comes back.
    """
    if policy.cfi is CFIMode.OFF and not policy.shadow_stack:
        survivors = records if isinstance(records, list) else list(records)
    else:
        counters = metrics()
        survivors = []
        with span("defense.filter") as sp:
            for record in records:
                killer = killed_by(policy, record, targets)
                if killer is None:
                    survivors.append(record)
                    continue
                counters.counter(_KILL_COUNTERS[killer]).inc()
                if census is not None:
                    if killer == "cfi":
                        census.killed_cfi += 1
                    else:
                        census.killed_shadow_stack += 1
            sp.add("pool", len(records))
            sp.add("surviving", len(survivors))
        counters.counter("defense.gadgets_surviving").inc(len(survivors))
    if census is not None:
        census.pool_size = len(records)
        census.surviving = len(survivors)
        for record in survivors:
            kind = record.jmp_type.value
            census.by_jmp_type[kind] = census.by_jmp_type.get(kind, 0) + 1
    return survivors
