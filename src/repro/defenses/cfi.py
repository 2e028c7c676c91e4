"""CFI target sets derived from the recovered control-flow graph.

Both CFI granularities are *label sets over addresses*: a policy check
asks "may a transfer of kind K land at address A?".  The sets come from
the same recursive-traversal CFG (:func:`repro.analysis.cfg.recover_cfg`)
the extractor's aligned probing uses — i.e. the defender's static view
of the binary, built from the obfuscated artifact itself:

* ``aligned`` — every recovered instruction boundary.  Coarse-grained
  CFI (kBouncer/ROPecker class) accepts any of these for any indirect
  transfer: it kills the *unaligned* gadgets obfuscation multiplies,
  but keeps every aligned one.
* ``return_sites`` — addresses immediately following a ``call``
  (direct or indirect).  Fine-grained backward-edge CFI restricts
  ``ret`` to these.
* ``entries`` — function entries (in-text symbols plus the image
  entry).  Fine-grained forward-edge CFI restricts indirect
  jumps/calls to these.

The sets are read from the recovered blocks' addresses and, for
return sites, the byte table's opcode and size at each block's last
address, so building them decodes no instruction.

Transfers that leave the text section (into the stack, heap, or a
fresh ``mmap``) are CFI violations under either granularity — the CFG
gives the defender no label there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import FrozenSet

from ..analysis.cfg import recover_cfg
from ..binfmt.image import BinaryImage
from ..isa.encoding import BYTE_TABLE
from ..isa.instructions import Op
from .policy import CFIMode

#: Kinds of indirect control transfer a CFI check distinguishes.
KIND_RET = "ret"
KIND_JUMP = "jump"
KIND_CALL = "call"


@dataclass(frozen=True)
class CFITargets:
    """The defender's valid-target sets for one image."""

    aligned: FrozenSet[int]
    return_sites: FrozenSet[int]
    entries: FrozenSet[int]

    @classmethod
    def build(cls, image: BinaryImage) -> "CFITargets":
        """Derive the target sets from the image's recovered CFG."""
        cfg = recover_cfg(image)
        code = image.text.data
        base = image.text.addr
        aligned = set()
        return_sites = set()
        for block in cfg.blocks.values():
            aligned.update(block.addrs)
            # A call ends its block, so it is the block's last address.
            last = block.addrs[-1]
            shape = BYTE_TABLE[code[last - base]]
            if shape.op in (Op.CALL_REL, Op.CALL_R):
                return_sites.add(last + shape.size)
        entries = set(cfg.entries)
        # Entries and return sites are instruction boundaries by
        # construction; keep ``aligned`` a superset even when recovery
        # missed a block (e.g. a call-fallthrough never decoded).
        aligned |= return_sites | entries
        return cls(
            aligned=frozenset(aligned),
            return_sites=frozenset(return_sites),
            entries=frozenset(entries),
        )

    def valid_target(self, mode: CFIMode, kind: str, target: int) -> bool:
        """May a transfer of ``kind`` land at ``target`` under ``mode``?"""
        if mode is CFIMode.OFF:
            return True
        if mode is CFIMode.COARSE:
            return target in self.aligned
        if kind == KIND_RET:
            return target in self.return_sites
        return target in self.entries

    def fine_reachable(self, target: int) -> bool:
        """Is ``target`` a valid landing point for *any* transfer kind
        under fine-grained CFI?  (The necessary condition the gadget
        filter uses: a chain position for the gadget may still exist.)
        """
        return target in self.return_sites or target in self.entries


@functools.lru_cache(maxsize=8)
def shared_cfi_targets(image_bytes: bytes) -> CFITargets:
    """A process-wide cache of :class:`CFITargets` per image.

    Every CFI request against one binary (each policy, goal set and
    payload validation of a sweep) needs the same target sets, and
    recovering the CFG costs as much as planning a small request.
    Keyed by the image's bytes, as :func:`~repro.staticanalysis.
    decode_graph.shared_decode_graph` is by its text; the targets are
    frozen sets, so sharing cannot change any caller's results.
    """
    return CFITargets.build(BinaryImage.from_bytes(image_bytes))
