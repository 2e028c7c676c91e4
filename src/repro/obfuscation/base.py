"""Obfuscation pass infrastructure.

Every pass transforms an :class:`~repro.compiler.ir.IRModule` in place
and returns it, mirroring how Obfuscator-LLVM passes rewrite LLVM IR
between the frontend and codegen.  Passes are deterministic for a given
seed, so every experiment in the paper reproduction is replayable.
"""

from __future__ import annotations

import random

from ..compiler.ir import IRFunction, IRModule

#: Functions that passes must never touch (reserved for the runtime).
PROTECTED_FUNCTIONS = frozenset()


class ObfuscationPass:
    """Base class: subclasses implement :meth:`run_function`."""

    #: Short identifier used in configuration and reports.
    name: str = "base"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng_for(self, fn: IRFunction) -> random.Random:
        # Seed with a string, not a tuple hash: str hashing is
        # randomized per process (PYTHONHASHSEED) while random.Random's
        # string seeding is SHA-512 based and stable — obfuscated builds
        # must be byte-identical across runs for every experiment.
        return random.Random(f"{self.seed}/{self.name}/{fn.name}")

    def run(self, module: IRModule) -> IRModule:
        for fn in list(module.functions.values()):
            if fn.name in PROTECTED_FUNCTIONS:
                continue
            self.run_function(module, fn)
        return module

    def run_function(self, module: IRModule, fn: IRFunction) -> None:  # pragma: no cover
        raise NotImplementedError
