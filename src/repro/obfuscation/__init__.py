"""Obfuscation passes: O-LLVM and Tigress equivalents over the MC IR."""

from .base import ObfuscationPass
from .bogus_control_flow import BogusControlFlow
from .encode_data import EncodeData
from .flattening import ControlFlowFlattening
from .opaque import OpaquePredicate, make_always_true, make_opaque_predicate
from .pipeline import (
    BOGUS_CF,
    CONFIGS,
    ENCODE_DATA,
    FLATTENING,
    JIT_DYNAMIC,
    LLVM_OBF,
    NONE,
    ObfuscationConfig,
    SELF_MODIFY,
    SINGLE_METHOD_CONFIGS,
    SUBSTITUTION,
    TIGRESS,
    VIRTUALIZATION,
    build_program,
)
from .self_modify import apply_self_modification
from .substitution import InstructionSubstitution
from .virtualization import Virtualization

__all__ = [
    "BOGUS_CF",
    "BogusControlFlow",
    "CONFIGS",
    "ControlFlowFlattening",
    "ENCODE_DATA",
    "EncodeData",
    "FLATTENING",
    "InstructionSubstitution",
    "JIT_DYNAMIC",
    "LLVM_OBF",
    "NONE",
    "ObfuscationConfig",
    "ObfuscationPass",
    "OpaquePredicate",
    "SELF_MODIFY",
    "SINGLE_METHOD_CONFIGS",
    "SUBSTITUTION",
    "TIGRESS",
    "VIRTUALIZATION",
    "Virtualization",
    "apply_self_modification",
    "build_program",
    "make_always_true",
    "make_opaque_predicate",
]
