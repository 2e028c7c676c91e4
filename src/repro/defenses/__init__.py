"""Composable mitigation models — the defense side of the ledger.

The paper measures how much code-reuse attack surface obfuscation
*adds*; this package measures how much of that surface deployed
mitigations *reclaim*.  One :class:`DefensePolicy` plugs into three
layers:

1. **enforcement** (:mod:`.enforce`) — CFI, shadow stack and W^X
   checks on a concrete emulator run; the ground truth payloads are
   validated against;
2. **filtering** (:mod:`.survive`) — per-gadget survival over the
   winnowed pools, giving the census its surviving-attack-surface
   counts;
3. **planning** — ``GadgetPlanner(defense=policy)`` chains only
   surviving gadgets and validates under enforcement, adding the
   defense dimension to the Table-4-style payload results.

See ``EXPERIMENTS.md`` ("Defense matrix") for the experiment built on
top, and ``benchmarks/test_defense_matrix.py`` for the artifact.
"""

from .cfi import CFITargets, KIND_CALL, KIND_JUMP, KIND_RET, shared_cfi_targets
from .census import (
    BENCH_DEFENSES_SCHEMA,
    defense_census,
    defense_matrix_entry,
    format_defense_census,
    format_defense_matrix,
    resolve_policies,
    validate_defense_matrix,
)
from .enforce import (
    ASLR_SLIDE,
    DefenseViolation,
    EnforcedRun,
    PolicyEnforcer,
    enforced_emulator,
    validate_payload_with_policy,
)
from .policy import (
    CFIMode,
    DEFAULT_CENSUS_POLICIES,
    DefensePolicy,
    POLICIES,
    parse_policy,
)
from .survive import SurvivalCensus, filter_pool, gadget_survives, killed_by

__all__ = [
    "ASLR_SLIDE",
    "BENCH_DEFENSES_SCHEMA",
    "CFIMode",
    "CFITargets",
    "DEFAULT_CENSUS_POLICIES",
    "DefensePolicy",
    "DefenseViolation",
    "EnforcedRun",
    "KIND_CALL",
    "KIND_JUMP",
    "KIND_RET",
    "POLICIES",
    "PolicyEnforcer",
    "SurvivalCensus",
    "defense_census",
    "defense_matrix_entry",
    "enforced_emulator",
    "filter_pool",
    "format_defense_census",
    "format_defense_matrix",
    "gadget_survives",
    "killed_by",
    "parse_policy",
    "resolve_policies",
    "shared_cfi_targets",
    "validate_defense_matrix",
    "validate_payload_with_policy",
]
