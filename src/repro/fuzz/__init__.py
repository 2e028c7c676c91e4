"""repro.fuzz — deterministic differential fuzzing across the stack.

The reproduction maintains five semantically-coupled views of every
binary: the compiler, the concrete emulator, the symbolic executor,
the static-analysis prefilter, and the winnowed gadget pools.  This
package hunts for disagreements between them with seeded generators
(:mod:`.gen`), a bank of cross-layer oracles (:mod:`.oracles`), an
auto-shrinker (:mod:`.shrink`), and a permanent regression corpus
(:mod:`.corpus`); :mod:`.campaign` ties them into the ``nfl fuzz``
command.
"""

from .campaign import ORACLE_NAMES, ORACLES, FuzzFailure, FuzzReport, OracleStats, run_fuzz
from .corpus import (
    CORPUS_VERSION,
    DEFAULT_CORPUS,
    case_from_dict,
    case_to_dict,
    find_repo_corpus,
    load_corpus,
    replay_corpus,
    save_case,
)
from .gen import (
    gen_asm,
    gen_bytes,
    gen_chain_tail,
    gen_program,
    gen_threat_tail,
    gen_window,
    relayout,
    spec_of,
)
from .oracles import (
    Case,
    Inconclusive,
    check_asm,
    check_obfuscation,
    check_plan_search,
    check_planner,
    check_prefilter,
    check_roundtrip,
    check_scan,
    check_serialize,
    check_symex,
    check_warm_cache,
    check_window,
    check_winnow,
    run_case,
)
from .shrink import shrink_case, window_chain, window_insn_count

__all__ = [
    "ORACLE_NAMES",
    "ORACLES",
    "FuzzFailure",
    "FuzzReport",
    "OracleStats",
    "run_fuzz",
    "CORPUS_VERSION",
    "DEFAULT_CORPUS",
    "case_from_dict",
    "case_to_dict",
    "find_repo_corpus",
    "load_corpus",
    "replay_corpus",
    "save_case",
    "gen_asm",
    "gen_bytes",
    "gen_chain_tail",
    "gen_threat_tail",
    "gen_program",
    "gen_window",
    "relayout",
    "spec_of",
    "Case",
    "Inconclusive",
    "check_asm",
    "check_obfuscation",
    "check_plan_search",
    "check_planner",
    "check_prefilter",
    "check_roundtrip",
    "check_scan",
    "check_serialize",
    "check_symex",
    "check_warm_cache",
    "check_window",
    "check_winnow",
    "run_case",
    "shrink_case",
    "window_chain",
    "window_insn_count",
]
