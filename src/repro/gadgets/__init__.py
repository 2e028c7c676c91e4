"""The gadget pipeline: extraction, records, classification, subsumption."""

from .classify import (
    SyntacticGadget,
    classify_window,
    count_by_type,
    scan_syntactic_gadgets,
    total_gadgets,
)
from .extract import (
    ExtractionConfig,
    ExtractionStats,
    candidate_offsets,
    extract_gadgets,
    make_executor,
    plan_candidates,
    run_candidates,
    syntactic_scan,
)
from .record import GadgetRecord, JmpType, record_from_path
from .subsumption import (
    SubsumptionStats,
    bucketize,
    deduplicate_gadgets,
    fingerprint,
    subsumes,
    winnow_bucket,
)

__all__ = [
    "ExtractionConfig",
    "ExtractionStats",
    "GadgetRecord",
    "JmpType",
    "SubsumptionStats",
    "SyntacticGadget",
    "bucketize",
    "candidate_offsets",
    "classify_window",
    "count_by_type",
    "deduplicate_gadgets",
    "extract_gadgets",
    "fingerprint",
    "make_executor",
    "plan_candidates",
    "record_from_path",
    "run_candidates",
    "scan_syntactic_gadgets",
    "subsumes",
    "syntactic_scan",
    "total_gadgets",
    "winnow_bucket",
]
