"""The on-disk regression corpus (``tests/corpus/*.json``).

Every failing case the fuzzer shrinks gets banked here as one small
JSON file; ``tests/test_corpus.py`` replays the whole directory on
every CI run, so a divergence fixed once can never silently return.

File names are content-addressed (``<oracle>-<digest>.json``), which
makes banking idempotent and the campaign output byte-stable.
"""

from __future__ import annotations

import json
from hashlib import blake2b
from pathlib import Path
from typing import List, Optional, Union

from ..emulator.cpu import Emulator
from .oracles import Case, EmulatorFactory, run_case

CORPUS_VERSION = 1

#: The repo's canonical corpus location (relative to the repo root).
DEFAULT_CORPUS = Path("tests") / "corpus"


def case_to_dict(case: Case, description: str = "") -> dict:
    return {
        "version": CORPUS_VERSION,
        "oracle": case.oracle,
        "kind": case.kind,
        "description": description or case.note,
        "text_hex": case.text.hex(),
        "offset": case.offset,
        "env_seed": case.env_seed,
        "max_insns": case.max_insns,
        "max_paths": case.max_paths,
        "source": case.source,
        "configs": list(case.configs),
    }


def case_from_dict(data: dict) -> Case:
    return Case(
        oracle=data["oracle"],
        kind=data["kind"],
        text=bytes.fromhex(data.get("text_hex", "")),
        offset=int(data.get("offset", 0)),
        env_seed=int(data.get("env_seed", 0)),
        max_insns=int(data.get("max_insns", Case.max_insns)),
        max_paths=int(data.get("max_paths", Case.max_paths)),
        source=data.get("source", ""),
        configs=tuple(data.get("configs", ())),
        note=data.get("description", ""),
    )


def case_filename(case: Case) -> str:
    payload = case_to_dict(case)
    del payload["description"]  # replay-irrelevant; names stay stable across re-wording
    digest = blake2b(json.dumps(payload, sort_keys=True).encode(), digest_size=6).hexdigest()
    return f"{case.oracle}-{digest}.json"


def save_case(directory: Union[str, Path], case: Case, description: str = "") -> Path:
    """Bank a (shrunken) case; returns the file path. Idempotent."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case)
    blob = json.dumps(case_to_dict(case, description), indent=2, sort_keys=True) + "\n"
    path.write_text(blob)
    return path


def load_corpus(directory: Union[str, Path]) -> List[Case]:
    """All banked cases, in sorted filename order (deterministic)."""
    directory = Path(directory)
    cases: List[Case] = []
    if not directory.is_dir():
        return cases
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("version") != CORPUS_VERSION:
            raise ValueError(f"{path}: unsupported corpus version {data.get('version')}")
        cases.append(case_from_dict(data))
    return cases


def replay_corpus(
    directory: Union[str, Path],
    *,
    emulator_factory: EmulatorFactory = Emulator,
) -> List[str]:
    """Replay every banked case; returns all failure messages."""
    failures: List[str] = []
    for case in load_corpus(directory):
        for message in run_case(case, emulator_factory=emulator_factory):
            failures.append(f"[{case.oracle}] {case.note or case_filename(case)}: {message}")
    return failures


def find_repo_corpus(start: Optional[Path] = None) -> Optional[Path]:
    """Locate ``tests/corpus`` upward from ``start`` (or the cwd)."""
    node = (start or Path.cwd()).resolve()
    for candidate in (node, *node.parents):
        corpus = candidate / DEFAULT_CORPUS
        if corpus.is_dir():
            return corpus
    return None
