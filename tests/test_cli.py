"""Tests for the `nfl` command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
u64 main() {
    print(41 + 1);
    return 5;
}
"""


@pytest.fixture()
def compiled(tmp_path):
    src = tmp_path / "prog.mc"
    src.write_text(SOURCE)
    out = tmp_path / "prog.nflf"
    assert main(["cc", str(src), "-o", str(out)]) == 0
    return out


def test_cc_writes_binary(compiled):
    assert compiled.exists()
    assert compiled.read_bytes().startswith(b"NFLF")


def test_cc_default_output_name(tmp_path, monkeypatch, capsys):
    src = tmp_path / "thing.mc"
    src.write_text(SOURCE)
    monkeypatch.chdir(tmp_path)
    assert main(["cc", str(src)]) == 0
    assert (tmp_path / "thing.nflf").exists()


def test_cc_obfuscated(tmp_path):
    src = tmp_path / "prog.mc"
    src.write_text(SOURCE)
    plain = tmp_path / "plain.nflf"
    obf = tmp_path / "obf.nflf"
    main(["cc", str(src), "-o", str(plain)])
    main(["cc", str(src), "-o", str(obf), "--obfuscate", "llvm_obf"])
    assert obf.stat().st_size > plain.stat().st_size


def test_run_executes(compiled, capsys):
    status = main(["run", str(compiled)])
    captured = capsys.readouterr()
    assert status == 5
    assert "42" in captured.out


def test_disasm_lists_instructions(compiled, capsys):
    assert main(["disasm", str(compiled), "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5
    assert "0x00400000" in out


def test_gadgets_census(compiled, capsys):
    assert main(["gadgets", str(compiled), "--types", "--list", "3"]) == 0
    out = capsys.readouterr().out
    assert "syntactic gadgets" in out
    assert "RET" in out


def test_census_subcommand(compiled, capsys):
    assert main(["census", str(compiled), "--static"]) == 0
    out = capsys.readouterr().out
    assert "syntactic gadgets" in out
    assert "semantically usable" in out
    assert "functional diversity" in out


def test_census_without_static_flag(compiled, capsys):
    assert main(["census", str(compiled)]) == 0
    out = capsys.readouterr().out
    assert "syntactic gadgets" in out
    assert "functional diversity" not in out


VULNERABLE_SOURCE = """
u8 optarg[256];
u64 optarg_len = 0;
u64 main() {
    u8 buf[8];
    for (u64 i = 0; i < optarg_len; i++) { buf[i] = optarg[i]; }
    print(buf[0]);
    return 0;
}
"""

CLEAN_SOURCE = """
u8 optarg[256];
u64 optarg_len = 0;
u64 main() {
    u8 buf[8];
    for (u64 i = 0; i < optarg_len; i++) {
        if (i < 8) { buf[i] = optarg[i]; }
    }
    print(buf[0]);
    return 0;
}
"""


def test_lint_flags_overflow_with_nonzero_exit(tmp_path, capsys):
    src = tmp_path / "vuln.mc"
    src.write_text(VULNERABLE_SOURCE)
    assert main(["lint", str(src)]) == 1
    out = capsys.readouterr().out
    assert "overflow finding" in out
    assert "buf" in out and "optarg" in out


def test_lint_clean_source_exits_zero(tmp_path, capsys):
    src = tmp_path / "clean.mc"
    src.write_text(CLEAN_SOURCE)
    assert main(["lint", str(src)]) == 0
    assert "no overflow findings" in capsys.readouterr().out


def test_lint_custom_sources(tmp_path, capsys):
    src = tmp_path / "vuln.mc"
    src.write_text(VULNERABLE_SOURCE.replace("optarg", "netbuf"))
    # Default sources do not include "netbuf": clean.
    assert main(["lint", str(src)]) == 0
    # Telling the checker the real attacker surface flags it.
    assert main(["lint", str(src), "--sources", "netbuf"]) == 1


def test_plan_subcommand(tmp_path, capsys):
    # A binary with a known chain: compile a trivial program (the
    # runtime provides goal gadgets) and ask for mprotect.
    src = tmp_path / "prog.mc"
    src.write_text(SOURCE)
    out = tmp_path / "prog.nflf"
    main(["cc", str(src), "-o", str(out), "--obfuscate", "encode_data", "--seed", "7"])
    status = main(["plan", str(out), "--goal", "mprotect", "--max-plans", "2"])
    captured = capsys.readouterr()
    assert "gadgets:" in captured.out
    assert "validated payloads" in captured.out
    assert status in (0, 1)  # chain presence depends on the build


def test_unknown_config_rejected(tmp_path, capsys):
    src = tmp_path / "prog.mc"
    src.write_text(SOURCE)
    with pytest.raises(SystemExit):
        main(["cc", str(src), "--obfuscate", "nonsense"])


def test_extract_trace_flag_writes_valid_jsonl(compiled, tmp_path, capsys):
    from repro.obs import validate_trace_file

    trace = tmp_path / "t.jsonl"
    assert (
        main(
            ["extract", str(compiled), "--max-insns", "4",
             "--no-cache", "--trace", str(trace)]
        )
        == 0
    )
    spans = validate_trace_file(trace)
    names = {s["name"] for s in spans}
    assert {"pipeline", "extract", "extract.symex", "winnow"} <= names
    captured = capsys.readouterr()
    assert "spans written" in captured.err


def test_extract_rejects_jobs_flag(compiled, capsys):
    """The pipeline runs in one process; there is no worker count to set."""
    with pytest.raises(SystemExit):
        main(["extract", str(compiled), "--jobs", "2", "--no-cache"])
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_trace_subcommand_summarizes(compiled, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    main(["extract", str(compiled), "--max-insns", "4",
          "--no-cache", "--trace", str(trace)])
    capsys.readouterr()
    assert main(["trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pipeline")
    assert "extract" in out and "winnow" in out and "wall=" in out


def test_trace_subcommand_rejects_invalid_input(tmp_path, capsys):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text("not a trace\n")
    assert main(["trace", str(bogus)]) == 1
    assert "invalid trace" in capsys.readouterr().err
    assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err
