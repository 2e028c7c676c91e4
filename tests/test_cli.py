"""Tests for the `nfl` command-line interface."""

import pytest

from repro.binfmt.image import BinaryImage
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


def _text_range(binary):
    text = BinaryImage.from_bytes(binary.read_bytes()).text
    return text.addr, text.addr + len(text.data)


def test_disasm_rejects_a_start_below_the_text_section(compiled, capsys):
    addr, end = _text_range(compiled)
    assert main(["disasm", str(compiled), "--start", hex(addr - 2)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"outside the text section [{addr:#x}, {end:#x})" in captured.err


def test_disasm_rejects_a_start_past_the_text_section(compiled, capsys):
    _, end = _text_range(compiled)
    for start in (end, 0x900000):
        assert main(["disasm", str(compiled), "--start", hex(start)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside the text section" in captured.err
    # The section's last byte is still a valid start.
    assert main(["disasm", str(compiled), "--start", hex(end - 1)]) == 0
    assert capsys.readouterr().out.startswith(f"{end - 1:#010x}:")


def test_gadgets_census(compiled, capsys):
    assert main(["gadgets", str(compiled), "--types", "--list", "3"]) == 0
    out = capsys.readouterr().out
    assert "syntactic gadgets" in out
    assert "RET" in out


def test_census_subcommand(compiled, capsys):
    """``nfl census`` prints the defense census: one row per policy."""
    assert main(["census", str(compiled), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "surviving" in out and "coarse_cfi" in out and "shadow_stack" in out
    assert main(["census", str(compiled), "--policies", "wx", "--no-cache"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == ["wx"]


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
