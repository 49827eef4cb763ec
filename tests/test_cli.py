"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

PROGRAM = """
global @flag : i32 = 0
global @acc : i32 = 0
global @hits : i32 = 0

func @main() -> i32 {
entry:
  br %loop
loop:
  %i = phi i32 [0, %entry], [%i2, %latch]
  %f = load i32* @flag
  %c = icmp ne i32 %f, 0
  condbr i1 %c, %rare, %common
rare:
  store i32 1, i32* @hits
  br %join
common:
  br %join
join:
  %a = load i32* @acc
  %a2 = add i32 %a, %i
  store i32 %a2, i32* @acc
  br %latch
latch:
  %i2 = add i32 %i, 1
  %lc = icmp slt i32 %i2, 60
  condbr i1 %lc, %loop, %exit
exit:
  %r = load i32* @acc
  ret i32 %r
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "program.ir"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_executes_and_prints_result(self, program, capsys):
        assert main(["run", program]) == 0
        out = capsys.readouterr().out
        assert f"result: {sum(range(60))}" in out
        assert "instructions executed" in out


class TestFmt:
    def test_round_trips(self, program, capsys, tmp_path):
        assert main(["fmt", program]) == 0
        out = capsys.readouterr().out
        # The printed form must itself parse and verify.
        from repro.ir import parse_module, verify_module
        verify_module(parse_module(out))

    def test_bad_file_raises(self, tmp_path):
        bad = tmp_path / "bad.ir"
        bad.write_text("func @broken( {")
        with pytest.raises(SystemExit) as excinfo:
            main(["fmt", str(bad)])
        assert excinfo.value.code == 2


#: Inputs each file command must reject with a one-line diagnostic.
BAD_INPUTS = {
    "missing": (None, "No such file or directory"),
    "unparseable": ("func @broken( {", "line 1:"),
    "unverifiable": ("func @main() -> i32 {\nentry:\n"
                     "  %x = add i32 1, 2\n}\n",
                     "block lacks a terminator"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_prints_diagnostic(case, tmp_path, capsys):
    text, reason = BAD_INPUTS[case]
    path = tmp_path / f"{case}.ir"
    if text is not None:
        path.write_text(text)
    for command in ("run", "fmt", "profile", "analyze"):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {command}: {path}: ")
        assert reason in err


class TestProfile:
    def test_reports_hot_loops_and_dead_blocks(self, program, capsys):
        assert main(["profile", program]) == 0
        out = capsys.readouterr().out
        assert "hot loops (1)" in out
        assert "@main:%loop" in out
        assert "profile-dead blocks in @main: %rare" in out
        assert "predictable loads" in out


class TestAnalyze:
    def test_scaf_coverage(self, program, capsys):
        assert main(["analyze", program]) == 0
        out = capsys.readouterr().out
        assert "%NoDep" in out
        assert "[scaf]" in out

    def test_system_selection(self, program, capsys):
        assert main(["analyze", program, "--system", "caf"]) == 0
        out = capsys.readouterr().out
        assert "[caf]" in out

    def test_deps_listing(self, program, capsys):
        assert main(["analyze", program, "--deps", "--all"]) == 0
        out = capsys.readouterr().out
        assert "[DEP" in out or "[removed" in out

    def test_scaf_beats_caf_here(self, program, capsys):
        main(["analyze", program, "--system", "caf"])
        caf_out = capsys.readouterr().out
        main(["analyze", program, "--system", "scaf"])
        scaf_out = capsys.readouterr().out

        def nodep(text):
            import re
            return float(re.search(r"%NoDep = ([\d.]+)", text).group(1))

        assert nodep(scaf_out) >= nodep(caf_out)

    def test_no_hot_loops_exit_code(self, tmp_path, capsys):
        trivial = tmp_path / "trivial.ir"
        trivial.write_text("""
func @main() -> i32 {
entry:
  ret i32 0
}
""")
        assert main(["analyze", str(trivial)]) == 1
        assert "no hot loops" in capsys.readouterr().out


class TestOnePathPerCommand:
    """``analyze`` is the in-process view of one file, and ``batch``
    always runs its own pool (``--workers 0``: in this process)."""

    def test_analyze_and_batch_give_equal_loops(self, program, capsys):
        assert main(["analyze", program, "--json"]) == 0
        analyzed = json.loads(capsys.readouterr().out)["loops"]
        assert main(["batch", program, "--workers", "0", "--json"]) == 0
        batched = json.loads(capsys.readouterr().out)["loops"]
        # analyze names the workload by the path it was given, batch by
        # the file's basename.
        for loop in analyzed + batched:
            del loop["latency_s"], loop["workload"]
        assert analyzed and analyzed == batched

    @pytest.mark.parametrize("argv", [
        ["analyze", "{program}", "--workers", "2"],
        ["analyze", "{program}", "--cache-dir", "cache"],
        ["batch", "{program}", "--daemon", "unix:/nonexistent.sock"],
        ["batch", "{program}", "--executor", "inline"],
    ])
    def test_detour_options_are_gone(self, argv, program, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(program=program) for arg in argv])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_ignores_repro_daemon(self, program, capsys,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON", "unix:/nonexistent.sock")
        assert main(["batch", program, "--workers", "0"]) == 0
        captured = capsys.readouterr()
        assert "@main:%loop [scaf]: %NoDep" in captured.out
        assert captured.err == ""
