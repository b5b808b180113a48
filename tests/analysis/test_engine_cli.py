"""The analyze driver and its CLI surface: determinism, baseline gate."""

import pytest

from repro.analysis.engine import (
    analyze_workload,
    lint_workload_names,
    run_analysis,
)
from repro.cli import main


def test_registry_names_are_the_paper_workloads():
    assert lint_workload_names() == ["merge", "photo", "tasks", "tsp"]


def test_reports_are_byte_identical_across_runs():
    first = run_analysis(workloads=["merge"]).render()
    second = run_analysis(workloads=["merge"]).render()
    assert first == second
    assert first  # merge has known (baselined, waived) findings


def test_unknown_pass_rejected():
    with pytest.raises(ValueError):
        analyze_workload("tasks", passes=("nonsense",))


def test_checked_in_baseline_covers_current_findings():
    """The CI gate's exact invariant: a full run against the committed
    baseline produces zero *new* diagnostics."""
    report = run_analysis(baseline_path="analysis-baseline.txt")
    assert report.new_diagnostics() == []
    assert report.diagnostics  # merge/tsp findings exist and are baselined


def test_cli_analyze_clean_workload_exits_zero(capsys):
    code = main(["analyze", "--workload", "tasks"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 new" in out


def test_cli_analyze_findings_without_baseline_exit_one(capsys):
    # tsp's annotation findings were repaired (repro analyze --fix);
    # merge still carries its by-design, waived RS001 findings
    code = main(["analyze", "--workload", "merge"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RS001" in out


def test_cli_analyze_baseline_roundtrip(tmp_path, capsys):
    baseline = str(tmp_path / "base.txt")
    code = main(
        ["analyze", "--workload", "merge", "--baseline", baseline,
         "--write-baseline"]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["analyze", "--workload", "merge", "--baseline", baseline])
    out = capsys.readouterr().out
    assert code == 0
    assert "(baseline)" in out


def test_cli_analyze_unknown_workload_exits_two(capsys):
    assert main(["analyze", "--workload", "nope"]) == 2


def test_cli_analyze_pass_selection(capsys):
    code = main(["analyze", "--workload", "tsp", "--pass", "locks"])
    out = capsys.readouterr().out
    assert code == 0  # tsp's findings are annotation findings
    assert "AN00" not in out


def test_cli_lint_shipped_source_exits_zero(capsys):
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_lint_flags_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    code = main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DT003" in out


def test_cli_analyze_update_baseline_roundtrip(tmp_path, capsys):
    """--update-baseline regenerates the file when nothing new and of
    error severity appeared; warnings are accepted silently."""
    baseline = str(tmp_path / "base.txt")
    code = main(
        ["analyze", "--workload", "tsp", "--baseline", baseline,
         "--update-baseline"]
    )
    out = capsys.readouterr().out
    assert code == 0  # tsp's findings are warnings: accepted
    assert "updated" in out
    first = open(baseline).read()
    code = main(
        ["analyze", "--workload", "tsp", "--baseline", baseline,
         "--update-baseline"]
    )
    capsys.readouterr()
    assert code == 0
    assert open(baseline).read() == first


def test_cli_analyze_update_baseline_refuses_new_errors(tmp_path, capsys):
    """A new error-severity finding must never be silently baselined."""
    from repro.analysis.diagnostics import Diagnostic, Report, refresh_baseline

    baseline = tmp_path / "base.txt"
    baseline.write_text("# empty baseline\n")
    report = Report()
    report.extend(
        [
            Diagnostic(code="MC003", message="results diverged", source="mc(x)"),
            Diagnostic(code="DT004", message="a warning", source="repro-lint"),
        ]
    )
    report.finalize()
    blocking = refresh_baseline(str(baseline), report)
    assert [d.code for d in blocking] == ["MC003"]
    assert baseline.read_text() == "# empty baseline\n"  # untouched


def test_cli_analyze_update_baseline_needs_baseline_flag(capsys):
    assert main(["analyze", "--workload", "tasks", "--update-baseline"]) == 2


def test_cli_mc_explores_fixture_cleanly(capsys):
    code = main(["mc", "--fixture", "pipeline", "--skip-model",
                 "--no-chaos"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pipeline" in out
    assert "no findings" in out


def test_cli_mc_unknown_fixture_exits_two(capsys):
    assert main(["mc", "--fixture", "nope"]) == 2


# -- flags a mode would ignore are usage errors -------------------------------


@pytest.mark.parametrize("argv", [
    ["analyze", "--all-workloads", "--workload", "nope"],
    ["analyze", "--workload", "tsp", "--all-workloads"],
])
def test_cli_analyze_workload_and_all_workloads_exclude(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.fixture
def no_repair(monkeypatch):
    """Fail the test if a refused invocation reaches the repair engine."""
    from repro.analysis import repair

    def refuse(*args, **kwargs):
        raise AssertionError("the repair engine ran")

    monkeypatch.setattr(repair, "repair_workload", refuse)


@pytest.mark.parametrize("mode, extra, ignored", [
    ("--suggest", ["--mc"], ["--mc"]),
    ("--suggest", ["--mc-budget", "full"], ["--mc-budget"]),
    ("--suggest", ["--waive", "abc123", "--waive-reason", "why"],
     ["--waive", "--waive-reason"]),
    ("--suggest", ["--write-baseline"], ["--write-baseline"]),
    ("--suggest", ["--update-baseline"], ["--update-baseline"]),
    ("--suggest", ["--strict-baseline"], ["--strict-baseline"]),
    ("--suggest", ["--baseline", "base.txt"], ["--baseline"]),
    ("--suggest", ["--pass", "locks"], ["--pass"]),
    ("--suggest", ["--with-lint"], ["--with-lint"]),
    ("--suggest", ["--with-lint", "--mc", "--baseline", "base.txt"],
     ["--baseline", "--with-lint", "--mc"]),
    ("--fix", ["--mc"], ["--mc"]),
    ("--fix", ["--mc-budget", "full"], ["--mc-budget"]),
    ("--fix", ["--waive", "abc123", "--waive-reason", "why"],
     ["--waive", "--waive-reason"]),
    ("--fix", ["--write-baseline"], ["--write-baseline"]),
    ("--fix", ["--update-baseline"], ["--update-baseline"]),
    ("--fix", ["--strict-baseline"], ["--strict-baseline"]),
    ("--fix", ["--baseline", "base.txt", "--strict-baseline"],
     ["--strict-baseline"]),
])
def test_cli_analyze_repair_modes_refuse_ignored_flags(
    mode, extra, ignored, no_repair, capsys
):
    assert main(["analyze", "--workload", "tsp", mode] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.strip()
    assert message.startswith(f"repro analyze: {mode} does not read ")
    named = message.split(" does not read ", 1)[1].split(";", 1)[0]
    assert named.split(", ") == ignored


def test_cli_analyze_fix_accepts_its_refresh_flags(no_repair):
    """``--fix``'s baseline refresh reads ``--baseline``, ``--pass`` and
    ``--with-lint``, so together they pass the refusal."""
    with pytest.raises(AssertionError, match="the repair engine ran"):
        main(["analyze", "--workload", "tsp", "--fix", "--baseline",
              "base.txt", "--pass", "locks", "--with-lint"])
