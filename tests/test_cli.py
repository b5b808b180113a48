"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.sched import SCHEDULERS, make_lff


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "tasks"])
        assert args.policy == "lff"
        assert args.cpus == 1
        assert not args.paper_scale

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nonesuch"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_faults_run_defaults(self):
        args = build_parser().parse_args(["faults", "run"])
        assert args.workload == "all"
        assert args.fault == "all"
        assert args.scale == "smoke"

    def test_faults_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])


class TestNumberFlags:
    """Out-of-range numbers are usage errors: exit 2 with one line on
    stderr, before any simulation or sweep starts."""

    _FAULT_CELL = ["faults", "run", "--workload", "tasks",
                   "--fault", "counter_zero", "--policy", "fcfs"]

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["run", "--workload", "tasks", "--cpus", "0"],
                     "--cpus: must be at least 1, got 0", id="run-cpus"),
        pytest.param(["compare", "--workload", "tasks", "--cpus", "-2"],
                     "--cpus: must be at least 1, got -2", id="compare-cpus"),
        pytest.param(["run", "--workload", "tasks", "--seed", "-1"],
                     "--seed: must be at least 0, got -1", id="run-seed"),
        pytest.param(["compare", "--workload", "tasks", "--seed", "-1"],
                     "--seed: must be at least 0, got -1",
                     id="compare-seed"),
        pytest.param(["trace", "--app", "merge", "--seed", "-3"],
                     "--seed: must be at least 0, got -3", id="trace-seed"),
        pytest.param(_FAULT_CELL + ["--seed", "-1"],
                     "--seed: must be at least 0, got -1", id="faults-seed"),
        pytest.param(_FAULT_CELL + ["--jobs", "0"],
                     "--jobs: must be at least 1, got 0", id="faults-jobs"),
        pytest.param(["experiment", "offline", "--jobs", "0"],
                     "--jobs: must be at least 1, got 0",
                     id="experiment-jobs"),
        pytest.param(["mc", "--budget", "small", "--jobs", "0"],
                     "--jobs: must be at least 1, got 0", id="mc-jobs"),
        pytest.param(["bench", "run", "--suite", "smoke", "--jobs", "0",
                      "--out", "{tmp}/BENCH_smoke.json"],
                     "--jobs: must be at least 1, got 0", id="bench-jobs"),
        pytest.param(["model", "--lines", "0"], "at least 2 lines",
                     id="model-lines"),
        pytest.param(["model", "--q", "1.5"],
                     "sharing coefficient must be in [0, 1]", id="model-q"),
        pytest.param(["model", "--initial", "-5"],
                     "initial footprint must lie in", id="model-initial"),
        pytest.param(["model", "--misses", "-3"],
                     "miss counts must be non-negative", id="model-misses"),
    ])
    def test_out_of_range_is_a_one_line_usage_error(
        self, argv, message, capsys, tmp_path
    ):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert message in err.strip().splitlines()[-1]
        assert "Traceback" not in err
        assert not (tmp_path / "BENCH_smoke.json").exists()


class TestCommands:
    def test_model_command(self, capsys):
        assert main(["model", "--lines", "256", "--initial", "50",
                     "--q", "0.5", "--misses", "0", "100"]) == 0
        out = capsys.readouterr().out
        assert "running (case 1)" in out
        assert "n=100" in out

    def test_run_command_small(self, capsys):
        # keep it quick: the small default tasks workload on one cpu
        assert main(["run", "--workload", "tsp", "--policy", "fcfs"]) == 0
        out = capsys.readouterr().out
        assert "tsp" in out
        assert "E-misses" in out

    def test_trace_command(self, capsys):
        assert main(["trace", "--app", "fmm"]) == 0
        out = capsys.readouterr().out
        assert "fmm" in out
        assert "pred/obs" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "tsp"]) == 0
        out = capsys.readouterr().out
        assert "fcfs" in out and "lff" in out and "crt" in out

    def test_run_and_compare_print_degradation(self, capsys, monkeypatch):
        def degraded_lff(**kwargs):
            scheduler = make_lff(**kwargs)
            scheduler.degraded = True
            return scheduler

        monkeypatch.setitem(SCHEDULERS, "lff", degraded_lff)
        assert main(["run", "--workload", "tsp", "--policy", "lff"]) == 0
        header, _rule, row = capsys.readouterr().out.splitlines()[1:4]
        assert header.split()[-1] == "degraded"
        assert row.split()[1] == "lff" and row.split()[-1] == "yes"
        assert main(["compare", "--workload", "tsp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[-1] == "degraded"
        flags = {line.split()[0]: line.split()[-1] for line in lines[3:]}
        assert flags == {"fcfs": "no", "static": "no", "lff": "yes", "crt": "no"}

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_faults_run_command(self, capsys):
        # one workload x one fault class x one policy keeps it quick
        assert main(["faults", "run", "--workload", "tasks",
                     "--fault", "counter_zero", "--policy", "fcfs"]) == 0
        out = capsys.readouterr().out
        assert "counter_zero" in out
        assert "identical" in out
        assert "honoured the hint contract" in out


class TestSweepFlags:
    """``--jobs`` and ``--cache-dir`` reach only the sharded sweeps, and
    retired flags are usage errors."""

    @pytest.fixture
    def stub_registry(self, monkeypatch):
        from repro import cli

        calls = []

        def record(name):
            def run(**kwargs):
                calls.append((name, kwargs))
                return f"{name} report"
            return run

        registry = {
            "fig7": cli._Experiment(record("fig7")),
            "table3": cli._Experiment(record("table3")),
            "offline": cli._Experiment(record("offline"), sharded=True),
        }
        monkeypatch.setattr(cli, "_experiment_registry", lambda: registry)
        return calls

    def test_experiment_passes_the_cache_dir_through(
        self, stub_registry, tmp_path
    ):
        from repro.parallel import ResultCache

        assert main(["experiment", "offline", "--cache-dir",
                     str(tmp_path), "--jobs", "2"]) == 0
        (_name, kwargs), = stub_registry
        assert isinstance(kwargs["cache"], ResultCache)
        assert kwargs["cache"].root == str(tmp_path)
        assert kwargs["jobs"] == 2

    @pytest.mark.parametrize("argv", [
        ["experiment", "fig7", "--jobs", "2"],
        ["experiment", "table3", "--cache-dir", "{tmp}"],
    ])
    def test_unsharded_experiment_refuses_jobs_and_cache_dir(
        self, stub_registry, capsys, tmp_path, argv
    ):
        cache_dir = tmp_path / "cache"
        argv = [arg.replace("{tmp}", str(cache_dir)) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "is not a sharded sweep" in err
        assert "offline" in err
        assert stub_registry == []
        assert not cache_dir.exists()

    def test_registry_marks_only_offline_as_sharded(self):
        from repro.cli import _experiment_registry

        sharded = [
            name for name, entry in _experiment_registry().items()
            if entry.sharded
        ]
        assert sharded == ["offline"]

    @pytest.mark.parametrize("argv", [
        ["faults", "run", "--backend", "cluster"],
        ["experiment", "fig8", "--backend", "cluster"],
        ["mc", "--backend", "local"],
        ["bench", "run", "--backend", "local"],
        ["dispatch", "worker", "--connect", "localhost:1"],
        ["run", "--workload", "tasks", "--backend", "sim"],
        ["compare", "--workload", "tasks", "--backend", "analytic"],
        ["trace", "--app", "merge", "--backend", "sim"],
        ["experiment", "fig8", "--backend", "analytic"],
        ["staticshare"],
        ["staticshare", "--no-dynamic"],
        ["analyze", "--all-workloads", "--static"],
    ])
    def test_retired_flags_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
