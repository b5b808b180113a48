"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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


class TestBackendFlag:
    """``--backend`` names the cache backend on every command."""

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
            "fig7": cli._Experiment(record("fig7"), analytic=True),
            "table3": cli._Experiment(record("table3")),
        }
        monkeypatch.setattr(cli, "_experiment_registry", lambda: registry)
        return calls

    def test_experiment_backend_defaults_to_sim(self):
        args = build_parser().parse_args(["experiment", "fig7"])
        assert args.backend == "sim"

    def test_experiment_passes_the_backend_through(
        self, stub_registry, capsys
    ):
        assert main(["experiment", "fig7", "--backend", "analytic"]) == 0
        assert capsys.readouterr().out == "fig7 report\n"
        assert stub_registry == [
            ("fig7", {"jobs": 1, "backend": "analytic", "cache": None})
        ]

    def test_experiment_passes_the_cache_dir_through(
        self, stub_registry, tmp_path
    ):
        from repro.parallel import ResultCache

        assert main(["experiment", "fig7", "--cache-dir",
                     str(tmp_path)]) == 0
        (_name, kwargs), = stub_registry
        assert isinstance(kwargs["cache"], ResultCache)
        assert kwargs["cache"].root == str(tmp_path)

    def test_sim_only_experiment_refuses_analytic(
        self, stub_registry, capsys
    ):
        assert main(["experiment", "table3", "--backend", "analytic"]) == 2
        err = capsys.readouterr().err
        assert "table3 runs on the sim backend only" in err
        assert "fig7" in err
        assert stub_registry == []

    def test_sim_only_experiment_runs_on_sim(self, stub_registry):
        assert main(["experiment", "table3", "--backend", "sim"]) == 0
        assert stub_registry[0][1]["backend"] == "sim"

    def test_registry_marks_the_sim_only_experiments(self):
        from repro.cli import _experiment_registry

        sim_only = sorted(
            name for name, entry in _experiment_registry().items()
            if not entry.analytic
        )
        assert sim_only == ["fairness", "fig4", "inference", "table3",
                            "table5"]

    @pytest.mark.parametrize("argv", [
        ["faults", "run", "--backend", "cluster"],
        ["experiment", "fig8", "--backend", "cluster"],
        ["mc", "--backend", "local"],
        ["bench", "run", "--backend", "local"],
        ["dispatch", "worker", "--connect", "localhost:1"],
    ])
    def test_retired_dispatch_flags_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
