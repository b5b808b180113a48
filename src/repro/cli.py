"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``        one workload under one policy, printing the counters;
- ``compare``    one workload under FCFS/LFF/CRT side by side;
- ``trace``      a monitored app's footprint trace vs the model;
- ``model``      evaluate the closed-form model directly;
- ``experiment`` regenerate a paper table/figure by name;
- ``faults run`` the fault-injection campaign (robustness contract);
- ``analyze``    annotation lint / lock-order / race passes (byte-stable);
- ``staticshare``  the static sharing inference: predicted ``at_share``
  graphs from source, cross-validated against the dynamic audit;
- ``lint``       the repro-lint determinism pass over the simulator source;
- ``mc``         the schedule model checker (DPOR) + symbolic cache-model
  verification (MC001-MC005);
- ``bench``      the performance-regression harness: ``run`` a suite to
  ``BENCH_<suite>.json``, ``compare`` two result files with noise-aware
  thresholds, ``update-baseline`` to re-record a checked-in baseline.

The sweep commands (``faults run``, ``experiment``, ``mc``,
``bench run``) take ``--jobs N`` to shard over a process pool via
:mod:`repro.parallel`; output is bit-identical to ``--jobs 1``
(docs/PARALLEL.md).  ``--cache-dir`` (not on ``bench``) makes the
sweep resumable via the content-addressed result cache without
changing the output.  ``--backend`` always names the cache backend
(``sim`` or ``analytic``, docs/MODEL.md) of the commands that run
simulations: ``run``, ``compare``, ``trace`` and ``experiment``.

Everything except ``bench`` (which measures host wall time) is
deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from repro.core.model import SharedStateModel
from repro.machine.configs import E5000_8CPU, ULTRA1
from repro.sched import SCHEDULERS
from repro.sim.driver import run_monitored, run_performance
from repro.sim.report import format_series, format_table
from repro.workloads import (
    ANOMALOUS_APPS,
    MONITORED_APPS,
    PERFORMANCE_WORKLOADS,
    MergeParams,
    PhotoParams,
    ServerParams,
    TasksParams,
    TspParams,
)

_PARAMS = {
    "tasks": TasksParams,
    "merge": MergeParams,
    "photo": PhotoParams,
    "tsp": TspParams,
    "server": ServerParams,
}


class _Experiment(NamedTuple):
    """One ``experiment`` entry.

    ``run(jobs=, backend=, cache=)`` returns the report text.  Entries
    with ``analytic=False`` run on the sim backend only, and the command
    refuses ``--backend analytic`` for them rather than ignore it.
    """

    run: Callable[..., str]
    analytic: bool = False


_EXPERIMENTS = {}


def _shard_progress(outcome, done, total) -> None:
    """Progress line per finished shard (stderr, never in the report)."""
    status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
    retries = (
        f" [attempt {outcome.attempts}]" if outcome.attempts > 1 else ""
    )
    print(
        f"  [{done}/{total}] {outcome.shard.key}: {status}{retries}",
        file=sys.stderr,
    )


def _result_cache(args):
    """The ``--cache-dir`` result cache shared by the sweep commands."""
    from repro.parallel import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else None


def _experiment_registry():
    """Lazy experiment table (imports are heavy enough to defer)."""
    if _EXPERIMENTS:
        return _EXPERIMENTS
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import format_fig5, run_fig5
    from repro.experiments.fig6 import format_fig6, run_fig6
    from repro.experiments.fig7 import format_fig7, run_fig7
    from repro.experiments.fig8 import format_fig8, run_fig8
    from repro.experiments.fig9 import format_fig9, run_fig9
    from repro.experiments.table3 import format_table3, run_table3
    from repro.experiments.table5 import format_table5, run_table5
    from repro.experiments.fairness import (
        format_fairness_sweep,
        run_fairness_sweep,
    )
    from repro.experiments.inference_exp import (
        format_inference_comparison,
        run_inference_comparison,
    )
    from repro.experiments.offline import (
        format_offline_comparison,
        run_offline_comparison,
    )

    def fig4_text(**_):
        panels = run_fig4()
        rows = [
            (panel, curve.label, 100.0 * curve.mean_relative_error)
            for panel, curves in panels.items()
            for curve in curves
        ]
        return format_table(
            ["panel", "curve", "rel.err %"], rows, title="Figure 4"
        )

    def figure(run, fmt):
        return _Experiment(
            lambda backend, **_: fmt(run(backend=backend)), analytic=True
        )

    _EXPERIMENTS.update(
        {
            "fig4": _Experiment(fig4_text),
            "fig5": figure(run_fig5, format_fig5),
            "fig6": figure(run_fig6, format_fig6),
            "fig7": figure(run_fig7, format_fig7),
            "fig8": figure(run_fig8, format_fig8),
            "fig9": figure(run_fig9, format_fig9),
            "table3": _Experiment(lambda **_: format_table3(run_table3())),
            "table5": _Experiment(lambda **_: format_table5(run_table5())),
            "fairness": _Experiment(
                lambda **_: format_fairness_sweep(run_fairness_sweep())
            ),
            "inference": _Experiment(
                lambda **_: format_inference_comparison(
                    run_inference_comparison()
                )
            ),
            "offline": _Experiment(
                lambda jobs, backend, cache: format_offline_comparison(
                    run_offline_comparison(
                        jobs=jobs,
                        progress=_shard_progress if jobs > 1 else None,
                        cache=cache,
                        backend=backend,
                    )
                ),
                analytic=True,
            ),
        }
    )
    return _EXPERIMENTS


def _config(cpus: int):
    if cpus == 1:
        return ULTRA1
    if cpus == 8:
        return E5000_8CPU
    return ULTRA1.with_cpus(cpus)


def _workload(name: str, paper_scale: bool):
    cls = PERFORMANCE_WORKLOADS[name]
    params_cls = _PARAMS[name]
    params = params_cls.paper_scale() if paper_scale else params_cls()
    return cls(params)


def _cmd_run(args) -> int:
    if args.report:
        from repro.machine.smp import Machine
        from repro.sim.analysis import run_report
        from repro.threads.runtime import Runtime

        machine = Machine(
            _config(args.cpus), seed=args.seed, backend=args.backend
        )
        runtime = Runtime(
            machine, SCHEDULERS[args.policy](), engine=args.engine
        )
        _workload(args.workload, args.paper_scale).build(runtime)
        runtime.run()
        print(run_report(machine, runtime))
        return 0
    result = run_performance(
        _workload(args.workload, args.paper_scale),
        _config(args.cpus),
        SCHEDULERS[args.policy](),
        seed=args.seed,
        engine=args.engine,
        backend=args.backend,
    )
    print(
        format_table(
            ["workload", "policy", "cpus", "cycles", "E-misses", "MPI",
             "switches"],
            [
                (
                    result.workload,
                    result.scheduler,
                    result.num_cpus,
                    result.cycles,
                    result.l2_misses,
                    result.mpi,
                    result.context_switches,
                )
            ],
            title="run",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    rows = []
    base = None
    for policy in ("fcfs", "static", "lff", "crt"):
        result = run_performance(
            _workload(args.workload, args.paper_scale),
            _config(args.cpus),
            SCHEDULERS[policy](),
            seed=args.seed,
            engine=args.engine,
            backend=args.backend,
        )
        if base is None:
            base = result
        rows.append(
            (
                policy,
                result.l2_misses,
                100.0 * result.misses_eliminated_vs(base),
                result.speedup_vs(base),
            )
        )
    print(
        format_table(
            ["policy", "E-misses", "eliminated %", "rel perf"],
            rows,
            title=f"{args.workload} on {args.cpus} cpu(s)",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    apps = {**MONITORED_APPS, **ANOMALOUS_APPS}
    result = run_monitored(apps[args.app](), seed=args.seed,
                           backend=args.backend)
    print(
        format_table(
            ["app", "lang", "misses", "observed", "predicted", "pred/obs",
             "MAE"],
            [
                (
                    result.app,
                    result.language,
                    int(result.misses[-1]),
                    int(result.observed[-1]),
                    float(result.predicted[-1]),
                    result.final_ratio,
                    result.mean_absolute_error,
                )
            ],
            title="footprint trace",
        )
    )
    print("observed :", format_series(result.misses, result.observed))
    print("predicted:", format_series(result.misses, result.predicted))
    return 0


def _cmd_model(args) -> int:
    model = SharedStateModel(args.lines)
    misses = np.asarray(args.misses, dtype=np.int64)
    rows = [
        ("running (case 1)", *(f"{v:.1f}" for v in
                               np.atleast_1d(model.expected_running(args.initial, misses)))),
        ("independent (case 2)", *(f"{v:.1f}" for v in
                                   np.atleast_1d(model.expected_independent(args.initial, misses)))),
        (f"dependent q={args.q} (case 3)",
         *(f"{v:.1f}" for v in
           np.atleast_1d(model.expected_dependent(args.initial, args.q, misses)))),
    ]
    print(
        format_table(
            ["case"] + [f"n={n}" for n in misses],
            rows,
            title=f"E[F] for N={args.lines}, S0={args.initial}",
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.machine.backend import DEFAULT_BACKEND

    registry = _experiment_registry()
    experiment = registry[args.name]
    if args.backend != DEFAULT_BACKEND and not experiment.analytic:
        print(
            "repro experiment: %s runs on the %s backend only; "
            "--backend %s is supported by %s"
            % (
                args.name, DEFAULT_BACKEND, args.backend,
                ", ".join(n for n, e in registry.items() if e.analytic),
            ),
            file=sys.stderr,
        )
        return 2
    print(
        experiment.run(
            jobs=args.jobs, backend=args.backend, cache=_result_cache(args)
        )
    )
    return 0


def _cmd_faults_run(args) -> int:
    from repro.faults import (
        FAULT_CLASSES,
        campaign_workloads,
        format_campaign,
        run_campaign,
    )

    workloads = campaign_workloads(args.scale)
    workload_names = list(workloads)
    if args.workload != "all":
        if args.workload not in workloads:
            print(
                "repro faults run: unknown workload %r (choose from %s)"
                % (args.workload, ", ".join(sorted(workloads) + ["all"])),
                file=sys.stderr,
            )
            return 2
        workload_names = [args.workload]
    if args.fault != "all" and args.fault not in FAULT_CLASSES:
        print(
            "repro faults run: unknown fault class %r (choose from %s)"
            % (args.fault, ", ".join(sorted(FAULT_CLASSES) + ["all"])),
            file=sys.stderr,
        )
        return 2
    fault_classes = (
        list(FAULT_CLASSES) if args.fault == "all" else [args.fault]
    )
    rows = run_campaign(
        scale=args.scale,
        workload_names=workload_names,
        policies=tuple(args.policy or ("fcfs", "lff")),
        fault_classes=fault_classes,
        seed=args.seed,
        engine=args.engine,
        jobs=args.jobs,
        progress=_shard_progress if args.jobs > 1 else None,
        cache=_result_cache(args),
    )
    print(format_campaign(rows))
    return 0 if all(r.ok for r in rows) else 1


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        lint_workload_names,
        run_analysis,
        write_baseline,
    )

    names = lint_workload_names()
    if not args.all_workloads and args.workload:
        unknown = [w for w in args.workload if w not in names]
        if unknown:
            print(
                "repro analyze: unknown workload(s) %s (choose from %s)"
                % (", ".join(unknown), ", ".join(names)),
                file=sys.stderr,
            )
            return 2
        names = args.workload
    passes = tuple(args.passes or ())
    if args.suggest or args.fix:
        return _analyze_repair(args, names, passes)
    report = run_analysis(
        workloads=names,
        passes=passes if passes else ("annotations", "locks", "races"),
        baseline_path=args.baseline,
        with_lint=args.with_lint,
        with_mc=args.mc,
        mc_budget=args.mc_budget,
        with_static=args.static,
    )
    if args.waive:
        from repro.analysis.diagnostics import add_waiver

        if args.baseline is None or not args.waive_reason:
            print(
                "repro analyze: --waive needs --baseline FILE and "
                "--waive-reason TEXT",
                file=sys.stderr,
            )
            return 2
        error = add_waiver(args.baseline, report, args.waive, args.waive_reason)
        if error is not None:
            print(f"repro analyze: {error}", file=sys.stderr)
            return 1
        print(f"waived {args.waive}: {args.waive_reason}")
        return 0
    if args.update_baseline:
        from repro.analysis.diagnostics import refresh_baseline

        if args.baseline is None:
            print(
                "repro analyze: --update-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        blocking = refresh_baseline(args.baseline, report)
        if blocking:
            print(
                "repro analyze: refusing to update the baseline -- "
                f"{len(blocking)} new error-severity finding(s) would be "
                "buried:",
                file=sys.stderr,
            )
            for diag in blocking:
                print(f"  {diag.render()}", file=sys.stderr)
            return 1
        print(
            f"updated {args.baseline} with {len(report.diagnostics)} "
            "fingerprint(s)"
        )
        return 0
    if args.write_baseline:
        if args.baseline is None:
            print(
                "repro analyze: --write-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.diagnostics import load_waivers

        write_baseline(args.baseline, report, waivers=load_waivers(args.baseline))
        print(f"wrote {len(report.diagnostics)} fingerprint(s) to {args.baseline}")
        return 0
    print(report.render())
    failed = bool(report.new_diagnostics())
    if args.strict_baseline:
        stale = report.stale_fingerprints()
        if stale:
            print(
                f"repro analyze: {len(stale)} stale baseline "
                "fingerprint(s) no longer produced by any pass "
                "(regenerate with --update-baseline):",
                file=sys.stderr,
            )
            for fp in stale:
                print(f"  {fp}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _analyze_repair(args, names, passes) -> int:
    """``repro analyze --suggest`` / ``--fix``: the repair engine."""
    from repro.analysis import lint_workload_names, run_analysis
    from repro.analysis.diagnostics import refresh_baseline
    from repro.analysis.repair import (
        apply_fixes,
        reload_workload_modules,
        render_report,
        repair_workload,
    )
    from repro.analysis.sources import SourceRegistry

    registry = SourceRegistry()
    patched_paths = []
    for name in sorted(names):
        result = repair_workload(
            name, with_static=args.static, registry=registry
        )
        for line in render_report(result):
            print(line)
        if args.fix:
            for path in apply_fixes(result.patchable_fixes):
                patched_paths.append(path)
                print(f"  patched {path}")
    if not args.fix:
        return 0
    if not patched_paths:
        print("repro analyze --fix: nothing to patch")
        return 0
    # the repaired annotations must pass a fresh audit; regenerate the
    # baseline so resolved findings drop out (waivers are preserved)
    reload_workload_modules()
    if args.baseline is None:
        return 0
    # the baseline file is global, so the refresh must audit every
    # workload even when --fix targeted one -- otherwise the untargeted
    # workloads' accepted findings would silently drop out
    report = run_analysis(
        workloads=lint_workload_names(),
        passes=passes if passes else ("annotations", "locks", "races"),
        baseline_path=args.baseline,
        with_lint=args.with_lint,
        with_static=args.static,
    )
    blocking = refresh_baseline(args.baseline, report)
    if blocking:
        print(
            "repro analyze --fix: repaired run still has "
            f"{len(blocking)} new error-severity finding(s); baseline "
            "left untouched:",
            file=sys.stderr,
        )
        for diag in blocking:
            print(f"  {diag.render()}", file=sys.stderr)
        return 1
    print(
        f"updated {args.baseline} with {len(report.diagnostics)} "
        "fingerprint(s)"
    )
    return 0


def _cmd_staticshare(args) -> int:
    """``repro staticshare``: the static sharing inference, standalone."""
    from repro.analysis import lint_workload_names
    from repro.analysis.engine import audit_workload, static_validate_workload
    from repro.analysis.sources import SourceRegistry
    from repro.analysis.staticshare import render_prediction

    names = lint_workload_names()
    if args.workload:
        unknown = [w for w in args.workload if w not in names]
        if unknown:
            print(
                "repro staticshare: unknown workload(s) %s (choose from %s)"
                % (", ".join(unknown), ", ".join(names)),
                file=sys.stderr,
            )
            return 2
        names = args.workload
    registry = SourceRegistry()
    failed = False
    blocks = []
    for name in sorted(names):
        audit = None
        if not args.no_dynamic:
            audit = audit_workload(
                name, passes=("annotations",), registry=registry
            )
        validation = static_validate_workload(
            name, registry=registry, audit=audit
        )
        if validation is None:
            print(
                f"repro staticshare: {name}: source not statically "
                "analyzable",
                file=sys.stderr,
            )
            failed = True
            continue
        block = render_prediction(validation.prediction, validation)
        for diag in validation.diagnostics:
            block += f"\n  {diag.render()}"
            failed = True
        blocks.append(block)
    print("\n\n".join(blocks))
    return 1 if failed else 0


def _cmd_mc(args) -> int:
    from repro.analysis.mc import (
        BUDGETS,
        FIXTURES,
        explore_all,
        format_mc_report,
        verify_cache_model,
    )

    fixtures = args.fixture or None
    if fixtures:
        unknown = [f for f in fixtures if f not in FIXTURES]
        if unknown:
            print(
                "repro mc: unknown fixture(s) %s (choose from %s)"
                % (", ".join(unknown), ", ".join(sorted(FIXTURES))),
                file=sys.stderr,
            )
            return 2
    results, diagnostics = explore_all(
        BUDGETS[args.budget],
        fixtures=fixtures,
        dpor=not args.no_dpor,
        chaos=not args.no_chaos,
        jobs=args.jobs,
        progress=_shard_progress if args.jobs > 1 else None,
        cache=_result_cache(args),
    )
    stats = None
    if not args.skip_model:
        model_diags, stats = verify_cache_model()
        diagnostics = sorted(
            list(diagnostics) + model_diags, key=lambda d: d.sort_key
        )
    print(format_mc_report(results, stats, diagnostics))
    incomplete = [r.label for r in results if not r.complete]
    if incomplete:
        print(
            "warning: exploration incomplete (budget exhausted) for: "
            + ", ".join(incomplete),
            file=sys.stderr,
        )
    return 1 if diagnostics else 0


def _parse_regress(text: str) -> float:
    """Parse a regression threshold: '40%', '40', or '0.4' all mean 40%."""
    raw = text.strip()
    percent = raw.endswith("%")
    value = float(raw.rstrip("%"))
    if percent or value > 1.0:
        value /= 100.0
    if value < 0.0:
        raise ValueError("threshold must be non-negative")
    return value


def _cmd_bench_run(args) -> int:
    from repro.bench import (
        default_baseline_path,
        format_suite,
        run_suite,
        suite_names,
        write_suite,
    )

    if args.suite not in suite_names():
        print(
            "repro bench run: unknown suite %r (choose from %s)"
            % (args.suite, ", ".join(suite_names())),
            file=sys.stderr,
        )
        return 2
    result = run_suite(
        args.suite,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
        jobs=args.jobs,
    )
    out = args.out or default_baseline_path(args.suite)
    write_suite(out, result)
    print(format_suite(result))
    print(f"wrote {out}")
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench import (
        SchemaError,
        compare,
        format_comparison,
        load_suite,
        run_suite,
        suite_names,
    )

    try:
        threshold = _parse_regress(args.max_regress)
    except ValueError:
        print(
            f"repro bench compare: bad --max-regress {args.max_regress!r}",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_suite(args.baseline)
    except (OSError, SchemaError) as exc:
        print(f"repro bench compare: {exc}", file=sys.stderr)
        return 2
    if args.new is not None:
        try:
            fresh = load_suite(args.new)
        except (OSError, SchemaError) as exc:
            print(f"repro bench compare: {exc}", file=sys.stderr)
            return 2
    else:
        # no fresh file given: re-run the baseline's suite now
        if baseline.suite not in suite_names():
            print(
                "repro bench compare: baseline names unknown suite "
                f"{baseline.suite!r}; pass --new FILE",
                file=sys.stderr,
            )
            return 2
        fresh = run_suite(
            baseline.suite,
            progress=lambda name: print(
                f"  running {name} ...", file=sys.stderr
            ),
        )
    result = compare(
        baseline, fresh, max_regress=threshold,
        noise_aware=not args.no_noise,
    )
    print(format_comparison(result))
    return 0 if result.ok else 1


def _cmd_bench_update(args) -> int:
    import os

    from repro.bench import (
        compare,
        default_baseline_path,
        format_comparison,
        load_suite,
        run_suite,
        suite_names,
        write_suite,
    )

    if args.suite not in suite_names():
        print(
            "repro bench update-baseline: unknown suite %r (choose from %s)"
            % (args.suite, ", ".join(suite_names())),
            file=sys.stderr,
        )
        return 2
    path = args.baseline or default_baseline_path(args.suite)
    result = run_suite(
        args.suite,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
    )
    if os.path.exists(path):
        # informational diff against the baseline being replaced
        try:
            print(format_comparison(compare(load_suite(path), result)))
        except Exception as exc:  # old file unreadable: still replace it
            print(f"(old baseline unreadable: {exc})", file=sys.stderr)
    write_suite(path, result)
    print(f"updated {path}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths

    found = lint_paths(args.paths or None)
    for diag in found:
        print(diag.render())
    print(f"-- repro-lint: {len(found)} finding(s)")
    return 1 if found else 0


def _add_backend_flag(p) -> None:
    """The ``--backend`` flag of the simulation-running commands."""
    from repro.machine.backend import BACKEND_NAMES, DEFAULT_BACKEND

    p.add_argument(
        "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help="cache backend: 'sim' replays every reference through the "
        "simulated hierarchy, 'analytic' prices misses with the "
        "closed-form reuse-distance model -- orders of magnitude faster "
        "for sweeps, approximate within the bounds the analytic-oracle "
        "CI job pins (docs/MODEL.md 'The analytic backend')",
    )


def _add_engine_flag(p) -> None:
    """The ``--engine`` flag every simulation-running command shares."""
    from repro.threads.runtime import Runtime

    p.add_argument(
        "--engine", choices=Runtime.ENGINES, default="stepped",
        help="scheduling loop: the quantum-stepped reference engine, or "
        "the event-driven engine that skips blocked/idle time (counters "
        "are bit-identical either way -- docs/MODEL.md)",
    )


def _add_cache_flag(p) -> None:
    """The ``--cache-dir`` flag the cached sweep commands share."""
    p.add_argument(
        "--cache-dir", dest="cache_dir", metavar="DIR",
        help="content-addressed result cache directory: finished "
        "cells are skipped on re-run (resumable sweeps)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thread-locality scheduling reproduction (ASPLOS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload under one policy")
    run_p.add_argument("--workload", choices=sorted(PERFORMANCE_WORKLOADS),
                       required=True)
    run_p.add_argument("--policy", choices=sorted(SCHEDULERS), default="lff")
    run_p.add_argument("--cpus", type=int, default=1)
    run_p.add_argument("--paper-scale", action="store_true")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--report", action="store_true",
        help="print the full post-run analysis instead of one row",
    )
    _add_engine_flag(run_p)
    _add_backend_flag(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="FCFS vs LFF vs CRT")
    cmp_p.add_argument("--workload", choices=sorted(PERFORMANCE_WORKLOADS),
                       required=True)
    cmp_p.add_argument("--cpus", type=int, default=1)
    cmp_p.add_argument("--paper-scale", action="store_true")
    cmp_p.add_argument("--seed", type=int, default=0)
    _add_engine_flag(cmp_p)
    _add_backend_flag(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    trace_p = sub.add_parser("trace", help="footprint trace of one app")
    trace_p.add_argument(
        "--app",
        choices=sorted({**MONITORED_APPS, **ANOMALOUS_APPS}),
        required=True,
    )
    trace_p.add_argument("--seed", type=int, default=0)
    _add_backend_flag(trace_p)
    trace_p.set_defaults(func=_cmd_trace)

    model_p = sub.add_parser("model", help="evaluate the closed-form model")
    model_p.add_argument("--lines", type=int, default=8192)
    model_p.add_argument("--initial", type=float, default=0.0)
    model_p.add_argument("--q", type=float, default=0.5)
    model_p.add_argument("--misses", type=int, nargs="+",
                         default=[0, 1000, 4000, 16000])
    model_p.set_defaults(func=_cmd_model)

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument(
        "name",
        choices=[
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table3", "table5", "fairness", "inference", "offline",
        ],
    )
    exp_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sharded sweeps (offline); results are "
        "bit-identical to --jobs 1",
    )
    _add_cache_flag(exp_p)
    _add_backend_flag(exp_p)
    exp_p.set_defaults(func=_cmd_experiment)

    faults_p = sub.add_parser(
        "faults", help="fault injection: hints must never affect correctness"
    )
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    faults_run_p = faults_sub.add_parser(
        "run", help="run the fault campaign and report per-cell outcomes"
    )
    # choices are resolved lazily at run time; listed here for --help only
    faults_run_p.add_argument(
        "--workload",
        default="all",
        help="campaign workload name, or 'all' "
        "(randomwalk/tasks/merge/photo/tsp)",
    )
    faults_run_p.add_argument(
        "--fault",
        default="all",
        help="fault class name (see repro.faults.FAULT_CLASSES), or 'all'",
    )
    faults_run_p.add_argument(
        "--policy",
        action="append",
        choices=sorted(SCHEDULERS),
        help="policy to exercise (repeatable; default: fcfs and lff)",
    )
    faults_run_p.add_argument(
        "--scale", choices=("smoke", "default"), default="smoke"
    )
    faults_run_p.add_argument("--seed", type=int, default=0)
    _add_engine_flag(faults_run_p)
    faults_run_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes ((workload, policy) pairs fan out; the "
        "merged table is bit-identical to --jobs 1)",
    )
    _add_cache_flag(faults_run_p)
    faults_run_p.set_defaults(func=_cmd_faults_run)

    analyze_p = sub.add_parser(
        "analyze",
        help="annotation lint, lock-order, and race analysis passes",
    )
    analyze_p.add_argument(
        "--workload",
        action="append",
        help="workload to analyze (repeatable; default: all)",
    )
    analyze_p.add_argument(
        "--all-workloads", action="store_true",
        help="analyze every registered workload",
    )
    analyze_p.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=("annotations", "locks", "races"),
        help="run only this pass (repeatable; default: all three)",
    )
    analyze_p.add_argument(
        "--baseline",
        help="baseline file of accepted diagnostic fingerprints",
    )
    analyze_p.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into --baseline and exit",
    )
    analyze_p.add_argument(
        "--with-lint", action="store_true",
        help="also run the repro-lint determinism pass",
    )
    analyze_p.add_argument(
        "--mc", action="store_true",
        help="also run the schedule model checker and the symbolic "
        "cache-model verification (slower)",
    )
    analyze_p.add_argument(
        "--mc-budget", choices=("small", "full"), default="small",
        help="exploration budget for --mc (default: small)",
    )
    analyze_p.add_argument(
        "--update-baseline", action="store_true",
        help="regenerate --baseline from current findings, refusing if "
        "new error-severity findings would be buried",
    )
    analyze_p.add_argument(
        "--suggest", action="store_true",
        help="run the annotation repair engine and report verified "
        "fixes + suggestions without touching any file",
    )
    analyze_p.add_argument(
        "--fix", action="store_true",
        help="apply verified literal annotation patches in place and "
        "regenerate --baseline from the repaired workloads",
    )
    analyze_p.add_argument(
        "--strict-baseline", action="store_true",
        help="also fail on stale baseline entries the current run no "
        "longer produces",
    )
    analyze_p.add_argument(
        "--waive", metavar="FINGERPRINT",
        help="record a waive reason for one accepted finding in "
        "--baseline (requires --waive-reason)",
    )
    analyze_p.add_argument(
        "--waive-reason", metavar="TEXT",
        help="justification stored with --waive",
    )
    analyze_p.add_argument(
        "--static", action="store_true",
        help="also run the static sharing inference and cross-validate "
        "it against the dynamic audit (SA001-SA003); with --suggest, "
        "attach unexercised-path candidates from SA001 findings",
    )
    analyze_p.set_defaults(func=_cmd_analyze)

    staticshare_p = sub.add_parser(
        "staticshare",
        help="static sharing inference: predicted at_share graphs, "
        "cross-validated against the dynamic audit",
    )
    staticshare_p.add_argument(
        "--workload",
        action="append",
        help="workload to predict (repeatable; default: all)",
    )
    staticshare_p.add_argument(
        "--no-dynamic", action="store_true",
        help="skip the instrumented run; report the pure static "
        "prediction without cross-validation",
    )
    staticshare_p.set_defaults(func=_cmd_staticshare)

    lint_p = sub.add_parser(
        "lint",
        help="repro-lint: determinism pass over the simulator source",
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files or directories under src/ (default: repro/sched, "
        "repro/sim, repro/machine)",
    )
    lint_p.set_defaults(func=_cmd_lint)

    mc_p = sub.add_parser(
        "mc",
        help="exhaustive schedule model checker (DPOR) + symbolic "
        "cache-model verification",
    )
    mc_p.add_argument(
        "--fixture", action="append",
        help="fixture to explore (repeatable; default: all registered)",
    )
    mc_p.add_argument(
        "--budget", choices=("small", "full"), default="small",
        help="exploration budget (full raises the preemption bound to 1)",
    )
    mc_p.add_argument(
        "--no-dpor", action="store_true",
        help="disable partial-order reduction: enumerate every schedule",
    )
    mc_p.add_argument(
        "--no-chaos", action="store_true",
        help="skip the re-exploration under corrupted annotations",
    )
    mc_p.add_argument(
        "--skip-model", action="store_true",
        help="skip the symbolic cache-model sweep",
    )
    mc_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (fixtures fan out; the merged report is "
        "bit-identical to --jobs 1)",
    )
    _add_cache_flag(mc_p)
    mc_p.set_defaults(func=_cmd_mc)

    bench_p = sub.add_parser(
        "bench",
        help="performance-regression harness (docs/BENCHMARKS.md)",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    bench_run_p = bench_sub.add_parser(
        "run", help="run a suite and write BENCH_<suite>.json"
    )
    bench_run_p.add_argument(
        "--suite", default="smoke",
        help="suite name (smoke, hotpaths, ...; default: smoke)",
    )
    bench_run_p.add_argument(
        "--out",
        help="output JSON path (default: BENCH_<suite>.json in the cwd)",
    )
    bench_run_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes, one benchmark per shard (timing stays "
        "per-shard through the audited clock; co-scheduled shards can "
        "contend, so gate comparisons serially)",
    )
    # no --cache-dir: a cached timing would report a past machine state
    bench_run_p.set_defaults(func=_cmd_bench_run)

    bench_cmp_p = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json files; exit 1 on median regression",
    )
    bench_cmp_p.add_argument(
        "--baseline", required=True,
        help="checked-in baseline BENCH_*.json",
    )
    bench_cmp_p.add_argument(
        "--new",
        help="fresh results JSON (default: re-run the baseline's suite now)",
    )
    bench_cmp_p.add_argument(
        "--max-regress", default="25%",
        help="median-regression threshold, e.g. '40%%' (default: 25%%)",
    )
    bench_cmp_p.add_argument(
        "--no-noise", action="store_true",
        help="disable noise-aware threshold widening",
    )
    bench_cmp_p.set_defaults(func=_cmd_bench_compare)

    bench_up_p = bench_sub.add_parser(
        "update-baseline",
        help="re-run a suite and overwrite its checked-in baseline",
    )
    bench_up_p.add_argument(
        "--suite", default="smoke",
        help="suite name (default: smoke)",
    )
    bench_up_p.add_argument(
        "--baseline",
        help="baseline path to write (default: BENCH_<suite>.json)",
    )
    bench_up_p.set_defaults(func=_cmd_bench_update)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
