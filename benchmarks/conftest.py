"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures: it runs the
corresponding experiment once, prints the rows/series the paper reports,
and persists them under ``benchmarks/results/`` so the output survives
pytest's capture.  Shape assertions (who wins, roughly by how much) keep
the reproduction honest without pinning absolute numbers.

- ``report`` writes a figure/table bench's ``results/<name>.txt``;
- ``report_suite`` writes a timed bench's ``results/<name>.json``:
  timing flows through the audited harness (:func:`repro.bench.measure`)
  in the same schema as the repo-root ``BENCH_*.json`` baselines.
"""

from __future__ import annotations

import pathlib

from repro.bench import SuiteResult, format_suite, write_suite

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def report(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def report_suite(name: str, *results, text: str = "") -> None:
    """Persist harness results as ``benchmarks/results/<name>.json``.

    ``results`` are :class:`repro.bench.BenchResult` values (from
    :func:`repro.bench.measure`); ``text`` optionally adds the
    human-readable block the old ``.txt`` files carried, printed but no
    longer persisted -- the JSON is the artifact.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    suite = SuiteResult(suite=name, results=tuple(results))
    write_suite(str(RESULTS_DIR / f"{name}.json"), suite)
    print(f"\n{format_suite(suite)}\n")
    if text:
        print(f"{text}\n")
