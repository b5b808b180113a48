"""Static and dynamic analysis of annotations, locks, and races.

The fault campaign (:mod:`repro.faults`) proves bad hints cannot break
correctness; this package finds the bad hints.  Three passes share one
diagnostic framework (:mod:`repro.analysis.diagnostics` -- stable codes,
deterministic ordering, baseline suppression):

- :mod:`repro.analysis.annotations` -- diff ``at_share`` edges against
  the sharing each workload actually exhibits (AN001/AN002/AN003);
- :mod:`repro.analysis.locks` -- static + dynamic lock-order graphs,
  flagging wait-for cycles before they become runtime ``DeadlockError``
  (LK001/LK002/LK003);
- :mod:`repro.analysis.races` -- a vector-clock happens-before sanitizer
  over the event stream (RS001);
- :mod:`repro.analysis.determinism` -- ``repro-lint``, guarding the
  simulator's own source against nondeterminism (DT000-DT006);
- :mod:`repro.analysis.mc` -- the exhaustive schedule model checker
  (stateless search + DPOR) and the symbolic cache-model verification
  (MC001-MC005);
- :mod:`repro.analysis.repair` -- synthesize, localize and verify
  ``at_share`` fixes for the auditor's findings (``repro analyze
  --suggest``/``--fix``).

Entry points: ``repro analyze``, ``repro lint``, and ``repro mc`` in
:mod:`repro.cli`, or :func:`repro.analysis.engine.run_analysis`
programmatically.  See docs/ANALYSIS.md for the code registry and
suppression workflow.
"""

from repro.analysis.annotations import AnnotationAuditor
from repro.analysis.determinism import lint_file, lint_paths
from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    Report,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    PASSES,
    analyze_workload,
    lint_workload_names,
    run_analysis,
)
from repro.analysis.locks import LockGraph, LockOrderMonitor, scan_workload_class
from repro.analysis.races import RaceSanitizer

__all__ = [
    "CODES",
    "PASSES",
    "AnnotationAuditor",
    "Diagnostic",
    "LockGraph",
    "LockOrderMonitor",
    "RaceSanitizer",
    "Report",
    "analyze_workload",
    "lint_file",
    "lint_paths",
    "lint_workload_names",
    "load_baseline",
    "run_analysis",
    "scan_workload_class",
    "write_baseline",
]
