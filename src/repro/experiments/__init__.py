"""Experiment reproductions, one module per paper table/figure.

Each module exposes ``run_*`` functions returning plain data structures
and a ``format_*`` helper producing the rows/series the paper reports.
The ``benchmarks/`` tree runs each of these from one pytest target; the
modules themselves are importable for interactive exploration.
"""

from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.table3 import run_table3
from repro.experiments.table5 import run_table5

__all__ = [
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_table3",
    "run_table5",
]
