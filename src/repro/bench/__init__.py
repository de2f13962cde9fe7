"""Experiment harness regenerating every table and figure of the paper.

:mod:`repro.bench.experiments` contains one driver per experiment (Figure
2(b), Figures 8-13, Tables 3-5); each driver returns plain row dictionaries
which :mod:`repro.bench.report` renders as aligned text tables — the same
rows/series the paper reports.  :mod:`repro.bench.harness` provides the
shared machinery (algorithm registry, per-query timing, aggregation), and
``python -m repro.bench <experiment>`` runs any driver from the command
line.  The pytest-benchmark files under ``benchmarks/`` call the same
drivers.
"""

from repro.bench.harness import AlgorithmRegistry, ExperimentScale, QueryRunner
from repro.bench.report import render_series, render_table

__all__ = [
    "AlgorithmRegistry",
    "ExperimentScale",
    "QueryRunner",
    "render_table",
    "render_series",
]
