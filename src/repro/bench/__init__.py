"""Benchmark harness regenerating every table and figure of the paper.

:mod:`repro.bench.runner` knows how to build, train and evaluate every
method on every synthetic benchmark (with caching, so tables that share
trained models — e.g. Table III entity scores, Table VII relation scores
and Table VIII timings — train each model once per pytest session).
:mod:`repro.bench.tables` renders paper-style result tables.
:mod:`repro.bench.perf` is the perf side: one table of component
benchmarks, one measure path and one gate over the committed budgets
and the :mod:`repro.bench.history` ledger.
"""

from repro.bench.history import (
    DEFAULT_TOLERANCE,
    DEFAULT_WINDOW,
    HistoryError,
    RegressionVerdict,
    append_entry,
    detect_regression,
    make_entry,
    read_history,
    summarize_history,
    write_summary,
)
from repro.bench.perf import (
    BENCHMARKS,
    Benchmark,
    BenchError,
    gate,
    get_benchmark,
    run_benchmark,
    update_baseline,
)
from repro.bench.runner import (
    BENCH_PROFILES,
    DEFAULT_METHODS,
    BenchProfile,
    TrainedMethod,
    get_trained,
    retia_variant,
    revealed_model,
)
from repro.bench.tables import format_table, print_header

__all__ = [
    "BENCHMARKS",
    "BenchError",
    "BenchProfile",
    "BENCH_PROFILES",
    "Benchmark",
    "DEFAULT_METHODS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_WINDOW",
    "HistoryError",
    "RegressionVerdict",
    "TrainedMethod",
    "append_entry",
    "detect_regression",
    "gate",
    "get_benchmark",
    "get_trained",
    "make_entry",
    "read_history",
    "retia_variant",
    "revealed_model",
    "run_benchmark",
    "summarize_history",
    "update_baseline",
    "write_summary",
    "format_table",
    "print_header",
]
