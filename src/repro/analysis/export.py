"""Export evaluation results and traces to CSV for external plotting.

The bench harness renders paper-style text tables; this module gives
downstream users machine-readable output (one row per run; one row per
trace sample) without pulling in a plotting dependency.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.common.records import EvaluationResult

RESULT_FIELDS = [
    "engine",
    "program",
    "dataset",
    "status",
    "sim_seconds",
    "iterations",
    "peak_memory_bytes",
]


def results_to_csv(results: list[EvaluationResult]) -> str:
    """One CSV row per evaluation run."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=RESULT_FIELDS)
    writer.writeheader()
    for result in results:
        writer.writerow(
            {
                "engine": result.engine,
                "program": result.program,
                "dataset": result.dataset,
                "status": result.status,
                "sim_seconds": f"{result.sim_seconds:.6f}",
                "iterations": result.iterations,
                "peak_memory_bytes": result.peak_memory_bytes,
            }
        )
    return buffer.getvalue()


def trace_to_csv(result: EvaluationResult, which: str = "memory") -> str:
    """A (time, value) CSV of one run's memory or CPU trace."""
    trace = result.memory_trace if which == "memory" else result.cpu_trace
    if trace is None:
        raise ValueError(f"result has no {which} trace")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["sim_seconds", which])
    for time, value in trace.as_tuples():
        writer.writerow([f"{time:.6f}", f"{value:.6f}"])
    return buffer.getvalue()


def write_results_csv(results: list[EvaluationResult], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(results_to_csv(results))
    return path
