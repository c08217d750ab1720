"""Tests for the CSV export utilities."""

import numpy as np
import pytest

from repro.analysis.export import results_to_csv, trace_to_csv, write_results_csv
from repro.analysis.harness import run_workload
from repro.common.records import EvaluationResult, Trace


class TestExport:
    def test_results_csv_round_trip(self):
        results = [
            EvaluationResult("RecStep", "TC", "G500", sim_seconds=1.25, iterations=4),
            EvaluationResult("Souffle", "TC", "G500", status="oom"),
        ]
        text = results_to_csv(results)
        lines = text.strip().splitlines()
        assert lines[0].startswith("engine,program,dataset")
        assert "RecStep,TC,G500,ok,1.250000,4" in lines[1]
        assert "Souffle,TC,G500,oom" in lines[2]

    def test_trace_csv(self):
        result = EvaluationResult("E", "P", "D")
        result.memory_trace = Trace("m")
        result.memory_trace.record(0.0, 100.0)
        result.memory_trace.record(1.0, 200.0)
        text = trace_to_csv(result, "memory")
        assert text.splitlines()[0] == "sim_seconds,memory"
        assert len(text.strip().splitlines()) == 3

    def test_trace_missing_raises(self):
        with pytest.raises(ValueError):
            trace_to_csv(EvaluationResult("E", "P", "D"), "memory")

    def test_write_to_file(self, tmp_path):
        result = run_workload("RecStep", "TC", "G500", enforce_budgets=False)
        path = write_results_csv([result], tmp_path / "runs.csv")
        assert path.read_text().count("\n") == 2

    def test_real_run_trace_export(self):
        result = run_workload("RecStep", "TC", "G500", enforce_budgets=False)
        text = trace_to_csv(result, "cpu")
        assert len(text.splitlines()) > 5
