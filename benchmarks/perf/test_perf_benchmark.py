"""Self-test of the wall-clock benchmark (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from benchmarks.perf import catalog, harness, run, spans, workloads

RUN_PY = str(harness.PERF_DIR / "run.py")


def test_benchmark_json_mirrors_the_catalogue():
    benchmark = run.BENCHMARK
    assert benchmark["paths"] == ["benchmarks/perf"]
    assert [(w["name"], w["why"]) for w in benchmark["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    ] == catalog.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]
    ] == catalog.PER_LAYER
    assert set(catalog.CELLS) == {
        cell.name for workload in workloads.WORKLOADS.values() for cell in workload.cells
    }
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert len(benchmark["per_layer"]) <= 128


def test_self_time_is_duration_minus_direct_children():
    #   root 0..10
    #     a 1..4          (child b 2..3)
    #     c 5..9          (children d 5..6, e 7..9)
    #   other root 20..21
    synthetic = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("d", 5.0, 6.0, 3, 0),
        ("e", 7.0, 9.0, 3, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    own = spans.self_times(synthetic)
    assert own == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0]
    # self times of a tree add up to its root's duration
    assert sum(own[:6]) == 10.0


def _assert_unpatched(tracer: spans.Tracer) -> None:
    for owner, attribute, original in tracer.patched_attributes():
        assert getattr(owner, attribute) is original, (owner, attribute)


def test_tracer_patches_where_names_are_looked_up_and_restores():
    from repro.core import recstep
    from repro.datalog import magic
    from repro.server import service

    tracer = spans.Tracer()
    original = magic.magic_rewrite
    tracer.install()
    try:
        for module in (magic, recstep, service):
            assert module.magic_rewrite is not original
            assert module.magic_rewrite.__wrapped__ is original
    finally:
        tracer.uninstall()
    _assert_unpatched(tracer)
    assert service.magic_rewrite is original


def test_traced_run_writes_layers_and_restores_every_attribute(monkeypatch):
    tracers = []
    real = spans.Tracer

    def remember():
        tracers.append(real())
        return tracers[-1]

    monkeypatch.setattr(harness, "Tracer", remember)
    document = harness.run_workload(
        "long-chain", seed=5, seconds=0.0, trace=True, smoke=True, started=time.perf_counter()
    )
    (tracer,) = tracers
    _assert_unpatched(tracer)
    assert document["summary"]["correct"]
    metrics = document["summary"]["metrics"]
    assert list(metrics) == [name for name, _, _ in catalog.PER_LAYER]
    assert metrics["storage.spill.bytes_written"]["value"] > 0
    assert metrics["core.bitmatrix.strata"]["value"] == 0
    assert metrics["trace.coverage"]["value"] > 0.9
    with open(harness.OUT_DIR / "trace-long-chain.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert len(trace["spans"]) == len(tracer.spans) > 0


def test_smoke_scope_prints_every_end_to_end_metric_with_its_unit():
    begin = time.perf_counter()
    done = subprocess.run(
        [sys.executable, RUN_PY, "--smoke", "--seed", "3"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170,
    )  # fmt: skip
    assert time.perf_counter() - begin < 60
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {
            name: entry["unit"] for name, entry in result["metrics"].items()
        } == {name: unit for name, unit, _, _ in catalog.END_TO_END}
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    for name, unit, _, _ in catalog.END_TO_END:
        assert done.stdout.count(f"  {name} ") == len(results)
        assert f" {unit}\n" in done.stdout


def test_corrupted_oracle_digest_fails_the_run(monkeypatch, capsys):
    collect = harness.collect_oracle

    def corrupted(process):
        expected = collect(process)
        expected["sg-g700"]["sg"][1] ^= 1
        return expected

    monkeypatch.setattr(harness, "collect_oracle", corrupted)
    status = run.main(["--workload", "graph-pbme", "--smoke", "--seed", "3"])
    assert status != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    with open(harness.OUT_DIR / "graph-pbme.json", encoding="utf-8") as handle:
        assert json.load(handle)["summary"]["failed_share"] > 0


def test_compare_flags_a_metric_outside_its_bound():
    from benchmarks.perf import compare

    before = {"w": {"pass_wall_s": 1.0, "work_per_s": 100.0, "failed_share": 0.0}}
    steady = {"w": {"pass_wall_s": 1.05, "work_per_s": 96.0, "failed_share": 0.0}}
    slower = {"w": {"pass_wall_s": 1.0, "work_per_s": 70.0, "failed_share": 0.0}}
    assert compare.compare(before, steady)[1]
    lines, within = compare.compare(before, slower)
    assert not within
    assert any("work_per_s" in line and "OUTSIDE" in line for line in lines)


@pytest.mark.parametrize("seed", [1, 2])
def test_same_seed_same_inputs_other_seed_other_inputs(seed):
    cell = workloads.WORKLOADS["pa-relational"].cells[0]
    first = workloads.cell_inputs(cell, seed, smoke=True)
    again = workloads.cell_inputs(cell, seed, smoke=True)
    other = workloads.cell_inputs(cell, seed + 10, smoke=True)
    assert all((first[name] == again[name]).all() for name in first)
    assert any((first[name] != other[name]).any() for name in first)
    assert {name: rows.shape for name, rows in first.items()} == {
        name: rows.shape for name, rows in other.items()
    }
