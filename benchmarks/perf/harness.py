"""Runs one workload in this process and measures it.

Set-up (timed as ``setup_s``): start the oracle child, make the inputs
from the seed, warm every kind up once untimed (on ``serve-mixed``:
materialize the view, run one untimed round), collect the oracle's
digests. Then a closed loop - one client, the next operation only after
the previous returned - runs whole passes until ``--seconds`` have
elapsed. Every output is compared with the oracle; a mismatch, a non-ok
status or a refusal is a failed operation.

With ``trace`` on, passes alternate untraced / traced, so the tracing
overhead is measured inside one run and the layer figures come from the
traced passes only.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from benchmarks.perf import oracle, workloads
from benchmarks.perf.catalog import (
    END_TO_END,
    PER_LAYER,
    as_metrics,
    geomean,
    median,
    percentile,
    ratio,
)
from benchmarks.perf.spans import Tracer
from repro import PbmeMode, RecStep, RecStepConfig
from repro.core import compiler
from repro.programs import get_program
from repro.server import QueryRequest, QueryService, ServerConfig

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"
#: Cheap set-up steps are repeated this often and enter setup_s by their
#: median; the oracle and the warm-up run once.
SETUP_REPEATS = 3
ORACLE_TIMEOUT_S = 150


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    started: float,
) -> dict:
    """Run one workload; returns the document written to ``out/``."""
    workload = workloads.WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT_DIR))
    tracer = Tracer() if trace else None
    try:
        runner = _run_serving if workload.serving else _run_batch
        measured = runner(workload, seed, seconds, smoke, tracer, scratch, started)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    rows = measured["rows"]
    attempted = len(rows)
    failed = sum(1 for row in rows if not row["ok"])
    values = measured["metrics"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wanted = [entry[0] for entry in (PER_LAYER if trace else END_TO_END)]
    document = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scope": "smoke" if smoke else "full",
        "trace": int(trace),
        "environment": environment(),
        "summary": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_share": ratio(failed, attempted),
            "samples": measured["samples"],
            "metrics": as_metrics({key: values.get(key, 0.0) for key in wanted}),
            # everything measured, including what the driver does not ask
            # for in this mode (client-side figures on an untraced run)
            "all": {key: float(value) for key, value in sorted(values.items())},
        },
        "rows": rows,
    }
    suffix = ".layers.json" if trace else ".json"
    with open(OUT_DIR / f"{name}{suffix}", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{name}.json", workload=name, seed=seed)
    return document


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "pinned": {
            key: value
            for key, value in os.environ.items()
            if key.endswith("_NUM_THREADS") or key.startswith("MALLOC_")
        },
        "io_note": "fsync cost and page-cache behaviour are this sandbox's, not a "
        "storage device's: spill and WAL latencies compare code, not disks",
    }


# -- the oracle child --------------------------------------------------------------


def start_oracle(name: str, seed: int, seconds: float, smoke: bool):
    command = [
        sys.executable,
        str(PERF_DIR / "oracle.py"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
    ]  # fmt: skip
    if smoke:
        command.append("--smoke")
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)


def collect_oracle(process) -> dict:
    try:
        output, _ = process.communicate(timeout=ORACLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"oracle process exited with {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def _setup_seconds(started: float, repeated: list[float]) -> float:
    """Elapsed since process start, repeated steps counted once (median)."""
    return perf_counter() - started - sum(repeated) + median(repeated)


def _settle() -> None:
    """Set-up objects leave the collected heap: the timed loop's garbage
    collections then scan what the program allocates, not the harness."""
    gc.collect()
    gc.freeze()


# -- batch workloads ---------------------------------------------------------------


def _run_batch(workload, seed, seconds, smoke, tracer, scratch, started) -> dict:
    oracle_process = start_oracle(workload.name, seed, seconds, smoke)
    try:
        repeated = []
        for _ in range(SETUP_REPEATS):
            begin = perf_counter()
            inputs = {
                cell.name: workloads.cell_inputs(cell, seed, smoke)
                for cell in workload.cells
            }
            specs = {cell.name: get_program(cell.program) for cell in workload.cells}
            arities = {name: spec.parse().arities for name, spec in specs.items()}
            repeated.append(perf_counter() - begin)

        def evaluate(cell, expected, traced, op):
            return _evaluate_cell(
                cell, specs[cell.name], arities[cell.name], inputs[cell.name],
                expected, tracer if traced else None, scratch, op,
            )  # fmt: skip

        for cell in workload.cells:
            evaluate(cell, None, False, -1)
        expected = collect_oracle(oracle_process)
    finally:
        if oracle_process.poll() is None:
            oracle_process.kill()
            oracle_process.communicate()
    _settle()
    setup_s = _setup_seconds(started, repeated)

    rows = []
    passes = 0
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and passes % 2 == 1
        for cell in workload.cells:
            row = evaluate(cell, expected[cell.name], traced, len(rows))
            row.update(pass_index=passes, traced=traced)
            rows.append(row)
        passes += 1
        if perf_counter() >= deadline and (tracer is None or passes >= 2):
            break

    names = [cell.name for cell in workload.cells]
    plain = [row for row in rows if not row["traced"]]
    first_pass = {row["kind"]: row for row in reversed(plain)}
    metrics = _kind_metrics(
        workload,
        {name: _walls(plain, name) for name in names},
        per_pass=dict.fromkeys(names, 1),
        work_per_pass=sum(first_pass[name]["tuples"] for name in names),
    )
    metrics["setup_s"] = setup_s
    metrics["fixpoint_sim_s"] = sum(first_pass[name]["sim_s"] for name in names)
    metrics["modeled_peak_mb"] = max(row["peak_bytes"] for row in plain) / 1e6
    if tracer is not None:
        traced_rows = [row for row in rows if row["traced"]]
        traced_wall_total = sum(row["wall_s"] for row in traced_rows)
        metrics.update(
            _layer_metrics(
                tracer.layer_totals(),
                traced_passes=len({row["pass_index"] for row in traced_rows}),
                traced_wall_total=traced_wall_total,
                traced_pass_wall=sum(median(_walls(traced_rows, name)) for name in names),
                plain_pass_wall=metrics["pass_wall_s"],
            )
        )
        for name in names:
            mine = [row for row in traced_rows if row["kind"] == name]
            metrics[f"cell.{name}.wall_s"] = median([row["wall_s"] for row in mine])
            metrics[f"cell.{name}.sim_s"] = median([row["sim_s"] for row in mine])
        metrics["clock.sim_over_wall"] = ratio(
            sum(row["sim_s"] for row in traced_rows), traced_wall_total
        )
    return {
        "rows": rows,
        "metrics": metrics,
        "samples": {name: len(_walls(plain, name)) for name in names},
    }


def _walls(rows: list[dict], kind: str) -> list[float]:
    return [row["wall_s"] for row in rows if row["kind"] == kind]


def _evaluate_cell(cell, spec, arities, edb, expected, tracer, scratch, op) -> dict:
    """One ``RecStep.evaluate`` of a cell, timed and checked."""
    overrides = dict(cell.config)
    spill_dir = None
    if cell.spill:
        spill_dir = tempfile.mkdtemp(prefix="spill-", dir=scratch)
        overrides["spill_dir"] = spill_dir
    config = RecStepConfig(profile=tracer is not None, **overrides)
    gc.collect()
    if tracer is not None:
        tracer.op = op
        tracer.install()
    try:
        begin = perf_counter()
        result = RecStep(config).evaluate(spec, edb, cell.name)
        wall = perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
    digests = oracle.digest_relations(result.tuples, arities)
    return {
        "kind": cell.name,
        "wall_s": wall,
        "sim_s": result.sim_seconds,
        "peak_bytes": result.peak_memory_bytes,
        "tuples": sum(len(rows) for rows in result.tuples.values()),
        "iterations": result.iterations,
        "status": result.status,
        "ok": result.status == "ok" and (expected is None or digests == expected),
    }


# -- serve-mixed ---------------------------------------------------------------------


def _run_serving(workload, seed, seconds, smoke, tracer, scratch, started) -> dict:
    program = get_program("TC")
    full_table = compiler.full_table(program.outputs[0])
    server_config = ServerConfig(
        max_concurrent=2,
        queue_limit=8,
        wal_compact_records=workloads.UPDATES_PER_ROUND * workloads.compact_rounds(smoke),
    )
    engine_config = RecStepConfig(pbme=PbmeMode.OFF, profile=tracer is not None)

    def new_service(wal_root) -> QueryService:
        return QueryService(
            replace(server_config, wal_root=str(wal_root)), engine_config=engine_config
        )

    def view_digest(service, view_id):
        # No public accessor returns a maintained view's rows; this is the
        # read MaterializedFixpoint.fixpoint() does, minus the tuple sets.
        view = service._views[view_id]
        return oracle.digest(view.database.table_snapshot(full_table))

    oracle_process = start_oracle(workload.name, seed, seconds, smoke)
    try:
        repeated = []
        materialize_walls = []
        for attempt in range(SETUP_REPEATS):
            begin = perf_counter()
            arc, stream = workloads.serve_inputs(seed, workloads.max_rounds(seconds, smoke))
            wal_root = scratch / f"wal-{attempt}"
            service = new_service(wal_root)
            submitted = perf_counter()
            ack = service.submit(
                QueryRequest(
                    program=program, edb_data={"arc": arc},
                    dataset=workloads.SERVE_DATASET, materialize=True,
                )
            )  # fmt: skip
            service.flush()
            repeated.append(perf_counter() - begin)
            materialize_walls.append(perf_counter() - submitted)
            if attempt < SETUP_REPEATS - 1:
                shutil.rmtree(wal_root, ignore_errors=True)
        view_id = ack["session_id"]
        view_session = service.sessions.get(view_id)

        client = _Client(service, program, arc, view_id, tracer)
        for op in stream[0]:  # warm-up round, untimed
            client.send(op, expected=None, traced=False)
        expected = collect_oracle(oracle_process)
    finally:
        if oracle_process.poll() is None:
            oracle_process.kill()
            oracle_process.communicate()
    _settle()
    setup_s = _setup_seconds(started, repeated)

    materialized = oracle.tuples_to_rows(view_session.result.tuples[program.outputs[0]], 2)
    rows = [
        {
            "kind": "materialize",
            "wall_s": median(materialize_walls),
            "status": view_session.state.value,
            "ok": view_session.state.value == "done"
            and oracle.digest(materialized) == expected["base"],
            "traced": False,
            "pass_index": -1,
        }
    ]
    stops = set(workloads.stop_rounds(seconds, smoke))
    rounds = 1
    deadline = perf_counter() + seconds
    while rounds < len(stream):
        # two untraced rounds, two traced, ...: a WAL compaction closes
        # every fourth round, and this way the traced rounds include it
        traced = tracer is not None and (rounds // 2) % 2 == 1
        for op in stream[rounds]:
            row = client.send(op, expected["points"], traced)
            row.update(pass_index=rounds, traced=traced)
            rows.append(row)
        rounds += 1
        if perf_counter() >= deadline and rounds in stops:
            break
    final = expected["final"][str(rounds)]
    rows.append(
        {
            "kind": "view-check",
            "ok": view_digest(service, view_id) == final,
            "traced": False,
            "pass_index": rounds,
        }
    )
    counters = service.metrics_snapshot()["counters"]
    loop_totals = tracer.layer_totals() if tracer is not None else None
    service.drain()
    base_bytes = sum(
        path.stat().st_size for path in Path(service.config.wal_root).glob("*/base/*")
    )

    # Crash recovery: a fresh service over the drained directory, dropped
    # without drain() so the next recovery finds the same bytes.
    replayed = []
    for attempt in range(workloads.RECOVERIES):
        fresh = new_service(service.config.wal_root)
        gc.collect()
        if tracer is not None:
            tracer.op = len(rows)
            tracer.install()
        try:
            begin = perf_counter()
            report = fresh.recover()
            wall = perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        recovered = list(report["recovered"].values())
        ok = len(recovered) == 1 and not report["failed"]
        if ok:
            replayed.append(recovered[0]["records_replayed"])
            ok = (
                replayed[-1] == workloads.UPDATES_PER_ROUND
                and view_digest(fresh, recovered[0]["session_id"]) == final
            )
        rows.append(
            {
                "kind": "recover",
                "wall_s": wall,
                "ok": ok,
                "traced": tracer is not None,
                "pass_index": rounds,
            }
        )

    timed = [row for row in rows if row["kind"] in workloads.OPS_PER_ROUND]
    plain = [row for row in timed if not row["traced"]]
    walls = {kind: _walls(plain, kind) for kind in workloads.OPS_PER_ROUND}
    metrics = _kind_metrics(
        workload,
        walls,
        per_pass=workloads.OPS_PER_ROUND,
        work_per_pass=len(workloads.ROUND_KINDS),
    )
    metrics.update(
        setup_s=setup_s,
        serve_ops_per_s=ratio(len(plain), sum(r["wall_s"] for r in plain)),
        update_insert_p50_ms=1000.0 * median(walls["insert"]),
        update_insert_p90_ms=1000.0 * percentile(walls["insert"], 90),
        update_delete_p50_ms=1000.0 * median(walls["delete"]),
        point_p50_ms=1000.0 * median(walls["point"]),
        point_p90_ms=1000.0 * percentile(walls["point"], 90),
        recover_s=median(_walls(rows, "recover")),
        fixpoint_sim_s=view_session.result.sim_seconds,
        modeled_peak_mb=view_session.result.peak_memory_bytes / 1e6,
    )
    if tracer is not None:
        traced_rows = [row for row in timed if row["traced"]]
        traced_rounds = len({row["pass_index"] for row in traced_rows})
        loop_wall = sum(r["wall_s"] for r in traced_rows)
        layers = _layer_metrics(
            loop_totals,
            traced_rounds,
            traced_wall_total=loop_wall,
            traced_pass_wall=sum(
                count * median(_walls(traced_rows, kind))
                for kind, count in workloads.OPS_PER_ROUND.items()
            ),
            plain_pass_wall=metrics["pass_wall_s"],
        )
        # every round logs the same number of batches, traced or not
        wal_bytes = counters.get("wal.bytes_appended", 0)
        user_bytes = 8 * 2 * sum(
            op.rows.shape[0] for ops in stream[:rounds] for op in ops if op.rows is not None
        )
        recover_totals = tracer.layer_totals() - loop_totals
        layers.update(
            {
                "resilience.wal.bytes_appended": ratio(wal_bytes, rounds),
                "resilience.wal.bytes_per_user_byte": ratio(wal_bytes, user_bytes),
                "resilience.checkpoint.base_bytes": float(base_bytes),
                "server.service.recover_self_s": ratio(
                    recover_totals["server.service.recover_self_s"], workloads.RECOVERIES
                ),
                "server.service.materialize_s": median(materialize_walls),
                "server.service.overhead_share": ratio(
                    loop_totals["server.service.submit_self_s"]
                    + loop_totals["server.service.flush_self_s"],
                    loop_wall,
                ),
                "server.service.point_cache_hit_ratio": ratio(
                    counters.get("server.point_cache_hits", 0),
                    counters.get("server.point_queries", 0),
                ),
                "server.service.batches_replayed": median(replayed),
                "clock.sim_over_wall": ratio(sum(r["sim_s"] for r in traced_rows), loop_wall),
            }
        )
        metrics.update(layers)
    return {
        "rows": rows,
        "metrics": metrics,
        "samples": {kind: len(values) for kind, values in walls.items()},
    }


class _Client:
    """The one closed-loop client: ``submit`` then ``flush``, then check."""

    def __init__(self, service, program, arc, view_id, tracer) -> None:
        self.service = service
        self.program = program
        self.arc = arc
        self.view_id = view_id
        self.tracer = tracer
        self.sent = 0

    def send(self, op, expected, traced: bool) -> dict:
        predicate = self.program.outputs[0]
        if op.kind == "point":
            request = QueryRequest(
                program=self.program, edb_data={"arc": self.arc},
                kind="point", goal=f"{predicate}({op.source}, x)",
            )  # fmt: skip
        else:
            side = "inserts" if op.kind == "insert" else "deletes"
            request = QueryRequest(
                program=self.program, edb_data={}, kind="update",
                target_session=self.view_id, batch_id=f"b{self.sent}",
                **{side: {"arc": op.rows}},
            )  # fmt: skip
        self.sent += 1
        if traced:
            self.tracer.op = self.sent
            self.tracer.install()
        try:
            begin = perf_counter()
            ack = self.service.submit(request)
            self.service.flush()
            wall = perf_counter() - begin
        finally:
            if traced:
                self.tracer.uninstall()
        row = {"kind": op.kind, "wall_s": wall, "sim_s": 0.0}
        if not ack["accepted"]:
            row.update(status=f"refused:{ack['reason']}", ok=False)
            return row
        session = self.service.sessions.get(ack["session_id"])
        row.update(status=session.state.value, ok=session.state.value == "done")
        if session.result is not None:
            row["sim_s"] = session.result.sim_seconds
        if row["ok"] and op.kind == "point" and expected is not None:
            answers = session.result.tuples[predicate]
            row["ok"] = (
                oracle.digest(oracle.tuples_to_rows(answers, 2))
                == expected[str(op.source)]
            )
        return row


# -- shared arithmetic ------------------------------------------------------------------


def _kind_metrics(workload, walls_s: dict, per_pass: dict, work_per_pass: int) -> dict:
    """The end-to-end figures every workload reports, from per-kind walls."""
    medians = {kind: median(values) for kind, values in walls_s.items()}
    pass_wall = sum(per_pass[kind] * medians[kind] for kind in medians)
    return {
        "pass_wall_s": pass_wall,
        "work_per_s": ratio(work_per_pass, pass_wall),
        "heavy_kind_p50_ms": medians[workload.heavy] * 1000.0,
        "light_kind_p50_ms": medians[workload.light] * 1000.0,
        "kind_p50_geomean_ms": geomean(medians.values()) * 1000.0,
    }


def _layer_metrics(
    totals, traced_passes, traced_wall_total, traced_pass_wall, plain_pass_wall
) -> dict:
    """Per-pass layer figures from a tracer's totals over ``traced_passes``."""
    layers = {name: 0.0 for name, _, _ in PER_LAYER if "." in name}
    for name in layers:
        if name in totals:
            layers[name] = ratio(totals[name], traced_passes)
    layers["core.ivm.rederive_ratio"] = ratio(
        totals["core.ivm.rederived_rows"], totals["core.ivm.overdeleted_rows"]
    )
    layers["engine.database.dedup_survival"] = ratio(
        totals["engine.database.dedup_rows_out"], totals["engine.database.dedup_rows_in"]
    )
    layers["engine.database.setdiff_new_ratio"] = ratio(
        totals["engine.database.setdiff_rows_new"], totals["engine.database.setdiff_rows_in"]
    )
    lookups = sum(totals[f"engine.joincache.{key}"] for key in ("hits", "misses", "extends"))
    layers["engine.joincache.hit_ratio"] = ratio(totals["engine.joincache.hits"], lookups)
    layers["trace.coverage"] = ratio(totals["trace.self_s"], traced_wall_total)
    layers["trace.overhead_ratio"] = ratio(traced_pass_wall, plain_pass_wall)
    return layers

