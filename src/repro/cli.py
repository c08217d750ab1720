"""Command-line frontend: evaluate ``.datalog`` files.

The paper's system reads "a .datalog file, which, along with the rules of
the Datalog program, provides paths for the input and output tables"
(Section 4). This module implements that format:

    .input arc arc_edges.tsv
    .output tc tc_result.tsv

    tc(x, y) :- arc(x, y).
    tc(x, y) :- tc(x, z), arc(z, y).

Directives start with ``.``; everything else is the Datalog program.
Paths are resolved relative to the ``.datalog`` file. Run with::

    python -m repro.cli program.datalog [--engine RecStep] [--threads 20]

A program may end with point queries (``?- tc(5, x).``), or one may be
given on the command line with ``--query "tc(5, x)"`` (which overrides
the file's). Point goals are answered through the magic-set demand
rewrite: only the goal's cone is evaluated, and the answers are
tuple-identical to post-filtering a full materialization.

Exit codes (the contract scripts may rely on):

* ``0`` — the run completed (``status == "ok"``).
* ``1`` — hard failure: OOM, timeout, fault, storage, cancellation —
  no trustworthy result was produced.
* ``2`` — usage error (argparse's own convention).
* ``3`` — degraded but served: a divergence guard or cooperative
  deadline stopped the run at an iteration boundary with a structured
  partial result (``status "guard"``/``"deadline"``). The outputs, if
  written, reflect the partial fixpoint; callers who need the full
  fixpoint must treat 3 as a failure, callers probing behavior under
  pressure can treat it as success-with-caveats.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.harness import make_engine
from repro.common.errors import STATUS_OUTCOMES, UNKNOWN_OUTCOME, DatalogError
from repro.common.records import Relation
from repro.datalog.analyzer import analyze_program
from repro.datalog.parser import parse_goal, parse_program
from repro.datasets.io import load_relation, save_relation
from repro.programs.library import ProgramSpec


@dataclass
class DatalogFile:
    """A parsed ``.datalog`` file: program source plus I/O bindings."""

    source: str
    inputs: dict[str, Path] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)


def parse_datalog_file(path: str | Path) -> DatalogFile:
    """Split a ``.datalog`` file into directives and program text."""
    path = Path(path)
    base = path.parent
    program_lines: list[str] = []
    inputs: dict[str, Path] = {}
    outputs: dict[str, Path] = {}
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("."):
            program_lines.append(line)
            continue
        parts = stripped.split()
        if parts[0] == ".input" and len(parts) == 3:
            inputs[parts[1]] = base / parts[2]
        elif parts[0] == ".output" and len(parts) == 3:
            outputs[parts[1]] = base / parts[2]
        else:
            raise DatalogError(
                f"{path}:{line_number}: malformed directive {stripped!r} "
                "(expected '.input REL PATH' or '.output REL PATH')"
            )
    return DatalogFile(source="\n".join(program_lines), inputs=inputs, outputs=outputs)


def run_datalog_file(
    path: str | Path,
    engine_name: str = "RecStep",
    threads: int = 20,
    memory_budget: int | None = None,
    enforce_budgets: bool = True,
    profile: bool = False,
    fault_seed: int | None = None,
    fault_rate: float | None = None,
    degrade: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    resume_from: str | None = None,
    deadline: float | None = None,
    max_iterations: int | None = None,
    max_total_rows: int | None = None,
    join_cache: bool = True,
    partitioned_exec: bool = True,
    spill_dir: str | None = None,
    serve_trace: str | None = None,
    metrics_out: str | None = None,
    serve_updates: str | None = None,
    wal_root: str | None = None,
    serve_recover: bool = False,
    query: str | None = None,
):
    """Parse, load, evaluate, and write outputs; returns the result.

    ``enforce_budgets`` defaults to True everywhere (CLI, ``Database``,
    ``RecStepConfig``): evaluations fail with OOM/timeout at the modeled
    server limits unless explicitly disabled (``--no-enforce-budgets``).
    """
    datalog_file = parse_datalog_file(path)
    analyzed = analyze_program(parse_program(datalog_file.source, name=str(path)))

    missing = analyzed.edb - set(datalog_file.inputs)
    if missing:
        raise DatalogError(
            f"no .input directive for EDB relations: {sorted(missing)}"
        )
    unknown_outputs = set(datalog_file.outputs) - analyzed.idb
    if unknown_outputs:
        raise DatalogError(
            f".output names unknown IDB relations: {sorted(unknown_outputs)}"
        )

    edb_data = {
        name: load_relation(file_path, arity=analyzed.arities[name])
        for name, file_path in datalog_file.inputs.items()
        if name in analyzed.edb
    }

    spec = ProgramSpec(
        name=Path(path).stem,
        title=str(path),
        domain="user",
        source=datalog_file.source,
        outputs=tuple(sorted(datalog_file.outputs)),
    )
    extra = {}
    if memory_budget is not None:
        extra["memory_budget"] = memory_budget
    if profile:
        if engine_name != "RecStep":
            raise DatalogError("--profile is only supported by the RecStep engine")
        extra["profile"] = True
    if not join_cache:
        if engine_name != "RecStep":
            raise DatalogError("--no-join-cache is only supported by the RecStep engine")
        extra["join_cache"] = False
    if not partitioned_exec:
        if engine_name != "RecStep":
            raise DatalogError(
                "--no-partitioned-exec is only supported by the RecStep engine"
            )
        extra["partitioned_exec"] = False
    resilience_options = {
        "fault_seed": fault_seed,
        "degradation": degrade or None,
        "spill_dir": spill_dir,
        "checkpoint_dir": checkpoint_dir,
        "resume_from": resume_from,
        "deadline": deadline,
        "max_iterations": max_iterations,
        "max_total_rows": max_total_rows,
    }
    wanted = {k: v for k, v in resilience_options.items() if v is not None}
    if wanted:
        if engine_name != "RecStep":
            raise DatalogError(
                "resilience options are only supported by the RecStep engine: "
                + ", ".join(sorted(wanted))
            )
        if fault_rate is not None:
            wanted["fault_rate"] = fault_rate
        if checkpoint_every is not None:
            wanted["checkpoint_every"] = checkpoint_every
        extra.update(wanted)
    engine = make_engine(
        engine_name, threads=threads, enforce_budgets=enforce_budgets, **extra
    )
    goals = (
        [parse_goal(query)] if query is not None else list(analyzed.program.queries)
    )
    if goals:
        if engine_name != "RecStep":
            raise DatalogError(
                "point queries (--query / '?- goal.') are only supported by "
                "the RecStep engine"
            )
        if (
            serve_trace is not None
            or metrics_out is not None
            or serve_updates is not None
            or wal_root is not None
            or serve_recover
        ):
            raise DatalogError(
                "point queries cannot be combined with the service-route "
                "options (--serve-trace/--metrics-out/--serve-updates/"
                "--wal-root/--serve-recover)"
            )
        return _answer_goals(engine, spec, goals, edb_data, datalog_file, path)
    if serve_recover and wal_root is None:
        raise DatalogError("--serve-recover requires --wal-root")
    if (
        serve_trace is not None
        or metrics_out is not None
        or serve_updates is not None
        or wal_root is not None
    ):
        if engine_name != "RecStep":
            raise DatalogError(
                "--serve-trace/--metrics-out/--serve-updates/--wal-root are "
                "only supported by the RecStep engine"
            )
        result = _run_via_service(
            engine.config,
            spec,
            edb_data,
            Path(path).stem,
            serve_trace,
            metrics_out,
            serve_updates,
            wal_root=wal_root,
            recover=serve_recover,
        )
    else:
        result = engine.evaluate(spec, edb_data, dataset=Path(path).stem)

    if result.status == "ok":
        for name, file_path in datalog_file.outputs.items():
            rows = result.tuples[name]
            if not isinstance(rows, Relation):  # a baseline's set of tuples
                arity = analyzed.arities[name]
                rows = Relation(np.array(list(rows), dtype=np.int64).reshape(-1, arity))
            save_relation(file_path, rows.sorted_rows())
    return result


def _answer_goals(engine, spec, goals, edb_data, datalog_file, path):
    """Answer each point goal through the magic-set demand rewrite.

    Goals run in file order; the first non-ok result stops the run and is
    returned as-is (its status drives the exit code). A goal whose
    predicate has an ``.output`` binding writes its answer set there —
    the demand-restricted answers, not a full materialization.
    """
    result = None
    for goal in goals:
        result = engine.answer(spec, goal, edb_data, dataset=Path(path).stem)
        if result.status != "ok":
            return result
        if goal.predicate in datalog_file.outputs:
            save_relation(
                datalog_file.outputs[goal.predicate],
                result.tuples[goal.predicate].sorted_rows(),
            )
    return result


def _run_via_service(
    engine_config,
    spec,
    edb_data,
    dataset: str,
    trace_path: str | None,
    metrics_path: str | None = None,
    updates_path: str | None = None,
    wal_root: str | None = None,
    recover: bool = False,
):
    """Route one evaluation through :class:`QueryService`.

    The query runs as a single-slot service session — same admission,
    deadline, and drain machinery as a busy server. ``--serve-trace``
    writes the full shutdown report (session lifecycle, admission state,
    breaker board, server counters); ``--metrics-out`` writes just the
    telemetry export (``metrics_snapshot``: per-class latency histograms
    and the admission-queue timeline). Either implies the service route.

    ``--serve-updates FILE`` additionally materializes the fixpoint and
    replays FILE as an update log — JSON lines, each
    ``{"inserts": {rel: [[...], ...]}, "deletes": {...}}`` (optionally a
    ``"batch_id"``) — against the live view, so the written outputs are
    the *maintained* fixpoint after the whole log, not the cold-start
    one.

    With ``--wal-root DIR`` the materialized view persists a base
    checkpoint + write-ahead log under DIR; ``--serve-recover`` skips
    evaluation entirely and rebuilds the view named after the program
    from DIR (base + log replay), writing the recovered fixpoint.
    """
    import json
    from dataclasses import replace

    from repro.server import QueryRequest, QueryService, ServerConfig

    updates = _load_update_log(updates_path) if updates_path is not None else []

    # A session-scoped engine knob like --spill-dir becomes the service's
    # spill root: the service hands each session its own subdirectory.
    spill_root = engine_config.spill_dir
    if spill_root is not None:
        engine_config = replace(engine_config, spill_dir=None)
    service = QueryService(
        ServerConfig(
            max_concurrent=1,
            queue_limit=max(1, len(updates) + 1),
            spill_root=spill_root,
            wal_root=wal_root,
        ),
        engine_config=engine_config,
    )
    maintained = None
    if recover:
        recovery = service.recover(wal_root)
        view_id = next(
            (
                session_id
                for session_id, view in service._views.items()
                if view.program == spec.name
            ),
            None,
        )
        if view_id is None:
            raise DatalogError(
                f"--serve-recover found no recoverable view for program "
                f"{spec.name!r} under {wal_root}: {recovery['failed'] or 'empty root'}"
            )
        response = {"session_id": view_id}
        maintained = service._views[view_id].fixpoint()
    else:
        response = service.submit(
            QueryRequest(
                program=spec,
                edb_data=edb_data,
                dataset=dataset,
                materialize=updates_path is not None or wal_root is not None,
            )
        )
        if not response["accepted"]:  # single-slot idle service: cannot happen
            raise DatalogError(f"service rejected the query: {response}")
        view_id = response["session_id"]
        update_ids: list[str] = []
        for index, (inserts, deletes, batch_id) in enumerate(updates):
            ack = service.submit(
                QueryRequest(
                    program=spec,
                    edb_data={},
                    dataset=dataset,
                    kind="update",
                    target_session=view_id,
                    inserts=inserts,
                    deletes=deletes,
                    batch_id=batch_id,
                )
            )
            if not ack["accepted"]:
                raise DatalogError(
                    f"service rejected update batch {index}: {ack}"
                )
            update_ids.append(ack["session_id"])
        service.pump()
        if updates_path is not None:
            service.flush()
            for update_id in update_ids:
                update = service.sessions.get(update_id)
                if update.result is None or update.result.status != "ok":
                    raise DatalogError(
                        f"update batch session {update_id} failed: {update.failure}"
                    )
            maintained = service._views[view_id].fixpoint()
    report = service.drain()
    if trace_path is not None:
        Path(trace_path).write_text(
            json.dumps(report, indent=2, sort_keys=True, default=_json_fallback) + "\n"
        )
    if metrics_path is not None:
        Path(metrics_path).write_text(
            json.dumps(
                service.metrics_snapshot(),
                indent=2,
                sort_keys=True,
                default=_json_fallback,
            )
            + "\n"
        )
    session = service.sessions.get(response["session_id"])
    if session.result is None:
        raise DatalogError(
            f"service session {session.id} ended without a result: "
            f"{session.failure}"
        )
    if maintained is not None:
        # Outputs reflect the post-churn fixpoint the updates produced.
        session.result.tuples = maintained
    return session.result


def _load_update_log(path: str | Path) -> list[tuple[dict, dict, str | None]]:
    """Parse a JSONL update log into (inserts, deletes, batch_id) batches."""
    import json

    batches: list[tuple[dict, dict, str | None]] = []
    for line_number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as error:
            raise DatalogError(
                f"{path}:{line_number}: malformed update batch: {error}"
            ) from None
        if not isinstance(doc, dict):
            raise DatalogError(
                f"{path}:{line_number}: update batch must be a JSON object"
            )
        def _rows(side: str) -> dict:
            out = {}
            for name, rows in (doc.get(side) or {}).items():
                out[name] = np.asarray(rows, dtype=np.int64)
            return out

        batch_id = doc.get("batch_id")
        batches.append(
            (_rows("inserts"), _rows("deletes"), None if batch_id is None else str(batch_id))
        )
    return batches


def _json_fallback(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Evaluate a .datalog file"
    )
    parser.add_argument("file", help="path to the .datalog program")
    parser.add_argument(
        "--engine",
        default="RecStep",
        help="engine name (RecStep, Souffle, BigDatalog, Graspan, bddbddb, Naive)",
    )
    parser.add_argument("--threads", type=int, default=20, help="simulated workers")
    parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="modeled memory budget (default: the scaled server budget); "
        "tighten it to exercise the degradation ladder and spill tier",
    )
    parser.add_argument(
        "--no-enforce-budgets",
        action="store_true",
        help="disable the modeled memory/time budgets (budgets are enforced "
        "by default: runs fail with OOM/timeout at the modeled server limits)",
    )
    parser.add_argument(
        "--inject-faults",
        type=int,
        metavar="SEED",
        default=None,
        help="arm the deterministic fault-injection harness with this seed "
        "(RecStep only); injected faults are retried with backoff and the "
        "run reaches the same fixpoint as a fault-free one",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="per-visit fault probability for --inject-faults (default 0.02)",
    )
    parser.add_argument(
        "--degrade",
        action="store_true",
        help="enable the memory-pressure degradation ladder (shed join cache "
        "-> shed partitioning -> lean dedup -> spill cold tables -> forced "
        "TPSD) instead of failing at the OOM line",
    )
    parser.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help="enable the spill-to-disk storage tier: under memory pressure "
        "the degradation ladder evicts cold table prefixes to segment files "
        "in DIR instead of shedding work (RecStep only; arms the ladder as "
        "--degrade does; results are bit-identical to an in-memory run)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint every N iterations (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="write evaluation checkpoints into DIR (resumable with "
        "--resume-from)",
    )
    parser.add_argument(
        "--resume-from",
        metavar="PATH",
        default=None,
        help="resume from a checkpoint file, or the latest checkpoint in a "
        "directory",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cooperative deadline in simulated seconds; the run stops at "
        "the next iteration boundary with a structured partial report",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        metavar="N",
        help="divergence guard: stop after N productive fixpoint iterations "
        "with a structured partial report (status 'guard')",
    )
    parser.add_argument(
        "--max-total-rows",
        type=int,
        default=None,
        metavar="N",
        help="divergence guard: stop once the evaluation has derived N total "
        "delta rows with a structured partial report (status 'guard')",
    )
    parser.add_argument(
        "--serve-trace",
        metavar="FILE",
        default=None,
        help="route the evaluation through the concurrent query service "
        "(admission, deadline, drain) and write the machine-readable "
        "service report to FILE as JSON (RecStep only)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="route the evaluation through the query service and write its "
        "telemetry export (per-class latency histograms, admission-queue "
        "timeline) to FILE as JSON (RecStep only; implies the service route)",
    )
    parser.add_argument(
        "--serve-updates",
        metavar="FILE",
        default=None,
        help="route the evaluation through the query service, keep the "
        "fixpoint materialized, and replay FILE as an update log (JSON "
        "lines of {\"inserts\": {rel: [[..]]}, \"deletes\": ...}) against "
        "it via incremental maintenance; outputs are the post-churn "
        "fixpoint (RecStep only; implies the service route)",
    )
    parser.add_argument(
        "--wal-root",
        metavar="DIR",
        default=None,
        help="route the evaluation through the query service and persist the "
        "materialized view durably under DIR (base checkpoint + write-ahead "
        "log of update batches); a later --serve-recover run rebuilds the "
        "view from DIR (RecStep only; implies the service route and "
        "materialization)",
    )
    parser.add_argument(
        "--serve-recover",
        action="store_true",
        help="instead of evaluating, recover the program's materialized view "
        "from --wal-root (latest base checkpoint + log replay) and write the "
        "recovered fixpoint to the outputs",
    )
    parser.add_argument(
        "--no-join-cache",
        action="store_true",
        help="disable the iteration-persistent join-state cache (RecStep "
        "only); results are identical either way, only modeled cost and "
        "memory change",
    )
    parser.add_argument(
        "--no-partitioned-exec",
        action="store_true",
        help="disable radix-partitioned join/dedup/set-difference "
        "execution (RecStep only); results are identical either way, "
        "only modeled cost and memory change",
    )
    parser.add_argument(
        "--query",
        metavar="GOAL",
        default=None,
        help="answer a single point goal (e.g. 'tc(5, x)') through the "
        "magic-set demand rewrite instead of materializing every IDB "
        "relation: constants bind positions, names are free variables, "
        "'_' is a wildcard (RecStep only; overrides any '?- goal.' "
        "queries in the file)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="trace the evaluation and print a hotspot table (RecStep only)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto); "
        "implies --profile",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=15,
        metavar="N",
        help="rows in the hotspot table (default 15)",
    )
    args = parser.parse_args(argv)

    result = run_datalog_file(
        args.file,
        engine_name=args.engine,
        threads=args.threads,
        memory_budget=args.memory_budget,
        enforce_budgets=not args.no_enforce_budgets,
        profile=args.profile or args.trace_out is not None,
        fault_seed=args.inject_faults,
        fault_rate=args.fault_rate,
        degrade=args.degrade,
        spill_dir=args.spill_dir,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume_from=args.resume_from,
        deadline=args.deadline,
        max_iterations=args.max_iterations,
        max_total_rows=args.max_total_rows,
        join_cache=not args.no_join_cache,
        partitioned_exec=not args.no_partitioned_exec,
        serve_trace=args.serve_trace,
        metrics_out=args.metrics_out,
        serve_updates=args.serve_updates,
        wal_root=args.wal_root,
        serve_recover=args.serve_recover,
        query=args.query,
    )
    print(f"engine:       {result.engine}")
    print(f"status:       {result.status}")
    print(f"iterations:   {result.iterations}")
    print(f"sim seconds:  {result.sim_seconds:.4f}")
    for name, size in sorted(result.sizes().items()):
        print(f"|{name}| = {size}")
    if "answer_rows" in result.detail and result.status == "ok":
        # Point-goal run: the tuples ARE the answer set; show it (capped).
        for name, answers in sorted(result.tuples.items()):
            shown = answers.sorted_rows()[:_ANSWER_PREVIEW_ROWS].tolist()
            for row in shown:
                print(f"  {name}{tuple(row)}")
            if len(answers) > len(shown):
                print(f"  ... {len(answers) - len(shown)} more")
    if result.failure:
        detail = ", ".join(
            f"{k}={v}" for k, v in result.failure.items() if k not in ("error", "message")
        )
        print(f"failure:      {result.failure['error']}: {result.failure['message']}")
        if detail:
            print(f"              [{detail}]")
    if result.resilience:
        for key, value in sorted(result.resilience.items()):
            print(f"resilience:   {key} = {value}")
    if result.profile is not None:
        print()
        print(result.profile.render_hotspots(args.profile_top))
        rules = result.profile.render_rules()
        if rules.count("\n") > 1:  # more than just the header/separator
            print()
            print(rules)
        if result.profile.histograms:
            print()
            print(result.profile.render_histograms())
        if args.trace_out:
            from repro.obs import write_chrome_trace

            trace_path = write_chrome_trace(result.profile, args.trace_out)
            print()
            print(f"trace written to {trace_path} (load in chrome://tracing or Perfetto)")
    return exit_code_for(result.status)


#: Rows of a point-goal answer set printed before eliding.
_ANSWER_PREVIEW_ROWS = 20

def exit_code_for(status: str) -> int:
    """Map a result status to the CLI exit code (the module docstring's
    contract, as :data:`repro.common.errors.STATUS_OUTCOMES` records it)."""
    return STATUS_OUTCOMES.get(status, UNKNOWN_OUTCOME)[1]


if __name__ == "__main__":
    sys.exit(main())
