"""The model ledger: every pinned modeled number, in one list and one file.

The paper's figures are read off the modeled 20-core machine, so a change
must show that the model did not move. Each :data:`ENTRIES` row names one
run, ``(name, kind, program, dataset, seed, config)``; :func:`measure`
executes it and returns its record; ``tests/ledger.json`` holds the
committed records and ``tests/test_ledger.py`` asserts
``measure(entry) == LEDGER[name]``. Floats are JSON's shortest
round-trip repr, so equality is exact.

Kinds:

* ``evaluate`` — status, ``sim_seconds``, iterations, peak and transient
  peak bytes, per-IDB sizes, a sha256 over the sorted fixpoint rows, a
  sha256 over every CPU and memory trace sample (``trace_digest``),
  every profile counter and ``degradations_taken``;
* ``maintain`` — the materialized view's opening record, the same fields
  after every update batch, and a from-scratch ``recompute`` of the
  final EDB;
* ``answer`` — a magic-set point answer, the full evaluation, and the
  full answer post-filtered by the goal;
* ``serve`` — a query-service burst: its sim latencies, queue depth and
  every session's terminal state.

Every run pins ``fault_seed=None``: a chaos run (``REPRO_CHAOS_SEED``)
pays retries on the sim clock, and the ledger is of the undisturbed
model. ``config`` holds ``RecStepConfig`` fields, plus ``batches`` for
``maintain``, ``goal`` for ``answer`` and ``burst`` / ``mix`` for
``serve``; ``spill_dir=True`` means a fresh temporary directory.

Print a field-level diff against the committed file, or rewrite it::

    PYTHONPATH=src python tests/ledger.py [--write]

The diff of ``tests/ledger.json`` is the review artifact of a change
that moves the model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.analysis.harness import prepare_edb
from repro.core import PbmeMode, RecStep, RecStepConfig
from repro.core.config import OofMode
from repro.datalog.magic import filter_answers
from repro.datalog.parser import parse_goal
from repro.datasets.gnp import gnp_graph
from repro.programs import get_program
from repro.server import QueryRequest, QueryService, ServerConfig

LEDGER_PATH = Path(__file__).with_name("ledger.json")

#: Seed of the scale-ladder, update, point and serve entries.
BASE_SEED = 20260808
#: The dataset seed of ``benchmarks/perf``'s cells.
PERF_SEED = 7


class Entry(NamedTuple):
    name: str
    kind: str
    program: str | None
    dataset: str | None
    seed: int
    config: dict


def _pinned(name: str, program: str, dataset: str, config: dict) -> list[Entry]:
    """A relational row, with partitioned execution on and off.

    Partitioning is modeled only: both reach the same fixpoint (checked
    by the test) at different sim costs.
    """
    return [
        Entry(name, "evaluate", program, dataset, 0, config),
        Entry(f"{name}/unpartitioned", "evaluate", program, dataset, 0,
              dict(config, partitioned_exec=False)),
    ]  # fmt: skip


def _pbme(program: str, dataset: str, **config) -> Entry:
    name = "/".join((program, dataset, *(f"{k}={v}" for k, v in config.items())))
    return Entry(f"pbme/{name}", "evaluate", program, dataset, 0, dict(pbme=PbmeMode.ON, **config))


#: The constrained rung: TC/cycle-300 under a budget its fixpoint cannot
#: fit in resident. Without the spill tier the degradation ladder sheds
#: it (``oom``); with a spill directory it completes.
TIGHT = dict(memory_budget=550_000, degradation=True)
CONSTRAINED_NO_SPILL = "TC/cycle-300/tight"

ENTRIES: list[Entry] = [
    # -- relational rows: the radix scatter is count-only, and the sim
    # clock it feeds must stay where the per-bucket kernels left it.
    *_pinned("CSPA/cspa-httpd/threads=20", "CSPA", "cspa-httpd", dict(threads=20)),
    *_pinned("CSPA/cspa-httpd/threads=32", "CSPA", "cspa-httpd", dict(threads=32)),
    *_pinned("AA/andersen-3/threads=20", "AA", "andersen-3", dict(threads=20)),
    *_pinned("AA/andersen-3/threads=32", "AA", "andersen-3", dict(threads=32)),
    *_pinned("TC/cycle-300/relational", "TC", "cycle-300", dict(pbme=PbmeMode.OFF)),
    # -- one row per switch whose charges live in the cost model.
    *_pinned("AA/andersen-5/fast_dedup=False", "AA", "andersen-5", dict(fast_dedup=False)),
    *_pinned("AA/andersen-5/eost=False", "AA", "andersen-5", dict(eost=False)),
    # DSD picks TPSD 15 times here; with the cache on it never does.
    *_pinned("AA/andersen-5/join_cache=False", "AA", "andersen-5", dict(join_cache=False)),
    *_pinned("AA/andersen-5/dsd=False", "AA", "andersen-5", dict(dsd=False, join_cache=False)),
    # Stale statistics: dedup chain factors other than 1.
    *_pinned("AA/andersen-5/oof=NA", "AA", "andersen-5", dict(oof=OofMode.NA)),
    # One thread never partitions, yet on/off differ in the last digit:
    # index passes split into min(256, rows) chunks, not into blocks.
    *_pinned("AA/andersen-5/threads=1", "AA", "andersen-5", dict(threads=1)),
    *_pinned("AA/andersen-5/threads=7", "AA", "andersen-5", dict(threads=7)),
    *_pinned("AA/andersen-5/threads=40", "AA", "andersen-5", dict(threads=40)),
    # Tight budget: lean-dedup, shed-partitioning and force-tpsd all fire.
    *_pinned("AA/andersen-5/tight", "AA", "andersen-5", dict(memory_budget=4_200_000, degradation=True)),
    # The constrained rung with spill; also benchmarks/perf's
    # tc-cycle300-spill cell.
    *_pinned("TC/cycle-300/tight+spill", "TC", "cycle-300", dict(TIGHT, spill_dir=True)),
    # Recursive aggregation (aggregate_merge) and negation (cross
    # product, anti-join).
    *_pinned("CC/G500", "CC", "G500", {}),
    *_pinned("SSSP/G500", "SSSP", "G500", {}),
    *_pinned("NTC/G500", "NTC", "G500", {}),
    # -- the bit-matrix path: the owner tie-break, chunk order and
    # per-thread cost attribution all feed the sim clock.
    _pbme("SG", "G500", threads=20),
    _pbme("SG", "G500", threads=7),
    _pbme("SG", "G500", threads=20, sg_coordination=True),
    _pbme("SG", "G500", threads=7, sg_coordination=True),
    _pbme("SG", "G700", threads=20),
    _pbme("SG", "G700", threads=7),
    _pbme("SG", "G700", threads=20, sg_coordination=True),
    _pbme("SG", "G700", threads=7, sg_coordination=True),
    _pbme("TC", "G500", threads=20),
    _pbme("TC", "G500", threads=7),
    _pbme("TC", "G1K", threads=20),
    # -- the smallest rung of each scale ladder, default config.
    Entry("TC/G500", "evaluate", "TC", "G500", BASE_SEED, {}),
    Entry("SG/G500", "evaluate", "SG", "G500", BASE_SEED, {}),
    Entry("CSPA/cspa-httpd", "evaluate", "CSPA", "cspa-httpd", BASE_SEED, {}),
    Entry("AA/andersen-3", "evaluate", "AA", "andersen-3", BASE_SEED, {}),
    Entry(CONSTRAINED_NO_SPILL, "evaluate", "TC", "cycle-300", BASE_SEED, TIGHT),
    # -- benchmarks/perf's relational cells that no row above covers.
    Entry("AA/andersen-6", "evaluate", "AA", "andersen-6", PERF_SEED, {}),
    Entry("TC/cycle-400/relational", "evaluate", "TC", "cycle-400", PERF_SEED, dict(pbme=PbmeMode.OFF)),
    # -- maintenance: one insert and one delete batch on a relational
    # view; then eight insert-dominant batches on a wide, shallow TC
    # (4 M tuples in 4 iterations), where a warm view must beat recompute.
    Entry("TC/ivm-pin/maintain", "maintain", "TC", "ivm-pin", 7, dict(
        pbme=PbmeMode.OFF, batches=(("insert", ((0, 149), (149, 3), (77, 5), (5, 140))), ("delete", 1)),
    )),
    Entry("TC/G2K/update", "maintain", "TC", "G2K", BASE_SEED, dict(batches=(("insert", 4),) * 8)),
    # -- demand: one bound-source goal through the magic-set rewrite.
    Entry("TC/G2K/point", "answer", "TC", "G2K", BASE_SEED, dict(goal="tc({source}, x)")),
    # -- the service: four queries round-robin over a cheap mix.
    Entry("serve/burst-4", "serve", None, None, BASE_SEED, dict(
        burst=4, mix=(("TC", "G500"), ("AA", "andersen-2"), ("CC", "RMAT-10K")),
    )),
]  # fmt: skip


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def _edb(entry: Entry) -> dict[str, np.ndarray]:
    if entry.dataset == "ivm-pin":  # not a registry dataset
        return {"arc": gnp_graph(150, 0.02, seed=entry.seed)}
    return prepare_edb(get_program(entry.program), entry.dataset, seed=entry.seed)


def _engine(config: dict, spill_root: str) -> RecStep:
    if config.get("spill_dir"):
        config = dict(config, spill_dir=tempfile.mkdtemp(dir=spill_root))
    return RecStep(RecStepConfig(profile=True, fault_seed=None, **config))


def fixpoint_hash(tuples: dict) -> str:
    """sha256 over each relation's name, arity and rows in sorted order.

    Non-negative rows narrow enough to pack hash as one sorted int64 key
    per row (TC/G2K's 4 M-row closure, hashed after every update batch,
    in 0.1 s). The recorded digests are over these keys, so the encoding
    stays now that ``Relation.sorted_rows`` no longer lexsorts.
    """
    digest = hashlib.sha256()
    for name in sorted(tuples):
        relation = tuples[name]
        rows = relation.rows
        width = 63 // max(rows.shape[1], 1)
        if rows.size and rows.min() >= 0 and rows.max() < 1 << width:
            ordered = np.zeros(len(rows), dtype=np.int64)
            for column in rows.T:
                ordered = (ordered << width) | column
            ordered.sort()
        else:
            ordered = np.ascontiguousarray(relation.sorted_rows())
        digest.update(f"{name}:{rows.shape[1]}:".encode())
        digest.update(ordered.tobytes())
    return digest.hexdigest()


def trace_digest(sim_seconds, peak, cpu, memory, counters: dict) -> str:
    """sha256 over both traces, sample for sample, and every counter."""
    recorded = repr((
        sim_seconds, peak, cpu.times, cpu.values,
        memory.times, memory.values, sorted(counters.items()),
    ))  # fmt: skip
    return hashlib.sha256(recorded.encode()).hexdigest()


def _evaluation(result) -> dict:
    counters = dict(result.profile.counters)
    return {
        "status": result.status,
        "sim_seconds": result.sim_seconds,
        "iterations": result.iterations,
        "peak_memory_bytes": result.peak_memory_bytes,
        "peak_transient_bytes": result.peak_transient_bytes,
        "sizes": result.sizes(),
        "fixpoint_hash": fixpoint_hash(result.tuples),
        "trace_digest": trace_digest(
            result.sim_seconds, result.peak_memory_bytes,
            result.cpu_trace, result.memory_trace, counters,
        ),
        "counters": counters,
        "degradations_taken": (result.resilience or {}).get("degradations_taken", []),
    }  # fmt: skip


def _maintain(entry: Entry, spill_root: str) -> dict:
    config = dict(entry.config)
    batches = config.pop("batches")
    program = get_program(entry.program)
    edb = _edb(entry)
    arcs = edb["arc"]
    view = _engine(config, spill_root).materialize(
        program, {name: rows.copy() for name, rows in edb.items()}, entry.dataset
    )
    database = view.database
    rng = np.random.default_rng(entry.seed)
    node_span = int(arcs.max()) + 65  # fresh ids join in beyond the graph
    current = arcs
    records = []
    for op, rows in batches:
        if op == "insert":
            batch = (
                rng.integers(0, node_span, size=(rows, 2), dtype=np.int64)
                if isinstance(rows, int)
                else np.array(rows, dtype=np.int64)
            )
            result = view.maintain(inserts={"arc": batch})
            current = np.unique(np.concatenate([current, batch]), axis=0)
        else:
            batch = arcs[:rows]
            result = view.maintain(deletes={"arc": batch})
            gone = {tuple(row) for row in batch.tolist()}
            current = np.array(
                [row for row in current.tolist() if tuple(row) not in gone], dtype=np.int64
            )
        counters = database.profiler.counters.snapshot()
        records.append({
            "status": result.status,
            "sim_seconds": result.sim_seconds,
            "clock_seconds": database.sim_seconds,
            "iterations": result.iterations,
            "peak_memory_bytes": database.peak_memory_bytes,
            "delta_rows": result.delta_rows,
            "sizes": result.sizes(),
            "fixpoint_hash": fixpoint_hash(view.fixpoint()),
            "trace_digest": trace_digest(
                database.sim_seconds, database.peak_memory_bytes,
                database.metrics.cpu_trace, database.metrics.memory_trace, counters,
            ),
            "counters": counters,
            "degradations_taken": result.resilience.get("degradations_taken", []),
        })  # fmt: skip
    view.release()
    recompute = _engine(config, spill_root).evaluate(
        program, dict(edb, arc=current), entry.dataset
    )
    return {
        "materialize": _evaluation(view.result),
        "batches": records,
        "recompute": _evaluation(recompute),
    }


def _answer(entry: Entry, spill_root: str) -> dict:
    config = dict(entry.config)
    program = get_program(entry.program)
    edb = _edb(entry)
    goal = parse_goal(config.pop("goal").format(source=int(edb["arc"][:, 0].min())))
    answered = _engine(config, spill_root).answer(
        program, goal, {name: rows.copy() for name, rows in edb.items()}, entry.dataset
    )
    full = _engine(config, spill_root).evaluate(program, edb, entry.dataset)
    filtered = filter_answers(full.tuples[goal.predicate], goal)
    return {
        "answer": _evaluation(answered),
        "full": _evaluation(full),
        "filtered_full_hash": fixpoint_hash({goal.predicate: filtered}),
    }


def _serve(entry: Entry) -> dict:
    burst, mix = entry.config["burst"], entry.config["mix"]
    service = QueryService(
        ServerConfig(max_concurrent=4, queue_limit=burst),
        engine_config=RecStepConfig(fault_seed=None),
    )
    sessions = []
    for i in range(burst):
        program_name, dataset = mix[i % len(mix)]
        program = get_program(program_name)
        edb = prepare_edb(program, dataset, seed=entry.seed + i)
        response = service.submit(QueryRequest(program=program, edb_data=edb, dataset=dataset))
        sessions.append(response["session_id"])
    service.flush()
    snapshot = service.metrics_snapshot()
    return {
        "now": snapshot["now"],
        "histograms": snapshot["histograms"],
        "queue_timeline": snapshot["queue_timeline"],
        "states": [service.status(session)["state"] for session in sessions],
    }


def measure(entry: Entry) -> dict:
    """Run one entry; the record in its JSON form (tuples become lists)."""
    with tempfile.TemporaryDirectory(prefix="ledger-spill-") as spill_root:
        if entry.kind == "evaluate":
            program = get_program(entry.program)
            result = _engine(entry.config, spill_root).evaluate(
                program, _edb(entry), dataset=entry.dataset
            )
            record = _evaluation(result)
        elif entry.kind == "maintain":
            record = _maintain(entry, spill_root)
        elif entry.kind == "answer":
            record = _answer(entry, spill_root)
        elif entry.kind == "serve":
            record = _serve(entry)
        else:
            raise ValueError(f"unknown ledger kind {entry.kind!r}")
    return json.loads(json.dumps(record))


def load_ledger() -> dict:
    return json.loads(LEDGER_PATH.read_text())


def _flatten(value, prefix: str = ""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for index, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def field_diff(old: dict, new: dict) -> list[str]:
    """One ``entry.field: old -> new`` line per changed leaf."""
    before, after = dict(_flatten(old)), dict(_flatten(new))
    lines = []
    for path in sorted(before.keys() | after.keys()):
        was, now = before.get(path, "<absent>"), after.get(path, "<absent>")
        if was != now:
            lines.append(f"{path}: {was!r} -> {now!r}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure every ledger entry; diff against tests/ledger.json"
    )
    parser.add_argument("--write", action="store_true", help="rewrite tests/ledger.json")
    args = parser.parse_args(argv)
    records = {}
    for entry in ENTRIES:
        records[entry.name] = measure(entry)
        print(f"measured {entry.name}", flush=True)
    lines = field_diff(load_ledger() if LEDGER_PATH.exists() else {}, records)
    print("\n".join(lines) if lines else "no field moved")
    if args.write:
        LEDGER_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {LEDGER_PATH}")
    return int(bool(lines) and not args.write)


if __name__ == "__main__":
    raise SystemExit(main())
