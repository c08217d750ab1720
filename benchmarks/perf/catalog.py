"""Metric catalogue: every name the benchmark prints, with unit and direction.

``BENCHMARK.json`` at the repo root mirrors :data:`END_TO_END` and
:data:`PER_LAYER` (the self-test checks they agree); this module is what
the code reads.

End-to-end metrics are reported by *every* workload (the driver's
contract), so they are phrased over a workload's **kinds** of operation:
for a batch workload a kind is a cell (one program on one dataset), for
``serve-mixed`` it is a request kind (``point`` / ``insert`` /
``delete``). Each workload declares which kind is its *heavy* one and
which its *light* one (see ``workloads.py``).
"""

from __future__ import annotations

import math
import statistics

import numpy as np

#: (name, unit, better, bound). ``bound`` is the relative worsening of the
#: median that counts as a regression. The wall bounds are the widest the
#: driver allows: on this 2-core sandbox single evaluations of one cell
#: differ by 15-20 % inside a run, and the spread of a metric over ten
#: seeds reaches 0.15 where a run holds 3-5 evaluations per cell.
END_TO_END: list[tuple[str, str, str, float]] = [
    # imports + input generation + oracle + one untimed warm-up per kind
    # (+ view materialization on serve-mixed)
    ("setup_s", "s", "lower", 0.25),
    # sum over kinds of (operations per pass x median wall of one operation)
    ("pass_wall_s", "s", "lower", 0.25),
    # work units of one pass (IDB tuples produced / requests served) per pass_wall_s
    ("work_per_s", "1/s", "higher", 0.25),
    # median wall of one operation of the declared heavy / light kind
    ("heavy_kind_p50_ms", "ms", "lower", 0.25),
    ("light_kind_p50_ms", "ms", "lower", 0.25),
    # geometric mean over all kinds of the kind's median wall
    ("kind_p50_geomean_ms", "ms", "lower", 0.25),
    # ru_maxrss of the workload's own process (the oracle runs in a child)
    ("peak_rss_mb", "MB", "lower", 0.20),
]

#: Client-side and cost-model figures that only some workloads have, so
#: they cannot be end-to-end metrics under the driver's contract. They are
#: printed with the per-layer metrics; ``compare`` still applies a bound.
#: (name, unit, better, bound)
CLIENT: list[tuple[str, str, str, float]] = [
    ("serve_ops_per_s", "ops/s", "higher", 0.10),
    ("update_insert_p50_ms", "ms", "lower", 0.10),
    ("update_insert_p90_ms", "ms", "lower", 0.20),
    ("update_delete_p50_ms", "ms", "lower", 0.10),
    ("point_p50_ms", "ms", "lower", 0.10),
    ("point_p90_ms", "ms", "lower", 0.20),
    ("recover_s", "s", "lower", 0.15),
    ("fixpoint_sim_s", "sim-s", "lower", 0.001),
    ("modeled_peak_mb", "MB", "lower", 0.001),
]

CELLS = (
    "aa-andersen6",
    "cspa-httpd",
    "tc-g1k",
    "sg-g700",
    "tc-cycle400",
    "tc-cycle300-spill",
)

#: (name, unit, better). ``_s`` metrics are *self* time (a span's duration
#: minus what its child spans cover), per traced pass; counts are per
#: traced pass too. Recovery figures are per recovery.
LAYERS: list[tuple[str, str, str]] = [
    ("datalog.parser.busy_s", "s", "lower"),
    ("datalog.analyzer.busy_s", "s", "lower"),
    ("datalog.magic.busy_s", "s", "lower"),
    ("datalog.magic.rewrites", "count", "lower"),
    ("core.compiler.busy_s", "s", "lower"),
    ("core.recstep.evaluate_self_s", "s", "lower"),
    ("core.recstep.answer_self_s", "s", "lower"),
    ("core.recstep.maintain_self_s", "s", "lower"),
    ("core.interpreter.self_s", "s", "lower"),
    ("core.interpreter.iterations", "count", "lower"),
    ("core.interpreter.statements", "count", "lower"),
    ("core.bitmatrix.busy_s", "s", "lower"),
    ("core.bitmatrix.strata", "count", "lower"),
    ("core.bitmatrix.bit_ops", "count", "lower"),
    ("core.ivm.self_s", "s", "lower"),
    ("core.ivm.runs", "count", "lower"),
    ("core.ivm.overdeleted_rows", "count", "lower"),
    ("core.ivm.rederived_rows", "count", "lower"),
    ("core.ivm.rederive_ratio", "ratio", "lower"),
    ("engine.database.query_s", "s", "lower"),
    ("engine.database.query_calls", "count", "lower"),
    ("engine.database.join_rows_out", "count", "lower"),
    ("engine.database.dedup_s", "s", "lower"),
    ("engine.database.dedup_calls", "count", "lower"),
    ("engine.database.dedup_rows_in", "count", "lower"),
    ("engine.database.dedup_rows_out", "count", "lower"),
    ("engine.database.dedup_survival", "ratio", "higher"),
    ("engine.database.setdiff_s", "s", "lower"),
    ("engine.database.setdiff_calls", "count", "lower"),
    ("engine.database.setdiff_rows_in", "count", "lower"),
    ("engine.database.setdiff_rows_new", "count", "lower"),
    ("engine.database.setdiff_new_ratio", "ratio", "higher"),
    ("engine.database.append_s", "s", "lower"),
    ("engine.database.append_rows", "count", "lower"),
    ("engine.database.analyze_s", "s", "lower"),
    ("engine.database.analyze_calls", "count", "lower"),
    ("engine.database.load_s", "s", "lower"),
    ("engine.database.snapshot_s", "s", "lower"),
    ("engine.database.aggregate_merge_s", "s", "lower"),
    ("engine.database.delete_s", "s", "lower"),
    ("engine.kernels.pack_s", "s", "lower"),
    ("engine.kernels.pack_calls", "count", "lower"),
    ("engine.kernels.pack_rows", "count", "lower"),
    ("engine.kernels.radix_s", "s", "lower"),
    ("engine.kernels.radix_rows", "count", "lower"),
    ("engine.joincache.hits", "count", "higher"),
    ("engine.joincache.misses", "count", "lower"),
    ("engine.joincache.extends", "count", "lower"),
    ("engine.joincache.hit_ratio", "ratio", "higher"),
    ("storage.spill.write_s", "s", "lower"),
    ("storage.spill.read_s", "s", "lower"),
    ("storage.spill.bytes_written", "B", "lower"),
    ("storage.spill.bytes_read", "B", "lower"),
    ("storage.spill.segments_written", "count", "lower"),
    ("resilience.wal.append_s", "s", "lower"),
    ("resilience.wal.appends", "count", "lower"),
    ("resilience.wal.bytes_appended", "B", "lower"),
    ("resilience.wal.bytes_per_user_byte", "ratio", "lower"),
    ("resilience.wal.compact_s", "s", "lower"),
    ("resilience.wal.compactions", "count", "lower"),
    ("resilience.checkpoint.base_bytes", "B", "lower"),
    ("server.service.submit_self_s", "s", "lower"),
    ("server.service.flush_self_s", "s", "lower"),
    ("server.service.recover_self_s", "s", "lower"),
    ("server.service.materialize_s", "s", "lower"),
    ("server.service.overhead_share", "ratio", "lower"),
    ("server.service.point_cache_hit_ratio", "ratio", "higher"),
    ("server.service.batches_replayed", "count", "lower"),
    *((f"cell.{cell}.wall_s", "s", "lower") for cell in CELLS),
    *((f"cell.{cell}.sim_s", "sim-s", "lower") for cell in CELLS),
    ("clock.sim_over_wall", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: What ``--trace 1`` prints: the layers, then the client-side figures.
PER_LAYER: list[tuple[str, str, str]] = LAYERS + [
    (name, unit, better) for name, unit, better, _ in CLIENT
]

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}
BETTER: dict[str, str] = {
    **{name: better for name, _, better, _ in END_TO_END},
    **{name: better for name, _, better in PER_LAYER},
}
BOUNDS: dict[str, float] = {
    **{name: bound for name, _, _, bound in END_TO_END},
    **{name: bound for name, _, _, bound in CLIENT},
}


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def geomean(values) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return float(math.exp(sum(math.log(value) for value in values) / len(values)))


def ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def as_metrics(values: dict[str, float]) -> dict[str, dict]:
    """``{name: value}`` -> the driver's ``{name: {"value", "unit"}}``."""
    return {
        name: {"value": float(value), "unit": UNITS[name]}
        for name, value in values.items()
    }
