"""Outside-in tracing: timing wrappers around each layer's entry points.

Nothing under ``src/`` is edited. :class:`Tracer` swaps the public entry
points listed in :data:`TARGETS` for wrappers that record one span per
call - ``(name, start, end, parent, op)`` - and restores every original
afterwards. A function imported by name elsewhere
(``from repro.datalog.magic import magic_rewrite``) is patched in every
loaded ``repro`` module that holds it, i.e. where it is looked up.

A span's *self* time is its duration minus its direct children's; a
layer's ``_s`` metric is the self time of its spans. Work counts come
from arguments and return values at the same boundaries, and from the
engine's own ``RecStepConfig(profile=True)`` counters, read off the
results that carry them.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

#: (module, class or None, attribute, metric that takes the self time)
TARGETS: list[tuple[str, str | None, str, str]] = [
    ("repro.datalog.parser", None, "parse_program", "datalog.parser.busy_s"),
    ("repro.datalog.analyzer", None, "analyze_program", "datalog.analyzer.busy_s"),
    ("repro.datalog.magic", None, "magic_rewrite", "datalog.magic.busy_s"),
    ("repro.core.compiler", "QueryGenerator", "compile", "core.compiler.busy_s"),
    ("repro.core.recstep", "RecStep", "evaluate", "core.recstep.evaluate_self_s"),
    ("repro.core.recstep", "RecStep", "answer", "core.recstep.answer_self_s"),
    ("repro.core.recstep", "MaterializedFixpoint", "maintain", "core.recstep.maintain_self_s"),
    ("repro.core.interpreter", "SemiNaiveInterpreter", "run", "core.interpreter.self_s"),
    ("repro.core.bitmatrix", None, "run_pbme_stratum", "core.bitmatrix.busy_s"),
    ("repro.core.ivm", "MaintenanceRun", "run", "core.ivm.self_s"),
    ("repro.engine.database", "Database", "execute_ast", "engine.database.query_s"),
    ("repro.engine.database", "Database", "dedup_table", "engine.database.dedup_s"),
    ("repro.engine.database", "Database", "set_difference", "engine.database.setdiff_s"),
    ("repro.engine.database", "Database", "append_rows", "engine.database.append_s"),
    ("repro.engine.database", "Database", "replace_rows", "engine.database.append_s"),
    ("repro.engine.database", "Database", "analyze", "engine.database.analyze_s"),
    ("repro.engine.database", "Database", "load_table", "engine.database.load_s"),
    ("repro.engine.database", "Database", "table_snapshot", "engine.database.snapshot_s"),
    ("repro.engine.database", "Database", "aggregate_merge", "engine.database.aggregate_merge_s"),
    ("repro.engine.database", "Database", "delete_rows", "engine.database.delete_s"),
    ("repro.engine.kernels", None, "pack_columns", "engine.kernels.pack_s"),
    ("repro.engine.kernels", None, "radix_partition", "engine.kernels.radix_s"),
    ("repro.storage.spill", "SpillManager", "spill_table", "storage.spill.write_s"),
    ("repro.storage.spill", "SpillManager", "read_segment", "storage.spill.read_s"),
    ("repro.storage.spill", "SpillManager", "fault_in", "storage.spill.read_s"),
    ("repro.resilience.wal", "WriteAheadLog", "append", "resilience.wal.append_s"),
    ("repro.resilience.wal", "ViewDurability", "compact", "resilience.wal.compact_s"),
    ("repro.server.service", "QueryService", "submit", "server.service.submit_self_s"),
    ("repro.server.service", "QueryService", "flush", "server.service.flush_self_s"),
    ("repro.server.service", "QueryService", "recover", "server.service.recover_self_s"),
]

#: Engine profile counter -> layer metric it feeds.
PROFILE_COUNTERS = {
    "join_output_rows": "engine.database.join_rows_out",
    "dedup_input_rows": "engine.database.dedup_rows_in",
    "dedup_output_rows": "engine.database.dedup_rows_out",
    "join_cache.hit": "engine.joincache.hits",
    "join_cache.miss": "engine.joincache.misses",
    "join_cache.extend": "engine.joincache.extends",
    "pbme_strata": "core.bitmatrix.strata",
    "pbme_bit_ops": "core.bitmatrix.bit_ops",
    "ivm.maintain_runs": "core.ivm.runs",
    "ivm.overdeleted_rows": "core.ivm.overdeleted_rows",
    "ivm.rederived_rows": "core.ivm.rederived_rows",
    "spill.bytes_written": "storage.spill.bytes_written",
    "spill.bytes_read": "storage.spill.bytes_read",
    "spill.segments_written": "storage.spill.segments_written",
}


def _count_call(counts: Counter, span: str, args, result) -> None:
    """Work counts readable from one call's arguments and return value.

    Every call site in ``src/`` passes these arguments positionally.
    """
    if span == "Database.set_difference":
        counts["engine.database.setdiff_rows_in"] += args[0].table_size(args[1])
        counts["engine.database.setdiff_rows_new"] += int(result.delta.shape[0])
    elif span == "Database.append_rows":
        counts["engine.database.append_rows"] += int(args[2].shape[0])
    elif span == "pack_columns":
        counts["engine.kernels.pack_rows"] += int(args[0][0].shape[0])
    elif span == "radix_partition":
        counts["engine.kernels.radix_rows"] += int(args[0].shape[0])
    elif span == "RecStep.evaluate":
        counts["core.interpreter.iterations"] += result.iterations
        if result.profile is not None:
            _add_profile(counts, result.profile.counters, {})
    elif span == "MaterializedFixpoint.maintain":
        counts["core.interpreter.iterations"] += result.iterations


def _add_profile(counts: Counter, after: dict, before: dict) -> None:
    for counter, metric in PROFILE_COUNTERS.items():
        counts[metric] += after.get(counter, 0) - before.get(counter, 0)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` may repeat."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, op id)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Set by the harness before each traced operation.
        self.op = -1
        self._stack: list[int] = []
        #: (owner object, attribute, original, wrapper)
        self._patches: list[tuple] = []
        self.metric_of: dict[str, str] = {}

    # -- patching ----------------------------------------------------------

    def _prepare(self) -> None:
        for module_name, class_name, attribute, metric in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = getattr(owner, attribute)
            span = f"{class_name}.{attribute}" if class_name else attribute
            self.metric_of[span] = metric
            wrapper = self._wrap(span, original)
            self._patches.append((owner, attribute, original, wrapper))
            if class_name is None:
                # by-name imports hold their own reference to the function
                for name, other in list(sys.modules.items()):
                    if (
                        other is not module
                        and name.startswith("repro")
                        and getattr(other, attribute, None) is original
                    ):
                        self._patches.append((other, attribute, original, wrapper))

    def _wrap(self, span: str, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        maintain = span == "MaterializedFixpoint.maintain"

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            before = args[0].database.profiler.counters.snapshot() if maintain else None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            _count_call(counts, span, args, result)
            if maintain:
                _add_profile(
                    counts, args[0].database.profiler.counters.snapshot(), before
                )
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        if not self._patches:
            self._prepare()
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def patched_attributes(self) -> list[tuple]:
        """``(owner, attribute, original)`` for every patch point."""
        if not self._patches:
            self._prepare()
        return [(owner, attribute, original) for owner, attribute, original, _ in self._patches]

    # -- reading the trace -----------------------------------------------------

    def layer_totals(self) -> Counter:
        """Self time per layer metric, call counts, and the work counts."""
        totals = Counter(self.counts)
        for (span, _, _, _, _), own in zip(self.spans, self_times(self.spans)):
            metric = self.metric_of[span]
            totals[metric] += own
            totals["trace.self_s"] += own
            if metric.startswith("engine.database."):
                totals["core.interpreter.statements"] += 1
            calls = _CALL_COUNTS.get(span)
            if calls:
                totals[calls] += 1
        return totals

    def write(self, path, **header) -> None:
        names = sorted(self.metric_of)
        index = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        document = {
            **header,
            "fields": ["span", "start_s", "end_s", "parent", "op"],
            "span_names": names,
            "spans": [
                [index[span], round(start - origin, 7), round(end - origin, 7), parent, op]
                for span, start, end, parent, op in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


#: Spans whose call count is a metric of its own.
_CALL_COUNTS = {
    "magic_rewrite": "datalog.magic.rewrites",
    "Database.execute_ast": "engine.database.query_calls",
    "Database.dedup_table": "engine.database.dedup_calls",
    "Database.set_difference": "engine.database.setdiff_calls",
    "Database.analyze": "engine.database.analyze_calls",
    "pack_columns": "engine.kernels.pack_calls",
    "WriteAheadLog.append": "resilience.wal.appends",
    "ViewDurability.compact": "resilience.wal.compactions",
}


def self_times(spans: list[tuple]) -> list[float]:
    """Per span: duration minus the durations of its direct children.

    ``spans`` are ``(name, start, end, parent, op)`` with ``parent`` an
    index into the same list (-1 for a root). Calls nest strictly on one
    thread, so direct children never overlap each other.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
