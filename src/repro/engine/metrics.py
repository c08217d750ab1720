"""Evaluation metrics: simulated clock, memory accounting, CPU trace.

Memory is modeled, not measured: the recorder tracks the bytes of all
catalog tables plus whatever transient structures (hash tables, pipeline
materializations, bit-matrices) operators declare while they run. This is
what lets a 15 GB host reproduce the paper's 160 GB-server OOM envelope:
engines whose modeled footprint exceeds the configured budget raise
:class:`~repro.common.errors.OutOfMemoryError` exactly where the real
system would have died.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.common.errors import EvaluationTimeout, OutOfMemoryError
from repro.common.records import Trace
from repro.common.timing import SimClock
from repro.obs.counters import NULL_COUNTERS, CounterRegistry

logger = logging.getLogger(__name__)

#: Default modeled server memory. The paper's server has 160 GB; our
#: datasets are roughly two orders of magnitude smaller, so the default
#: budget scales accordingly (overridable per experiment).
DEFAULT_MEMORY_BUDGET = int(1.6e9)
DEFAULT_TIME_BUDGET = 36_000.0  # paper's 10 h timeout, simulated seconds

#: Soft memory watermarks, as fractions of the budget. Crossing one emits
#: a pressure event (see ``pressure_listener``) so the degradation ladder
#: can shed footprint before the hard OOM at 100%.
SOFT_WATERMARK = 0.80
CRITICAL_WATERMARK = 0.95


@dataclass
class MetricsRecorder:
    """Collects memory/CPU traces on a shared simulated time axis."""

    memory_budget: int = DEFAULT_MEMORY_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET
    clock: SimClock = field(default_factory=SimClock)
    memory_trace: Trace = field(default_factory=lambda: Trace("memory_bytes"))
    cpu_trace: Trace = field(default_factory=lambda: Trace("cpu_utilization"))
    base_bytes: int = 0
    transient_bytes: int = 0
    peak_bytes: int = 0
    peak_transient_bytes: int = 0
    #: Modeled bytes currently held in spill segment files (on disk, not
    #: counted against the memory budget) and the high-water mark.
    spilled_bytes: int = 0
    peak_spilled_bytes: int = 0
    transient_underflows: int = 0
    enforce_budgets: bool = True
    counters: CounterRegistry = field(default=NULL_COUNTERS)
    #: Soft watermark fractions; crossings bump ``pressure_level`` and
    #: notify ``pressure_listener(level, fraction)``. Level is sticky
    #: (0 = normal, 1 = soft, 2 = critical) so each crossing fires once.
    soft_watermark: float = SOFT_WATERMARK
    critical_watermark: float = CRITICAL_WATERMARK
    pressure_level: int = 0
    pressure_events: int = 0
    pressure_listener: object = field(default=None, repr=False)

    def now(self) -> float:
        return self.clock.now()

    # -- time ---------------------------------------------------------------

    def advance(self, seconds: float, utilization: float = 0.05) -> None:
        """Advance the clock, recording CPU utilization over the span."""
        if seconds <= 0:
            return
        self.cpu_trace.record(self.clock.now(), utilization)
        self.clock.advance(seconds)
        self.cpu_trace.record(self.clock.now(), utilization)
        if self.enforce_budgets and self.clock.now() > self.time_budget:
            raise EvaluationTimeout(
                f"simulated time {self.clock.now():.1f}s exceeded budget "
                f"{self.time_budget:.1f}s",
                sim_seconds=round(self.clock.now(), 6),
                time_budget=self.time_budget,
            )

    def take_traces(self) -> tuple[Trace, Trace]:
        """Hand over ``(memory_trace, cpu_trace)`` and start fresh ones.

        Keeps the traces of a recorder that outlives one run (a kept
        view's) per run; clock, peaks and counters stay cumulative.
        """
        taken = (self.memory_trace, self.cpu_trace)
        self.memory_trace = Trace(self.memory_trace.name)
        self.cpu_trace = Trace(self.cpu_trace.name)
        return taken

    # -- memory ---------------------------------------------------------------

    def set_base_bytes(self, total: int) -> None:
        """Update the resident-table footprint (called after each query)."""
        self.base_bytes = total
        self._sample_memory()

    def allocate_transient(self, size: int) -> None:
        """Declare a transient allocation (hash table, materialization)."""
        self.transient_bytes += size
        self._sample_memory()

    def release_transient(self, size: int) -> None:
        """Release a transient allocation.

        A release that drives the balance negative means an operator
        released bytes it never allocated (double release, or a
        mismatched size). That bug used to be silently clamped away,
        corrupting the memory trace; now it is logged and counted so it
        shows up in profiles as ``transient_underflows``.
        """
        self.transient_bytes -= size
        if self.transient_bytes < 0:
            self.transient_underflows += 1
            self.counters.inc("transient_underflows")
            logger.warning(
                "transient memory underflow: released %d bytes with only %d "
                "outstanding (double release?)",
                size,
                size + self.transient_bytes,
            )
            self.transient_bytes = 0
        self._sample_memory()

    def note_spilled(self, delta: int) -> None:
        """Track bytes moving between the resident and spilled tiers.

        Spilled bytes live on disk: they never count toward the memory
        budget (that is the point of spilling), but they are ledgered so
        profiles, recaps, and the server's admission split can report
        resident vs spilled honestly.
        """
        self.spilled_bytes = max(0, self.spilled_bytes + delta)
        self.peak_spilled_bytes = max(self.peak_spilled_bytes, self.spilled_bytes)

    def _sample_memory(self) -> None:
        total = self.base_bytes + self.transient_bytes
        self.peak_bytes = max(self.peak_bytes, total)
        self.peak_transient_bytes = max(self.peak_transient_bytes, self.transient_bytes)
        self.memory_trace.record(self.clock.now(), float(total))
        if self.memory_budget > 0:
            fraction = total / self.memory_budget
            level = (
                2
                if fraction >= self.critical_watermark
                else 1 if fraction >= self.soft_watermark else 0
            )
            if level > self.pressure_level:
                self.pressure_level = level
                self.pressure_events += 1
                self.counters.inc(
                    "memory_pressure_critical" if level == 2 else "memory_pressure_soft"
                )
                if self.pressure_listener is not None:
                    self.pressure_listener(level, fraction)
        if self.enforce_budgets and total > self.memory_budget:
            raise OutOfMemoryError(
                f"modeled footprint {total / 1e6:.1f} MB exceeds budget "
                f"{self.memory_budget / 1e6:.1f} MB",
                modeled_bytes=total,
                transient_bytes=self.transient_bytes,
                memory_budget=self.memory_budget,
            )

    def budget_fraction(self, extra_bytes: int = 0) -> float:
        """Footprint (plus a planned allocation) as a budget fraction.

        Degradation pre-flight checks use this: "would allocating
        ``extra_bytes`` put us past the soft watermark?" A non-positive
        budget reports 0.0 (no meaningful pressure axis).
        """
        if self.memory_budget <= 0:
            return 0.0
        return (self.base_bytes + self.transient_bytes + extra_bytes) / self.memory_budget
