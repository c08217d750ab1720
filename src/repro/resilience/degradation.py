"""The memory-pressure degradation ladder.

When the modeled footprint crosses the :class:`MetricsRecorder` soft
watermarks, the controller escalates through a fixed ladder of
memory-lean fallbacks *before* the hard OOM ever fires — the same move
VLog makes with its column-oriented materialization: trade time for
footprint and keep the workload alive.

Ladder (in escalation order):

1. **shed-join-cache** (soft watermark): evict the iteration-persistent
   join indexes and stop building new ones — they are a pure
   speed-for-memory trade, so they are the first thing to give back.
2. **shed-partitioning** (soft watermark): the cost model keeps an
   operator on the shared hash-table plan instead of charging it as
   radix-partitioned — the *modeled* scatter scratch is given back like
   the join cache (but per-operator, not sticky state: partitioning
   resumes if pressure recedes below the sticky level). The host runs
   the same kernel either way and never held that scratch.
3. **lean-dedup** (soft watermark): the cost model charges dedup as an
   in-place sort — slower per tuple, but its modeled transient is the
   index array alone, no hash-bucket array. Again a charge only: the
   host's dedup is always a sort of the packed key.
4. **spill-cold-tables** (soft watermark): evict cold full-relation
   prefixes to checksummed segment files on disk and stream them back
   through the kernels — the footprint leaves RAM entirely instead of
   being shed, so work degrades to disk before anything is refused.
5. **force-tpsd** (critical watermark): override the DSD policy to the
   two-phase set difference, which never builds a hash table on the
   monotonically growing full relation.

Every rung has a witness: a configuration that completes with the
ladder armed and runs out of memory with that one rung refused
(``tests/test_resilience.py::TestLadderEvidence``). A rung without one
does not stay on the ladder.

Escalation is sticky (a level never drops) so a run's plan is
deterministic and its report can list exactly which degradations were
taken. Independently of the sticky level, each query also accepts the
*planned* transient bytes of the operation about to run: an allocation
that would itself breach the soft watermark degrades pre-flight, because
waiting for the watermark event would already be too late.
"""

from __future__ import annotations

from repro.obs.counters import NULL_COUNTERS

#: Step names, in ladder order (also the obs counter suffixes).
LADDER = (
    "shed-join-cache",
    "shed-partitioning",
    "lean-dedup",
    "spill-cold-tables",
    "force-tpsd",
)

#: Pressure level at which each step engages.
_STEP_LEVEL = {
    "shed-join-cache": 1,
    "shed-partitioning": 1,
    "lean-dedup": 1,
    "spill-cold-tables": 1,
    "force-tpsd": 2,
}


class DegradationController:
    """Answers memory-pressure events with the degradation ladder."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.level = 0
        #: Steps actually exercised, in first-use order (for run reports).
        self.taken: list[str] = []
        self._metrics = None
        self._counters = NULL_COUNTERS

    def bind(self, metrics, counters) -> None:
        """Attach the evaluation's metrics recorder and obs counters."""
        self._metrics = metrics
        self._counters = counters

    # -- pressure events (MetricsRecorder listener) -----------------------------

    def on_pressure(self, level: int, fraction: float) -> None:
        """Watermark crossing: escalate the sticky ladder level."""
        if level > self.level:
            self.level = level

    # -- ladder queries (called by the engine at decision points) ---------------

    def _would_breach_soft(self, planned_bytes: int) -> bool:
        if self._metrics is None or planned_bytes <= 0:
            return False
        return self._metrics.budget_fraction(planned_bytes) >= self._metrics.soft_watermark

    def engaged(self, step: str, planned_bytes: int = 0) -> bool:
        """Is ladder step ``step`` in force for an operation that is about
        to allocate ``planned_bytes``?

        The step is looked up first, so a misspelt name raises even when
        the ladder is off. A step that changes behaviour records itself
        with :meth:`note`.
        """
        level = _STEP_LEVEL[step]
        if not self.enabled:
            return False
        return self.level >= level or self._would_breach_soft(planned_bytes)

    # -- bookkeeping -------------------------------------------------------------

    def note(self, step: str) -> None:
        """Record that a degradation step changed behaviour just now."""
        self._counters.inc("degradations_taken")
        self._counters.inc(f"degradation_{step.replace('-', '_')}")
        if step not in self.taken:
            self.taken.append(step)
