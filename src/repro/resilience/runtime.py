"""The runtime context binding resilience features to one evaluation.

A :class:`ResilienceContext` is what the :class:`~repro.engine.database.
Database` actually holds: the fault injector (or None), the retry
policy, the degradation controller, and the runtime guard (deadline
and divergence budgets). The default context is inert — every hook is
a single ``is None`` branch — so evaluations without resilience
features pay nothing, mirroring how ``repro.obs`` ships null objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import FaultRetriesExhausted, TransientFaultError
from repro.obs.counters import NULL_COUNTERS
from repro.resilience.degradation import DegradationController
from repro.resilience.faults import FaultInjector
from repro.resilience.guards import RuntimeGuard
from repro.resilience.retry import MAX_ATTEMPTS, RetryPolicy


@dataclass
class ResilienceContext:
    """Per-evaluation resilience state, bound to a Database's metrics."""

    injector: FaultInjector | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degradation: DegradationController = field(
        default_factory=DegradationController
    )
    guard: RuntimeGuard | None = None  # deadline + divergence budgets
    _metrics: object | None = field(default=None, repr=False)
    _counters: object = field(default=NULL_COUNTERS, repr=False)

    def bind(self, metrics, counters) -> None:
        """Attach the evaluation's metrics recorder and obs counters.

        Called by the Database at construction (and again when profiling
        is enabled later, so counters land in the live registry).
        """
        self._metrics = metrics
        self._counters = counters
        self.degradation.bind(metrics, counters)
        if self.guard is not None:
            self.guard.bind(self.degradation, counters, metrics.clock)
        if self.degradation.enabled:
            metrics.pressure_listener = self.degradation.on_pressure

    @property
    def active(self) -> bool:
        """Any resilience feature engaged (for run-report gating)."""
        return (
            self.injector is not None
            or self.degradation.enabled
            or self.guard is not None
        )

    # -- fault injection + retry ---------------------------------------------------

    def run(self, site: str, operation):
        """Run ``operation`` under fault injection with retries.

        Faults are injected at operation entry (before side effects), so
        a retry simply re-invokes the operation. Backoff is charged to
        the simulated clock: retried task time lands in the makespan.
        """
        if self.injector is None:
            return operation()
        retries = 0
        while True:
            try:
                self.injector.check(site)
                return operation()
            except TransientFaultError as error:
                self._counters.inc("faults_injected")
                retries += 1
                if retries >= MAX_ATTEMPTS:
                    raise FaultRetriesExhausted(
                        f"operation at {site!r} still failing after "
                        f"{retries} attempts",
                        site=site,
                        attempts=retries,
                    ) from error
                self._counters.inc("fault_retries")
                if self._metrics is not None:
                    self._metrics.advance(
                        self.retry.backoff_seconds(retries, salt=site),
                        utilization=0.01,
                    )

    def maybe_spike(self) -> None:
        """Inject a transient memory-pressure spike (dispatch sites).

        The spike inflates the modeled footprint to a fraction of the
        budget and releases it immediately: watermark crossings (and the
        degradation ladder) fire, but the spike itself never exceeds the
        budget — pressure, not murder.
        """
        if self.injector is None or self._metrics is None:
            return
        fraction = self.injector.spike_fraction()
        if fraction is None:
            return
        metrics = self._metrics
        if metrics.memory_budget <= 0:
            return
        current = metrics.base_bytes + metrics.transient_bytes
        spike = int(metrics.memory_budget * fraction) - current
        if spike <= 0:
            return
        self._counters.inc("faults_memory_spikes")
        metrics.allocate_transient(spike)
        metrics.release_transient(spike)

    # -- runtime guard -------------------------------------------------------------

    def check_deadline(self, **position) -> None:
        """Poll the deadline at a stratum start."""
        if self.guard is not None:
            self.guard.check_deadline(**position)

    def check_guard(self, stratum: int, iteration: int, delta_rows: int) -> None:
        """Poll the deadline, then account a productive iteration."""
        if self.guard is not None:
            self.guard.observe_iteration(stratum, iteration, delta_rows)

    def check_guard_stratum(
        self, stratum: int, iterations: int, delta_rows: int
    ) -> None:
        """Account a batch-evaluated stratum (PBME) against the budgets."""
        if self.guard is not None:
            self.guard.observe_stratum(stratum, iterations, delta_rows)

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> dict:
        """Machine-readable recap for run reports and EvaluationResults."""
        recap: dict = {}
        if self.injector is not None:
            recap["fault_seed"] = self.injector.seed
            recap["faults_injected"] = self.injector.total_injected()
            recap["fault_sites"] = dict(sorted(self.injector.injected.items()))
        if self.degradation.enabled:
            recap["pressure_level"] = self.degradation.level
            recap["degradations_taken"] = list(self.degradation.taken)
        if self.guard is not None and self.guard.deadline is not None:
            recap["cancelled"] = self.guard.cancelled
        if self.guard is not None and self.guard.budgeted:
            recap["guard"] = self.guard.summary()
        return recap
