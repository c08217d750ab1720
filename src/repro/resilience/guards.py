"""Runtime divergence guards: iteration and row budgets on the live loop.

The paper assumes every input program converges (Section 3.3). Programs
with arithmetic, wide domains, or adversarial input may not; the runtime
guard is the defense against them: it watches the semi-naive loop *as it
runs* and trips when the evaluation blows through an
iteration budget (``max_iterations``) or a cumulative derived-row budget
(``max_total_rows``) without reaching a fixpoint. A trip raises
:class:`~repro.common.errors.DivergenceGuardTripped` at an iteration
boundary — the same consistent place a deadline fires — so the engine
can assemble the same structured partial-result report, distinguishable
by ``failure["kind"]``.

The guard is also wired into the degradation ladder: crossing the soft
fraction of either budget escalates the ladder one level, so a run that
is *heading* toward its row budget starts shedding memory (join caches,
hash dedup) before it is killed — the serving layer's early-warning
analogue of the memory watermarks.
"""

from __future__ import annotations

from repro.common.errors import DivergenceGuardTripped
from repro.obs.counters import NULL_COUNTERS

#: Fraction of either budget at which the guard emits a soft warning and
#: escalates the degradation ladder (mirrors the 80% memory watermark).
GUARD_SOFT_FRACTION = 0.80


class RuntimeGuard:
    """Enforces iteration/row budgets at semi-naive iteration boundaries.

    Semantics:

    * ``max_iterations`` bounds *productive* iterations: a program that
      converges in exactly ``max_iterations`` iterations completes; one
      that still has non-empty deltas after that many trips.
    * ``max_total_rows`` bounds the cumulative rows added to IDB deltas
      across all strata; the first boundary past the budget trips.

    Both budgets are optional; a guard with neither is inert.
    """

    def __init__(
        self,
        max_iterations: int | None = None,
        max_total_rows: int | None = None,
    ) -> None:
        for name, value in (
            ("max_iterations", max_iterations),
            ("max_total_rows", max_total_rows),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        self.max_iterations = max_iterations
        self.max_total_rows = max_total_rows
        self.reset()
        self._degradation = None
        self._counters = NULL_COUNTERS

    def reset(self) -> None:
        """Start the budgets over (each maintenance batch gets its own)."""
        self.iterations = self.total_rows = 0
        self._soft_fired: set[str] = set()

    @property
    def enabled(self) -> bool:
        return self.max_iterations is not None or self.max_total_rows is not None

    def bind(self, degradation, counters) -> None:
        """Attach the evaluation's degradation controller and counters."""
        self._degradation = degradation
        self._counters = counters

    def observe_iteration(
        self, stratum: int, iteration: int, delta_rows: int
    ) -> None:
        """Account one completed, still-productive iteration.

        Called by the interpreter at iteration boundaries — always for
        iteration 0 (the init queries are work by definition) and, in
        the recursive loop, only while deltas are non-empty (the
        converging iteration never reaches here). ``delta_rows`` is the
        total rows the iteration added across the stratum's delta
        tables.
        """
        self.iterations += 1
        self.total_rows += delta_rows
        self._check("max_iterations", self.iterations, self.max_iterations,
                    stratum, iteration)
        self._check("max_total_rows", self.total_rows, self.max_total_rows,
                    stratum, iteration)

    def observe_stratum(
        self, stratum: int, iterations: int, delta_rows: int
    ) -> None:
        """Account a whole stratum evaluated as one batch kernel.

        The bit-matrix evaluator (PBME) saturates a stratum in a single
        closed-form pass — it cannot diverge, and it exposes no
        per-iteration boundary to interpose on — so its work is charged
        against the budgets at the stratum boundary, the same place a
        deadline would fire for it.
        """
        self.iterations += iterations
        self.total_rows += delta_rows
        self._check("max_iterations", self.iterations, self.max_iterations,
                    stratum, iterations)
        self._check("max_total_rows", self.total_rows, self.max_total_rows,
                    stratum, iterations)

    def _check(
        self,
        kind: str,
        observed: int,
        budget: int | None,
        stratum: int,
        iteration: int,
    ) -> None:
        if budget is None:
            return
        if observed > budget:
            self._counters.inc(f"guard.{kind}_tripped")
            raise DivergenceGuardTripped(
                f"runtime divergence guard: {observed} exceeds "
                f"{kind}={budget} without reaching a fixpoint",
                kind=kind,
                observed=observed,
                budget=budget,
                stratum=stratum,
                iteration=iteration,
                iterations_seen=self.iterations,
                total_rows_seen=self.total_rows,
            )
        if observed >= GUARD_SOFT_FRACTION * budget and kind not in self._soft_fired:
            self._soft_fired.add(kind)
            self._counters.inc("guard.soft_warnings")
            if self._degradation is not None and self._degradation.enabled:
                # Escalate the ladder one level: a run burning through its
                # divergence budget should start trading speed for
                # footprint before the hard trip, exactly like a run
                # crossing the soft memory watermark.
                self._degradation.on_pressure(1, observed / budget)

    def summary(self) -> dict:
        """Machine-readable recap for run reports."""
        recap: dict = {
            "iterations": self.iterations,
            "total_rows": self.total_rows,
        }
        if self.max_iterations is not None:
            recap["max_iterations"] = self.max_iterations
        if self.max_total_rows is not None:
            recap["max_total_rows"] = self.max_total_rows
        if self._soft_fired:
            recap["soft_warnings"] = sorted(self._soft_fired)
        return recap
