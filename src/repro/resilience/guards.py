"""Runtime bounds on the live loop: a deadline and the divergence budgets.

The paper assumes every input program converges (Section 3.3). Programs
with arithmetic, wide domains, or adversarial input may not, and any run
may take too long; the runtime guard watches the semi-naive loop *as it
runs* and stops it at a boundary where state is consistent. ``deadline``
(simulated seconds on the evaluation clock) raises
:class:`~repro.common.errors.EvaluationCancelled` at a stratum start or
after a productive iteration; ``max_iterations`` / ``max_total_rows``
raise :class:`~repro.common.errors.DivergenceGuardTripped` after a
productive iteration or a batch-evaluated (PBME) stratum. Either way
the engine assembles the same structured partial-result report,
distinguishable by ``failure["kind"]``.

The budgets are also wired into the degradation ladder: crossing the
soft fraction of either escalates the ladder one level, so a run that
is *heading* toward its row budget starts shedding memory (join caches,
hash dedup) before it is killed — the serving layer's early-warning
analogue of the memory watermarks.
"""

from __future__ import annotations

from repro.common.errors import DivergenceGuardTripped, EvaluationCancelled
from repro.obs.counters import NULL_COUNTERS

#: Fraction of either budget at which the guard emits a soft warning and
#: escalates the degradation ladder (mirrors the 80% memory watermark).
GUARD_SOFT_FRACTION = 0.80


class RuntimeGuard:
    """Enforces a deadline and iteration/row budgets at loop boundaries.

    Semantics:

    * ``deadline`` fires at the first boundary whose clock reading is at
      or past it. It bounds the opening evaluation only: :meth:`reset`
      drops it, so a maintenance batch answers to the budgets alone.
    * ``max_iterations`` bounds *productive* iterations: a program that
      converges in exactly ``max_iterations`` iterations completes; one
      that still has non-empty deltas after that many trips.
    * ``max_total_rows`` bounds the cumulative rows added to IDB deltas
      across all strata; the first boundary past the budget trips.

    All three are optional; a guard with none is inert.
    """

    def __init__(
        self,
        max_iterations: int | None = None,
        max_total_rows: int | None = None,
        deadline: float | None = None,
    ) -> None:
        for name, value in (
            ("max_iterations", max_iterations),
            ("max_total_rows", max_total_rows),
        ):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline}")
        self.max_iterations = max_iterations
        self.max_total_rows = max_total_rows
        self.reset()
        self.deadline = deadline
        self.cancelled = False
        self._clock = None
        self._degradation = None
        self._counters = NULL_COUNTERS

    def reset(self) -> None:
        """Start the budgets over and drop the deadline (each maintenance
        batch gets its own budgets; the deadline bounded the opening)."""
        self.iterations = self.total_rows = 0
        self._soft_fired: set[str] = set()
        self.deadline = None

    @property
    def budgeted(self) -> bool:
        return self.max_iterations is not None or self.max_total_rows is not None

    def bind(self, degradation, counters, clock) -> None:
        """Attach the evaluation's degradation controller, counters and clock."""
        self._degradation = degradation
        self._counters = counters
        self._clock = clock

    def check_deadline(self, **position) -> None:
        """Raise :class:`EvaluationCancelled` once the clock reaches the deadline."""
        if self.deadline is None:
            return
        now = self._clock.now()
        if now >= self.deadline:
            self.cancelled = True
            raise EvaluationCancelled(
                f"simulated deadline of {self.deadline:.3f}s reached at {now:.3f}s",
                reason="deadline",
                deadline_seconds=self.deadline,
                now=round(now, 6),
                **position,
            )

    def observe_iteration(
        self, stratum: int, iteration: int, delta_rows: int
    ) -> None:
        """Poll the deadline, then account one productive iteration.

        Called by the interpreter at iteration boundaries — always for
        iteration 0 (the init queries are work by definition) and, in
        the recursive loop, only while deltas are non-empty (the
        converging iteration never reaches here). ``delta_rows`` is the
        total rows the iteration added across the stratum's delta
        tables.
        """
        self.check_deadline(stratum=stratum, iteration=iteration)
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
        against the budgets at the stratum boundary.
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
        """Machine-readable recap of the budgets for run reports."""
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
