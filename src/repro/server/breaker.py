"""Per-class circuit breakers: stop retry storms against a sick backend.

When a session class (by default, one Datalog program) keeps failing at
the backend — exhausted fault retries, OOM, hard timeout — re-admitting
more of the same work burns worker-pool time that healthy classes could
use. The breaker is the standard three-state remedy on the service's
simulated clock:

* **closed** — normal operation; consecutive backend failures count up.
* **open** — after ``failure_threshold`` consecutive failures the class
  is rejected at the front door (a structured ``breaker-open``
  Overloaded response with the cooldown remainder as the retry hint).
* **half-open** — after ``cooldown_seconds`` the next submission is
  admitted as a probe; success closes the breaker, failure re-opens it
  for another cooldown.

Client-scoped outcomes (deadline, divergence guard) do
NOT count as backend failures: they say something about the query, not
about the backend's health.
"""

from __future__ import annotations

from repro.obs.counters import NULL_COUNTERS

#: Terminal evaluation statuses that indicate backend sickness.
BACKEND_FAILURE_STATUSES = frozenset({"fault", "oom", "timeout"})

#: Consecutive backend failures that open a class's breaker.
FAILURE_THRESHOLD = 3
#: Simulated seconds an open breaker waits before its half-open probe.
COOLDOWN_SECONDS = 60.0

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One class's breaker, advancing on the service's simulated clock."""

    def __init__(
        self,
        klass: str,
        failure_threshold: int = FAILURE_THRESHOLD,
        cooldown_seconds: float = COOLDOWN_SECONDS,
        counters=NULL_COUNTERS,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.klass = klass
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.counters = counters
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.trips = 0
        self._probe_outstanding = False

    def allow(self, now: float) -> bool:
        """May a session of this class proceed right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at >= self.cooldown_seconds:
                self.state = HALF_OPEN
                self._probe_outstanding = False
                self.counters.inc("server.breaker_half_open")
            else:
                return False
        # Half-open: admit exactly one probe at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def retry_after(self, now: float) -> float:
        """Cooldown remainder (the retry hint for open-state rejections)."""
        if self.state != OPEN or self.opened_at is None:
            return 0.0
        return max(0.0, self.opened_at + self.cooldown_seconds - now)

    def record_success(self) -> None:
        if self.state == HALF_OPEN:
            self.counters.inc("server.breaker_closed")
        self.state = CLOSED
        self.consecutive_failures = 0
        self._probe_outstanding = False

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        should_open = (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        )
        if should_open:
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            self._probe_outstanding = False
            self.counters.inc("server.breaker_open")

    def to_dict(self) -> dict:
        doc = {
            "class": self.klass,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }
        if self.opened_at is not None:
            doc["opened_at"] = round(self.opened_at, 6)
        return doc


class BreakerBoard:
    """Lazily materialized breaker per session class."""

    def __init__(self, counters=NULL_COUNTERS) -> None:
        self.counters = counters
        self._breakers: dict[str, CircuitBreaker] = {}

    def for_class(self, klass: str) -> CircuitBreaker:
        breaker = self._breakers.get(klass)
        if breaker is None:
            breaker = CircuitBreaker(
                klass,
                failure_threshold=FAILURE_THRESHOLD,
                cooldown_seconds=COOLDOWN_SECONDS,
                counters=self.counters,
            )
            self._breakers[klass] = breaker
        return breaker

    def observe(self, klass: str, status: str, now: float) -> None:
        """Feed a terminal evaluation status into the class's breaker."""
        breaker = self.for_class(klass)
        if status == "ok":
            breaker.record_success()
        elif status in BACKEND_FAILURE_STATUSES:
            breaker.record_failure(now)
        # Client-scoped outcomes (deadline/cancelled/guard) are neutral:
        # a half-open probe that ends client-scoped neither closes nor
        # re-opens, it just gives the slot back.
        elif breaker.state == HALF_OPEN:
            breaker._probe_outstanding = False

    def to_dict(self) -> dict:
        return {
            klass: breaker.to_dict()
            for klass, breaker in sorted(self._breakers.items())
        }
