"""Retry policy with exponential backoff on the simulated clock.

Retried work is not free: every backoff advances the evaluation's
:class:`~repro.common.timing.SimClock`, so retry time lands in the phase
makespan exactly like real recovery time would — a heavily faulted run
is *slower* than a clean one (and can even trip the time budget), but it
reaches the identical fixpoint.

Backoff can carry deterministic jitter: pure exponential backoff
synchronizes concurrent retriers into thundering herds (every caller
that faulted together retries together, forever). With ``jitter_seed``
set, each backoff is scaled down by a fraction drawn from a
:func:`~repro.common.rng.derive_seed` stream keyed on the caller's
``salt`` and the retry index — different sites desynchronize, while the
same seed reproduces the exact same schedule across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import derive_seed


#: Total tries per operation (first attempt included).
MAX_ATTEMPTS = 4
#: Simulated seconds slept before the first retry.
BACKOFF_BASE = 0.05
#: Growth factor per subsequent retry.
BACKOFF_MULTIPLIER = 2.0
#: Maximum fraction of a backoff the jitter may shave off (each sleep
#: lands in ``[(1 - JITTER) x, x]``).
JITTER = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule for transient faults.

    Attributes:
        jitter_seed: seed for the deterministic jitter stream; ``None``
            (the default) keeps the pure-exponential schedule.
    """

    jitter_seed: int | None = None

    def backoff_seconds(self, retry_index: int, salt: str = "") -> float:
        """Backoff before retry ``retry_index`` (1-based).

        ``salt`` identifies the retrier (typically the fault site), so
        two callers backing off from the same retry index draw distinct
        jitter and stop colliding.
        """
        if retry_index < 1:
            raise ValueError(f"retry index must be >= 1, got {retry_index}")
        base = BACKOFF_BASE * BACKOFF_MULTIPLIER ** (retry_index - 1)
        if self.jitter_seed is None:
            return base
        unit = (
            derive_seed(self.jitter_seed, "retry-jitter", salt, str(retry_index))
            / float(1 << 63)
        )
        return base * (1.0 - JITTER * unit)
