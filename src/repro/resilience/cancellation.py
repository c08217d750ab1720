"""Cooperative cancellation and deadline tokens.

The hard time budget (:class:`~repro.common.errors.EvaluationTimeout`)
trips in the middle of whatever operation crossed it, which is faithful
to the paper's 10h-timeout DNF cells but leaves nothing behind. A token
is the graceful counterpart: the interpreter polls it at stratum and
iteration boundaries, where state is consistent, so a fired token
produces a structured partial-result report (and, with checkpointing
enabled, a resumable snapshot) instead of a bare exception.
"""

from __future__ import annotations

from repro.common.errors import EvaluationCancelled
from repro.common.timing import SimClock


class CancellationToken:
    """Manually cancellable token, checked at phase boundaries."""

    def __init__(self) -> None:
        self._cancelled = False
        self._reason = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self._cancelled = True
        self._reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def check(self, **context) -> None:
        """Raise :class:`EvaluationCancelled` if the token has fired."""
        if self._cancelled:
            raise EvaluationCancelled(
                f"evaluation cancelled: {self._reason}",
                reason=self._reason or "cancelled",
                **context,
            )


class CompositeToken(CancellationToken):
    """Fans one poll out to several tokens (deadline + session heartbeat).

    The first child whose ``check`` raises wins; ``cancelled`` reports
    True if any child (or the composite itself) has fired. Cancelling
    the composite directly also works — it behaves like one more child.
    """

    def __init__(self, children) -> None:
        super().__init__()
        self.children = list(children)

    @property
    def cancelled(self) -> bool:
        return self._cancelled or any(
            getattr(child, "cancelled", False) for child in self.children
        )

    def check(self, **context) -> None:
        for child in self.children:
            child.check(**context)
        super().check(**context)


class DeadlineToken(CancellationToken):
    """Fires once the simulated clock passes ``deadline_seconds``."""

    def __init__(self, clock: SimClock, deadline_seconds: float) -> None:
        super().__init__()
        if deadline_seconds < 0:
            raise ValueError(f"deadline must be non-negative, got {deadline_seconds}")
        self._clock = clock
        self.deadline_seconds = deadline_seconds

    def check(self, **context) -> None:
        now = self._clock.now()
        if now >= self.deadline_seconds:
            self.cancel("deadline")
            raise EvaluationCancelled(
                f"simulated deadline of {self.deadline_seconds:.3f}s reached "
                f"at {now:.3f}s",
                reason="deadline",
                deadline_seconds=self.deadline_seconds,
                now=round(now, 6),
                **context,
            )
        super().check(**context)
