"""Simulated-clock utilities.

The experiments in the paper ran on a 20-core server; this host has one
core, so elapsed *wall* time cannot reproduce the paper's parallel-scaling
figures. Instead, every engine in this repository charges work to a
:class:`SimClock` in abstract cost units ("simulated seconds"). Tuples are
always computed exactly; only time is modeled. See DESIGN.md, Substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimClock:
    """A monotonically advancing simulated clock.

    ``advance`` adds elapsed simulated seconds; ``now`` reads the clock.
    Engines share one clock per evaluation so that memory/utilization
    samples from different components interleave on a common time axis.
    """

    _now: float = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def reset(self) -> None:
        self._now = 0.0

