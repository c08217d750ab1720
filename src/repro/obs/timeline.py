"""Continuous resource timelines on the simulated clock.

A :class:`ResourceTimeline` is an append-only series of named samples —
resident bytes, transient bytes, degradation-ladder level, join-cache
and partition counters, queue depth — taken at meaningful boundaries
(the interpreter samples at iteration boundaries, the query service at
admission events). Where a counter answers "how often" and a span
answers "where did the time go", a timeline answers "what did the
resource look like *while* it happened": the paper's Figure 11/14/16
memory-and-utilization trajectories are exactly this shape.

Timelines export alongside the Chrome trace as counter tracks (see
:func:`repro.obs.export.timeline_counter_events`), so a trace shows
*why* a phase slowed — memory climbing into the watermark, the
degradation ladder stepping, the admission queue backing up — not just
that it did.

The disabled path is the shared :data:`NULL_TIMELINE` whose ``sample``
discards everything.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimelineSample:
    """One sample: a simulated timestamp plus named numeric values."""

    time: float
    values: dict

    def to_record(self) -> dict:
        """Flat JSON-able record (``time`` first, then sorted values)."""
        return {"time": round(self.time, 9), **{k: self.values[k] for k in sorted(self.values)}}


class ResourceTimeline:
    """An append-only series of resource samples on one simulated clock."""

    def __init__(self) -> None:
        self.samples: list[TimelineSample] = []

    def __len__(self) -> int:
        return len(self.samples)

    def sample(self, time: float, **values) -> None:
        """Record one sample at a simulated timestamp."""
        self.samples.append(TimelineSample(time=float(time), values=values))

    def series(self, key: str) -> list[tuple[float, float]]:
        """The ``(time, value)`` series of one sampled key (missing skipped)."""
        return [
            (sample.time, sample.values[key])
            for sample in self.samples
            if key in sample.values
        ]

    def peak(self, key: str) -> float:
        """Maximum sampled value of a key (0.0 when never sampled)."""
        values = [value for _, value in self.series(key)]
        return max(values) if values else 0.0

    def to_records(self) -> list[dict]:
        """The whole timeline as flat JSON-able records."""
        return [sample.to_record() for sample in self.samples]


class NullResourceTimeline(ResourceTimeline):
    """Disabled path: samples vanish; reads see an empty series."""

    def __init__(self) -> None:
        super().__init__()

    def sample(self, time: float, **values) -> None:
        pass


NULL_TIMELINE = NullResourceTimeline()
