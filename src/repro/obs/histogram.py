"""Fixed-bucket latency/size histograms with deterministic percentiles.

The trajectory harness and the query service both need distributions,
not just totals: a p99 latency regression is invisible in a mean. A
:class:`LogHistogram` buckets positive values into fixed base-2
geometric buckets (bucket ``e`` covers ``[2^e, 2^{e+1})``), so
percentiles are deterministic: p50/p95/p99 depend only on the integer
bucket counts and the exact min/max, never on insertion order or
timing, so two runs with the same simulated history report
bit-identical quantiles (the regression gate's requirement).

Values are simulated seconds or row/byte counts; anything ``<= 0`` (or
smaller than the first bucket) lands in the underflow bucket starting
at 0. Like the rest of ``repro.obs``, the disabled path is a shared
null object (:data:`NULL_HISTOGRAMS`) whose ``observe`` discards.
"""

from __future__ import annotations

import math

#: Bucket exponent range: 2^-30 (~1 ns simulated) .. 2^33 (~8.6 G rows /
#: ~272 simulated years). Values outside clamp to the edge buckets.
MIN_EXPONENT = -30
MAX_EXPONENT = 33

#: Sentinel exponent for the underflow bucket covering [0, 2^MIN_EXPONENT).
UNDERFLOW = MIN_EXPONENT - 1


def bucket_exponent(value: float) -> int:
    """The bucket a value falls into: ``floor(log2(value))``, clamped.

    Uses :func:`math.frexp` so the exponent is exact — no log-rounding
    drift near bucket boundaries (``frexp(v) = (m, e)`` with
    ``0.5 <= m < 1`` means ``floor(log2(v)) == e - 1``).
    """
    if value <= 0.0:
        return UNDERFLOW
    _, exp = math.frexp(value)
    exp -= 1
    if exp < MIN_EXPONENT:
        return UNDERFLOW
    return min(exp, MAX_EXPONENT)


def bucket_bounds(exponent: int) -> tuple[float, float]:
    """The ``[lower, upper)`` value range of a bucket exponent."""
    if exponent == UNDERFLOW:
        return 0.0, 2.0**MIN_EXPONENT
    return 2.0**exponent, 2.0 ** (exponent + 1)


class LogHistogram:
    """A fixed log2-bucket histogram of non-negative values."""

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket exponent -> observation count (sparse).
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        exponent = bucket_exponent(value)
        self._buckets[exponent] = self._buckets.get(exponent, 0) + 1

    # -- quantiles ---------------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Deterministic quantile estimate in ``[min, max]``.

        The target rank is ``ceil(q * count)`` (at least 1); the value is
        linearly interpolated inside the covering bucket by rank
        position. Exact for the extremes: p0 -> min, p100 -> max.
        """
        if self.count == 0:
            return 0.0
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for exponent in sorted(self._buckets):
            in_bucket = self._buckets[exponent]
            if cumulative + in_bucket >= target:
                lower, upper = bucket_bounds(exponent)
                fraction = (target - cumulative) / in_bucket
                value = lower + (upper - lower) * fraction
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    # -- export ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Schema-stable JSON record (the ``metrics_snapshot`` entry shape)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "mean": round(self.mean, 9),
            "min": 0.0 if empty else round(self.min, 9),
            "max": 0.0 if empty else round(self.max, 9),
            "p50": round(self.percentile(0.50), 9),
            "p95": round(self.percentile(0.95), 9),
            "p99": round(self.percentile(0.99), 9),
            "buckets": {str(exp): count for exp, count in sorted(self._buckets.items())},
        }


class HistogramSet:
    """A named bag of histograms (the counter registry's distribution twin)."""

    def __init__(self) -> None:
        self._histograms: dict[str, LogHistogram] = {}

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = LogHistogram()
        histogram.observe(value)

    def snapshot(self) -> dict[str, dict]:
        """Sorted ``name -> to_dict()`` of every histogram."""
        return {name: self._histograms[name].to_dict() for name in sorted(self._histograms)}


class NullHistogramSet(HistogramSet):
    """Disabled path: observations vanish, snapshots are empty."""

    def observe(self, name: str, value: float) -> None:
        pass


NULL_HISTOGRAMS = NullHistogramSet()
