"""ProfileReport: aggregate a span forest into actionable rollups.

Turns the raw trace into the three views perf work needs:

* **hotspots** — every (category, name) pair ranked by *self* time (time
  inside the span not covered by children), with counts and row totals;
* **per-operator rollups** — operator-category spans only;
* **per-rule rollups** — statement spans grouped by the IDB predicate
  their target table belongs to (``tc_mdelta`` → ``tc``), which is the
  attribution FlowLog-style rule scheduling needs.

The report also knows what fraction of total simulated time the trace
covers (``attributed_fraction``) so consumers can detect instrumentation
gaps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.obs.tracer import CATEGORY_STATEMENT, Span

#: Working-table suffixes the interpreter derives from a predicate name.
_TABLE_SUFFIX = re.compile(r"(_tmp_mdelta\d+|_mdelta|_delta)$")


def predicate_of_table(table: str) -> str:
    """Map a working-table name back to its Datalog predicate."""
    return _TABLE_SUFFIX.sub("", table)


@dataclass
class SpanRollup:
    """Aggregate over all spans sharing one (category, name)."""

    name: str
    category: str
    count: int = 0
    total_time: float = 0.0
    self_time: float = 0.0
    rows_out: int = 0

    def add(self, span: Span) -> None:
        self.count += 1
        self.total_time += span.duration
        self.self_time += span.self_time
        rows = span.attrs.get("rows_out")
        if rows is not None:
            self.rows_out += int(rows)


@dataclass
class ProfileReport:
    """Aggregated view over one evaluation's trace and counters."""

    roots: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    total_time: float = 0.0
    #: name -> LogHistogram.to_dict() records (latency/size distributions).
    histograms: dict[str, dict] = field(default_factory=dict)
    #: Resource-timeline samples as flat records (time, resident_bytes, ...).
    timeline: list[dict] = field(default_factory=list)

    @classmethod
    def from_profiler(cls, profiler, total_time: float) -> "ProfileReport":
        return cls(
            roots=list(profiler.tracer.roots),
            counters=profiler.counters.snapshot(),
            total_time=total_time,
            histograms=profiler.histograms.snapshot(),
            timeline=profiler.timeline.to_records(),
        )

    # -- aggregation ---------------------------------------------------------

    def _walk(self):
        for root in self.roots:
            yield from root.walk()

    def rollups(self) -> list[SpanRollup]:
        """One rollup per (category, name), sorted by self time desc."""
        table: dict[tuple[str, str], SpanRollup] = {}
        for span in self._walk():
            key = (span.category, span.name)
            if key not in table:
                table[key] = SpanRollup(name=span.name, category=span.category)
            table[key].add(span)
        return sorted(table.values(), key=lambda r: r.self_time, reverse=True)

    def per_rule(self) -> dict[str, SpanRollup]:
        """Statement time grouped by the predicate of the target table."""
        table: dict[str, SpanRollup] = {}
        for span in self._walk():
            if span.category != CATEGORY_STATEMENT:
                continue
            target = span.attrs.get("table")
            if not target:
                continue
            predicate = predicate_of_table(str(target))
            if predicate not in table:
                table[predicate] = SpanRollup(name=predicate, category="rule")
            table[predicate].add(span)
        return dict(sorted(table.items(), key=lambda kv: kv[1].total_time, reverse=True))

    def attributed_fraction(self) -> float:
        """Share of total simulated time covered by the span forest."""
        if self.total_time <= 0:
            return 1.0 if not self.roots else 0.0
        return min(1.0, sum(root.duration for root in self.roots) / self.total_time)

    # -- rendering ------------------------------------------------------------

    def hotspots(self, top_n: int = 15) -> list[SpanRollup]:
        return self.rollups()[:top_n]

    def render_hotspots(self, top_n: int = 15) -> str:
        """The flat-text top-N table (self-time attribution)."""
        total = self.total_time or sum(r.self_time for r in self.rollups()) or 1.0
        lines = [
            f"profile: {self.total_time:.4f} simulated seconds, "
            f"{self.attributed_fraction() * 100:.1f}% attributed to spans",
            f"{'span':<28}{'category':<11}{'count':>7}{'self s':>10}"
            f"{'self %':>8}{'total s':>10}{'rows out':>12}",
        ]
        lines.append("-" * len(lines[-1]))
        for rollup in self.hotspots(top_n):
            lines.append(
                f"{rollup.name:<28}{rollup.category:<11}{rollup.count:>7}"
                f"{rollup.self_time:>10.4f}{100 * rollup.self_time / total:>7.1f}%"
                f"{rollup.total_time:>10.4f}{rollup.rows_out:>12,}"
            )
        if self.counters:
            lines.append("")
            lines.append("counters:")
            for name, value in self.counters.items():
                lines.append(f"  {name:<28}{value:>14,}")
        return "\n".join(lines)

    def render_rules(self) -> str:
        """Per-rule (predicate) attribution table."""
        lines = [f"{'predicate':<24}{'statements':>11}{'total s':>10}"]
        lines.append("-" * len(lines[0]))
        for name, rollup in self.per_rule().items():
            lines.append(f"{name:<24}{rollup.count:>11}{rollup.total_time:>10.4f}")
        return "\n".join(lines)

    def render_histograms(self) -> str:
        """Latency/size distribution table (count, p50/p95/p99, max)."""
        header = (
            f"{'histogram':<32}{'count':>8}{'p50':>12}{'p95':>12}"
            f"{'p99':>12}{'max':>12}"
        )
        lines = [header, "-" * len(header)]
        for name, record in self.histograms.items():
            lines.append(
                f"{name:<32}{record['count']:>8}{record['p50']:>12.6f}"
                f"{record['p95']:>12.6f}{record['p99']:>12.6f}{record['max']:>12.6f}"
            )
        return "\n".join(lines)
