"""``compare A B``: two result directories, metric by metric.

``A`` and ``B`` hold the ``<workload>.json`` files runs left in ``out/``
- one per workload, or several (copies from runs with other seeds), in
which case a metric's value is its median over them. For every workload
both have, prints each bounded metric's two values, B's relative change,
and whether B is within the metric's bound of A (``worse`` is signed by
the metric's direction).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from benchmarks.perf.catalog import BETTER, BOUNDS, UNITS, median


def load(directory: Path) -> dict[str, dict]:
    """``{workload: {metric: median}}`` over a directory's untraced results."""
    runs: dict[str, dict[str, list]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".layers.json") or path.name.startswith("trace-"):
            continue
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        values = dict(document["summary"]["all"])
        values["failed_share"] = document["summary"]["failed_share"]
        metrics = runs.setdefault(document["workload"], {})
        for metric, value in values.items():
            metrics.setdefault(metric, []).append(value)
    return {
        workload: {metric: median(values) for metric, values in metrics.items()}
        for workload, metrics in runs.items()
    }


def worsening(metric: str, before: float, after: float) -> float:
    """Relative change of ``after`` against ``before``, positive = worse."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return -change if BETTER[metric] == "higher" else change


def compare(before: dict, after: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':<14} {'metric':<22} {'A':>14} {'B':>14} {'unit':<6} {'B vs A':>8}  verdict"
    ]
    all_within = True
    for workload in sorted(set(before) & set(after)):
        for metric, bound in BOUNDS.items():
            a = before[workload].get(metric)
            b = after[workload].get(metric)
            if a is None or b is None or (a == 0 and b == 0):
                continue
            worse = worsening(metric, a, b)
            within = worse <= bound
            all_within &= within
            change = (b - a) / abs(a) if a else float("inf")
            lines.append(
                f"{workload:<14} {metric:<22} {a:>14.4f} {b:>14.4f} {UNITS[metric]:<6} "
                f"{change:>+8.1%}  {'within' if within else 'OUTSIDE'} bound {bound:g}"
            )
        a = before[workload]["failed_share"]
        b = after[workload]["failed_share"]
        within = b <= a
        all_within &= within
        lines.append(
            f"{workload:<14} {'failed_share':<22} {a:>14.4f} {b:>14.4f} {'ratio':<6} "
            f"{b - a:>+8.4f}  {'within' if within else 'OUTSIDE'} bound 0 (absolute)"
        )
    return lines, all_within


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    lines, all_within = compare(load(args.a), load(args.b))
    print("\n".join(lines))
    return 0 if all_within else 1
