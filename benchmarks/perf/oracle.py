"""Independent oracle: what every output of the benchmark must equal.

Nothing here touches the engine under test. AA and CSPA are recomputed
by ``repro.baselines.SouffleLike`` (a different evaluator over plain
Python sets); TC and SG by dense boolean-matrix closures written here.
Results travel as ``(count, sum, xor)`` digests of a per-row hash, which
do not depend on row order.

The harness starts this module as a child process during set-up
(``python oracle.py --workload W --seed S --seconds X``), so the
oracle's memory (SouffleLike peaks as high as the engine does) stays out
of the workload's own ``peak_rss_mb`` and its objects out of the
workload's garbage-collected heap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root), str(_root / "src")]

import numpy as np

from benchmarks.perf import workloads
from repro.baselines import SouffleLike
from repro.programs import get_program

_MIX = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0xD6E8FEB86659FD93)


def digest(rows) -> list[int]:
    """Order-independent ``[count, sum, xor]`` of an ``(n, arity)`` relation."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return [0, 0, 0]
    rows = rows.reshape(rows.shape[0], -1).astype(np.uint64)
    mixed = np.zeros(rows.shape[0], dtype=np.uint64)
    for column in range(rows.shape[1]):
        mixed ^= (rows[:, column] + np.uint64(column + 1)) * np.uint64(
            _MIX[column % len(_MIX)]
        )
        mixed = (mixed << np.uint64(23)) | (mixed >> np.uint64(41))
    mixed *= np.uint64(_MIX[-1])
    mixed ^= mixed >> np.uint64(29)
    return [
        int(rows.shape[0]),
        int(mixed.sum(dtype=np.uint64)),
        int(np.bitwise_xor.reduce(mixed)),
    ]


def tuples_to_rows(tuples, arity: int) -> np.ndarray:
    """A set of equal-length int tuples as an ``(n, arity)`` array."""
    flat = np.fromiter(
        itertools.chain.from_iterable(tuples), dtype=np.int64, count=len(tuples) * arity
    )
    return flat.reshape(-1, arity)


def digest_relations(relations: dict, arities: dict[str, int]) -> dict[str, list[int]]:
    """Digest ``{relation: set of tuples}`` (an EvaluationResult's ``tuples``)."""
    return {
        name: digest(tuples_to_rows(rows, arities[name]))
        for name, rows in sorted(relations.items())
    }


# -- dense closures ------------------------------------------------------------


def _adjacency(arc: np.ndarray, size: int) -> np.ndarray:
    matrix = np.zeros((size, size), dtype=bool)
    matrix[arc[:, 0], arc[:, 1]] = True
    return matrix


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    # 0/1 float32 products are exact while a row sum stays below 2**24.
    return (left.astype(np.float32) @ right.astype(np.float32)) > 0


def tc_closure(adjacency: np.ndarray) -> np.ndarray:
    """Paths of length >= 1, by repeated squaring."""
    reach = adjacency.copy()
    while True:
        grown = reach | _product(reach, reach)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def sg_closure(adjacency: np.ndarray) -> np.ndarray:
    """Same generation: siblings (x != y), then one step down both sides."""
    down = adjacency.T
    same = _product(down, adjacency)
    np.fill_diagonal(same, False)
    while True:
        grown = same | _product(_product(down, same), adjacency)
        if np.array_equal(grown, same):
            return same
        same = grown


def _pairs(matrix: np.ndarray) -> np.ndarray:
    return np.argwhere(matrix).astype(np.int64)


# -- per workload ----------------------------------------------------------------


def cell_reference(cell, edb: dict[str, np.ndarray]) -> dict[str, list[int]]:
    spec = get_program(cell.program)
    if cell.oracle == "closure":
        arc = edb["arc"]
        adjacency = _adjacency(arc, 1 + int(arc.max()))
        closure = {"TC": tc_closure, "SG": sg_closure}[cell.program](adjacency)
        return {spec.outputs[0]: digest(_pairs(closure))}
    result = SouffleLike().evaluate(spec, edb, cell.name)
    if result.status != "ok":
        raise RuntimeError(f"oracle run of {cell.name} ended {result.status}")
    return digest_relations(result.tuples, spec.parse().arities)


def serve_reference(seed: int, seconds: float, smoke: bool) -> dict:
    """Digests for the view before any update, for every point goal's
    answer (always asked against the base EDB), and for the view after
    each round count the loop may stop at."""
    stops = workloads.stop_rounds(seconds, smoke)
    arc, stream = workloads.serve_inputs(seed, stops[-1])
    size = 1 + int(arc.max())
    adjacency = _adjacency(arc, size)
    base = tc_closure(adjacency)
    points = {}
    final = {}
    for index, ops in enumerate(stream, start=1):
        for op in ops:
            if op.kind == "point":
                if op.source not in points:
                    targets = np.flatnonzero(base[op.source]).astype(np.int64)
                    rows = np.column_stack([np.full_like(targets, op.source), targets])
                    points[op.source] = digest(rows)
            else:
                adjacency[op.rows[:, 0], op.rows[:, 1]] = op.kind == "insert"
        if index in stops:
            final[str(index)] = digest(_pairs(tc_closure(adjacency)))
    return {
        "base": digest(_pairs(base)),
        "points": {str(source): value for source, value in points.items()},
        "final": final,
    }


def reference(workload_name: str, seed: int, seconds: float, smoke: bool) -> dict:
    workload = workloads.WORKLOADS[workload_name]
    if workload.serving:
        return serve_reference(seed, seconds, smoke)
    return {
        cell.name: cell_reference(cell, workloads.cell_inputs(cell, seed, smoke))
        for cell in workload.cells
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(reference(args.workload, args.seed, args.seconds, args.smoke)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
