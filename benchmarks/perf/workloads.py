"""The four workloads, and the inputs ``--seed`` makes for them.

Dataset *structure* is pinned (``DATASET_SEED``): the registry's
generators change tuple counts and iteration counts by integer factors
across their own seeds (cspa-httpd: 4.5-38 s), which would drown any
code change. ``--seed`` instead draws a random relabelling of the vertex
ids and a random row order for every relation, and - on ``serve-mixed``
- the whole request stream. Two seeds give isomorphic, differently laid
out inputs: the same work, so walls are comparable across seeds, and the
same seed gives byte-identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import PbmeMode
from repro.datasets import load_dataset

DATASET_SEED = 7


@dataclass(frozen=True)
class Cell:
    """One batch kind: a program evaluated to fixpoint on one dataset."""

    name: str
    program: str
    dataset: str
    smoke_dataset: str
    #: RecStepConfig overrides (default config otherwise).
    config: dict = field(default_factory=dict)
    #: Give every evaluation a fresh ``spill_dir``.
    spill: bool = False
    #: "souffle" (repro.baselines.SouffleLike) or "closure" (dense boolean
    #: matrices; the TC/SG graphs are far too slow for SouffleLike here).
    oracle: str = "closure"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Kinds whose median feeds heavy_kind_p50_ms / light_kind_p50_ms.
    heavy: str
    light: str
    cells: tuple[Cell, ...] = ()

    @property
    def serving(self) -> bool:
        return not self.cells


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pa-relational",
            why="AA/andersen-6 + CSPA/cspa-httpd: mutual recursion, large deltas; "
            "wall sits in execute_ast/dedup/set-difference, none in PBME, IVM or WAL",
            heavy="cspa-httpd",
            light="aa-andersen6",
            cells=(
                Cell("aa-andersen6", "AA", "andersen-6", "andersen-3", oracle="souffle"),
                Cell("cspa-httpd", "CSPA", "cspa-httpd", "cspa-httpd", oracle="souffle"),
            ),
        ),
        Workload(
            name="graph-pbme",
            why="TC/G1K + SG/G700 on the bit-matrix path: core.bitmatrix and the "
            "tuple read-out do the work, relational operators almost none",
            heavy="sg-g700",
            light="tc-g1k",
            cells=(
                Cell("tc-g1k", "TC", "G1K", "G500"),
                Cell("sg-g700", "SG", "G700", "G500"),
            ),
        ),
        Workload(
            name="long-chain",
            why="TC on 400/300-cycles, PBME off: hundreds of tiny iterations, so "
            "per-statement overhead dominates; second cell is the only spill user",
            heavy="tc-cycle300-spill",
            light="tc-cycle400",
            cells=(
                Cell("tc-cycle400", "TC", "cycle-400", "cycle-300", {"pbme": PbmeMode.OFF}),
                Cell(
                    "tc-cycle300-spill",
                    "TC",
                    "cycle-300",
                    "cycle-300",
                    {"memory_budget": 550_000, "degradation": True},
                    spill=True,
                ),
            ),
        ),
        Workload(
            name="serve-mixed",
            why="QueryService over a durable TC/G500 view: point goals, insert and "
            "delete batches, then crash recovery; only user of IVM, WAL and magic sets",
            heavy="delete",
            light="insert",
        ),
    )
}

# -- serving ------------------------------------------------------------------

SERVE_DATASET = "G500"
#: One round = 16 closed-loop requests: 8 point goals, 7 insert batches
#: (4 arcs each) and 1 delete batch (1 existing arc).
ROUND_KINDS = ("point", "insert") * 7 + ("point", "delete")
OPS_PER_ROUND = {"point": 8, "insert": 7, "delete": 1}
UPDATES_PER_ROUND = OPS_PER_ROUND["insert"] + OPS_PER_ROUND["delete"]
INSERT_ARCS = 4
#: One point goal in four repeats an earlier source, so the demand cache
#: sees both hits and misses.
REPEAT_SHARE = 0.25
RECOVERIES = 3


def compact_rounds(smoke: bool) -> int:
    """Rounds between WAL compactions (``wal_compact_records`` / 8).

    The loop always ends one round past a compaction, so every recovery
    replays the same 8-record tail (7 insert batches, 1 delete batch) and
    ``recover_s`` does not depend on how many rounds the time limit let
    through.
    """
    return 2 if smoke else 4


def max_rounds(seconds: float, smoke: bool) -> int:
    """Upper bound on rounds (warm-up included) for a time limit.

    The oracle process must know every round count the loop can stop at
    before the loop runs; half a second per round is far below what a
    DRed delete on this view costs.
    """
    step = compact_rounds(smoke)
    return step * max(1, math.ceil(2.0 * seconds / step)) + 1


def stop_rounds(seconds: float, smoke: bool) -> list[int]:
    """Round counts (warm-up included) the serving loop may stop at."""
    step = compact_rounds(smoke)
    return list(range(step + 1, max_rounds(seconds, smoke) + 1, step))


@dataclass
class ServeOp:
    kind: str
    #: point: the bound source vertex.
    source: int = -1
    #: insert / delete: ``(rows, 2)`` arcs.
    rows: np.ndarray | None = None


def relabel(edb: dict[str, np.ndarray], seed: int) -> dict[str, np.ndarray]:
    """Permute vertex ids and shuffle rows; the id range is unchanged."""
    rng = np.random.default_rng([seed, 0])
    size = 1 + max(int(rows.max()) for rows in edb.values() if rows.size)
    permutation = rng.permutation(size).astype(np.int64)
    out = {}
    for name in sorted(edb):
        rows = permutation[np.asarray(edb[name], dtype=np.int64)]
        out[name] = np.ascontiguousarray(rows[rng.permutation(rows.shape[0])])
    return out


def cell_inputs(cell: Cell, seed: int, smoke: bool) -> dict[str, np.ndarray]:
    dataset = cell.smoke_dataset if smoke else cell.dataset
    return relabel(load_dataset(dataset, DATASET_SEED), seed)


def serve_inputs(
    seed: int, rounds: int
) -> tuple[np.ndarray, list[list[ServeOp]]]:
    """The view's base ``arc`` relation and ``rounds`` rounds of requests."""
    arc = relabel(load_dataset(SERVE_DATASET, DATASET_SEED), seed)["arc"]
    rng = np.random.default_rng([seed, 1])
    vertices = 1 + int(arc.max())
    live = [tuple(row) for row in arc.tolist()]
    present = set(live)
    sources: list[int] = []
    stream = []
    for _ in range(rounds):
        ops = []
        for kind in ROUND_KINDS:
            if kind == "point":
                if sources and rng.random() < REPEAT_SHARE:
                    source = sources[int(rng.integers(len(sources)))]
                else:
                    source = int(rng.integers(vertices))
                    sources.append(source)
                ops.append(ServeOp("point", source=source))
            elif kind == "insert":
                rows = rng.integers(vertices, size=(INSERT_ARCS, 2), dtype=np.int64)
                for row in map(tuple, rows.tolist()):
                    if row not in present:
                        present.add(row)
                        live.append(row)
                ops.append(ServeOp("insert", rows=rows))
            else:
                # swap-remove keeps the pick O(1) and deterministic
                index = int(rng.integers(len(live)))
                live[index], live[-1] = live[-1], live[index]
                row = live.pop()
                present.discard(row)
                ops.append(ServeOp("delete", rows=np.array([row], dtype=np.int64)))
        stream.append(ops)
    return arc, stream
