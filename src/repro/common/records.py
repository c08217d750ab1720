"""Result record types shared by engines, the harness, and the benches."""

from __future__ import annotations

import itertools
from collections.abc import Set
from dataclasses import dataclass, field

import numpy as np

#: Rows converted per step of :func:`rows_to_set`: bounds the boxed-int
#: lists alive at once, so reading out a large fixpoint does not lift the
#: process's peak RSS.
_READOUT_CHUNK_ROWS = 1 << 16


def _boxed_chunks(rows):
    """Tuples of plain ``int``, one iterator per bounded row chunk.

    Column-wise ``tolist()`` + ``zip`` — about half the time of a
    per-element ``int()``.
    """
    count, width = rows.shape
    if width == 0:
        yield [()] if count else []
        return
    for start in range(0, count, _READOUT_CHUNK_ROWS):
        chunk = rows[start : start + _READOUT_CHUNK_ROWS]
        yield zip(*(chunk[:, column].tolist() for column in range(width)))


def rows_to_set(rows) -> set[tuple[int, ...]]:
    """A 2-D integer array as a set of tuples of plain ``int``."""
    result: set[tuple[int, ...]] = set()
    for chunk in _boxed_chunks(rows):
        result.update(chunk)
    return result


class Relation(Set):
    """A relation's unique rows, an ``(n, arity)`` int64 array, as a set.

    The rows keep the engine's order. Iteration boxes them chunk by
    chunk; ``==`` against a set and the ``<=`` / ``|`` family come from
    ``collections.abc.Set``, and ``_from_iterable`` makes the operators
    build a plain ``set``. Two relations compare their lexicographically
    sorted rows without boxing.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self._sorted: np.ndarray | None = None
        self._boxed: set[tuple[int, ...]] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return itertools.chain.from_iterable(_boxed_chunks(self.rows))

    def __contains__(self, row) -> bool:
        if self._boxed is None:
            self._boxed = rows_to_set(self.rows)
        return row in self._boxed

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return super().__eq__(other)
        if not len(self) or not len(other):
            return len(self) == len(other)
        return np.array_equal(self.sorted_rows(), other.sorted_rows())

    @classmethod
    def _from_iterable(cls, iterable) -> set:
        return set(iterable)

    def sorted_rows(self) -> np.ndarray:
        """The rows in lexicographic order (computed once)."""
        if self._sorted is None:
            # repro.engine imports this module through its database.
            from repro.engine.kernels import unique_rows

            self._sorted = unique_rows(self.rows)
        return self._sorted


@dataclass(frozen=True)
class TraceSample:
    """One sample on the simulated time axis."""

    time: float
    value: float


@dataclass
class Trace:
    """A named time series (memory usage, CPU utilization, delta sizes...).

    Stored as two flat float lists — the recorder appends tens of
    thousands of samples per evaluation; :attr:`samples` builds the
    :class:`TraceSample` view on read.
    """

    name: str
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    @property
    def samples(self) -> list[TraceSample]:
        return [TraceSample(time, value) for time, value in zip(self.times, self.values)]

    def peak(self) -> float:
        return max(self.values, default=0.0)

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def final(self) -> float:
        return self.values[-1] if self.values else 0.0

    def as_tuples(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))


@dataclass
class EvaluationResult:
    """Outcome of evaluating one Datalog program on one engine.

    Attributes:
        engine: engine display name ("RecStep", "Souffle", ...).
        program: program name ("TC", "CSPA", ...).
        dataset: dataset label ("G1K", "httpd", ...).
        tuples: fixpoint contents, relation name -> a :class:`Relation`
            (RecStep) or a set of tuples (the baselines); sizes via
            ``sizes``.
        sim_seconds: simulated elapsed time (see common.timing).
        iterations: number of semi-naive iterations across all strata.
        peak_memory_bytes: peak of the modeled memory footprint.
        memory_trace: memory footprint over simulated time.
        cpu_trace: CPU utilization (0..1) over simulated time.
        status: "ok", "oom", "timeout", "cancelled", "deadline",
            "guard", "fault", or "unsupported".
        unsupported_reason: set when status is "unsupported".
        failure: structured context of the error that ended a non-ok run
            (``RecStepError.to_dict()``: error class, message, stratum,
            iteration, modeled bytes...), always carrying a ``kind``
            discriminator ("deadline", "max_iterations", "oom", ...).
            None for ok runs.
        resilience: recap of resilience activity (faults injected per
            site, degradations taken, checkpoints written). None when no
            resilience feature was engaged.
    """

    engine: str
    program: str
    dataset: str
    tuples: dict[str, "object"] = field(default_factory=dict)
    sim_seconds: float = 0.0
    iterations: int = 0
    peak_memory_bytes: int = 0
    #: Peak of the transient (operator scratch) component alone — the
    #: share of the peak that vanishes between statements.
    peak_transient_bytes: int = 0
    memory_trace: Trace | None = None
    cpu_trace: Trace | None = None
    status: str = "ok"
    unsupported_reason: str = ""
    detail: dict[str, float] = field(default_factory=dict)
    #: Populated when the engine ran with profiling enabled; holds a
    #: repro.obs.report.ProfileReport (typed loosely to keep this module
    #: dependency-free).
    profile: object | None = None
    #: Host wall-clock seconds the evaluation took (None when not measured).
    wall_seconds: float | None = None
    #: Structured failure context for non-ok runs (RecStepError.to_dict()).
    failure: dict | None = None
    #: Resilience recap: fault ledger, degradations, checkpoint activity.
    resilience: dict | None = None
    #: Relation sizes of a fixpoint whose tuple sets were not read out
    #: (a view recovered from its durable base); None: ``tuples`` has them.
    idb_sizes: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def sizes(self) -> dict[str, int]:
        if self.idb_sizes is not None:
            return dict(self.idb_sizes)
        return {name: len(rows) for name, rows in self.tuples.items()}
