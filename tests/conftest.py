"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import PbmeMode, RecStep, RecStepConfig

#: The service state machine's larger example budget, for the
#: serve-chaos CI job (``--hypothesis-profile=serve-chaos``); tier-1
#: runs it with a small budget of its own.
settings.register_profile("serve-chaos", max_examples=200, stateful_step_count=40)


@pytest.fixture
def tiny_graph() -> np.ndarray:
    """A 5-vertex DAG whose closure is easy to eyeball."""
    return np.array([[0, 1], [1, 2], [2, 3], [0, 3], [3, 4]], dtype=np.int64)


@pytest.fixture
def random_graph() -> np.ndarray:
    """A small random digraph (fixed seed) for cross-engine equivalence."""
    rng = np.random.default_rng(42)
    edges = np.unique(rng.integers(0, 15, size=(40, 2)), axis=0)
    return edges[edges[:, 0] != edges[:, 1]]


@pytest.fixture
def recstep_unbudgeted() -> RecStep:
    """RecStep with budgets off and PBME off (pure relational path)."""
    return RecStep(RecStepConfig(enforce_budgets=False, pbme=PbmeMode.OFF))


def reference_closure(edges) -> set[tuple[int, int]]:
    """Brute-force transitive closure (the oracle used across tests)."""
    facts = {(int(a), int(b)) for a, b in edges}
    while True:
        new = {(a, d) for (a, b) in facts for (c, d) in facts if b == c} - facts
        if not new:
            return facts
        facts |= new


def reference_same_generation(edges) -> set[tuple[int, int]]:
    """Brute-force same-generation fixpoint over ``arc(parent, child)``."""
    children: dict[int, set[int]] = {}
    for parent, child in edges:
        children.setdefault(int(parent), set()).add(int(child))
    facts = {
        (x, y) for siblings in children.values() for x in siblings for y in siblings if x != y
    }
    while True:
        new = {
            (x, y)
            for (a, b) in facts
            for x in children.get(a, ())
            for y in children.get(b, ())
        } - facts
        if not new:
            return facts
        facts |= new


def aa_chain(n_vars: int, n_objs: int) -> dict[str, np.ndarray]:
    """An assignment chain: pts grows by one variable per iteration."""
    assign = np.array([(i + 1, i) for i in range(n_vars - 1)], dtype=np.int64)
    address = np.array([(0, n_vars + j) for j in range(n_objs)], dtype=np.int64)
    empty = np.empty((0, 2), dtype=np.int64)
    return {"addressOf": address, "assign": assign, "load": empty, "store": empty}
