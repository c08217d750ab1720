"""Shared graph-generation helpers."""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import unique_rows


def clean_edges(edges: np.ndarray, allow_self_loops: bool = False) -> np.ndarray:
    """Deduplicate an edge list and (by default) drop self-loops."""
    if edges.shape[0] == 0:
        return edges.astype(np.int64).reshape(0, 2)
    edges = unique_rows(np.asarray(edges, dtype=np.int64))
    if not allow_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    return edges


def with_weights(
    edges: np.ndarray, rng: np.random.Generator, low: int = 1, high: int = 100
) -> np.ndarray:
    """Append a uniform random integer weight column (for SSSP)."""
    weights = rng.integers(low, high, size=(edges.shape[0], 1), dtype=np.int64)
    return np.hstack([edges, weights])


def num_vertices(edges: np.ndarray) -> int:
    if edges.shape[0] == 0:
        return 0
    return int(edges[:, :2].max()) + 1


def degree_histogram(edges: np.ndarray) -> np.ndarray:
    """Out-degree per vertex (diagnostics and tests)."""
    n = num_vertices(edges)
    return np.bincount(edges[:, 0], minlength=n)
