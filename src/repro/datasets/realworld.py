"""Proxies for the paper's real-world graphs.

livejournal, orkut, arabic and twitter are multi-GB downloads; offline we
substitute R-MAT graphs whose vertex count, edge count, and skew are the
originals scaled by ~1/100 (arabic, twitter by 1/200 to keep the largest
runs minutes, not hours). What the experiments exercise — relative sizes,
heavy-tailed degrees, and the memory envelope that OOMs Souffle and
BigDatalog on the two biggest graphs — survives the scaling.

    name         original (V, E)        proxy (V, E-draws)
    livejournal  4.8 M,  69 M           48 K, 690 K
    orkut        3.1 M, 117 M           31 K, 1.17 M
    arabic        23 M, 640 M          115 K, 3.2 M
    twitter       42 M, 1.47 B         210 K, 7.35 M
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import derive_seed
from repro.datasets.rmat import rmat_graph

#: proxy vertex count and R-MAT edge factor per graph.
REALWORLD_SPECS: dict[str, tuple[int, int]] = {
    "livejournal": (48_000, 15),
    "orkut": (31_000, 38),
    "arabic": (115_000, 28),
    "twitter": (210_000, 35),
}


def realworld_graph(name: str, seed: int = 0) -> np.ndarray:
    """Edge list of the named real-world proxy."""
    try:
        n, edge_factor = REALWORLD_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown real-world graph {name!r}; available: {sorted(REALWORLD_SPECS)}"
        ) from None
    return rmat_graph(n, edge_factor=edge_factor, seed=derive_seed(seed, name))

