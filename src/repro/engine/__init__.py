"""Parallel in-memory relational engine (the QuickStep stand-in).

``Database`` is the public entry point: it parses mini-SQL, binds it
against the catalog, plans joins with cost-based build-side selection,
executes vectorized NumPy kernels, and reports all work to one cost
model (``repro.engine.executor``) that owns the simulated multicore clock.
"""

from repro.engine.database import Database
from repro.engine.executor import ParallelCostModel
from repro.engine.metrics import MetricsRecorder

__all__ = ["Database", "ParallelCostModel", "MetricsRecorder"]
