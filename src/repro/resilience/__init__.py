"""Resilient evaluation: fault injection, retries, checkpoints, degradation.

The package that turns the paper's DNF cells into survivable events:

* :mod:`repro.resilience.faults` — deterministic, seeded fault injection
  at named engine sites (worker failures, transient storage errors,
  memory-pressure spikes);
* :mod:`repro.resilience.retry` — exponential backoff accounted on the
  simulated clock;
* :mod:`repro.resilience.checkpoint` — snapshot/resume of semi-naive
  state at stratum/iteration boundaries;
* :mod:`repro.resilience.degradation` — the memory-pressure ladder
  (shed join cache → shed partitioning → lean dedup → spill cold
  tables → forced TPSD) answering the watermarks;
* :mod:`repro.resilience.guards` — the runtime guard: a deadline and
  divergence budgets polled at loop boundaries;
* :mod:`repro.resilience.runtime` — the per-evaluation context binding
  all of the above to a Database;
* :mod:`repro.resilience.wal` — append-only write-ahead logging of
  update batches for durable materialized views.
"""

from repro.resilience.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointState,
)
from repro.resilience.degradation import LADDER, DegradationController
from repro.resilience.faults import DEFAULT_FAULT_RATE, FAULT_SITES, FaultInjector
from repro.resilience.guards import GUARD_SOFT_FRACTION, RuntimeGuard
from repro.resilience.retry import RetryPolicy
from repro.resilience.runtime import ResilienceContext
from repro.resilience.wal import ViewDurability, WalError, WriteAheadLog

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "CheckpointState",
    "DEFAULT_FAULT_RATE",
    "DegradationController",
    "FAULT_SITES",
    "FaultInjector",
    "GUARD_SOFT_FRACTION",
    "LADDER",
    "ResilienceContext",
    "RetryPolicy",
    "RuntimeGuard",
    "ViewDurability",
    "WalError",
    "WriteAheadLog",
]
