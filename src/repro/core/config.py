"""RecStep configuration: every optimization is a switch.

The Figure 2/3 ablation turns each of these off one at a time; the
``no_op`` preset turns everything off (RecStep-NO-OP in the paper).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace

from repro.engine.metrics import DEFAULT_MEMORY_BUDGET, DEFAULT_TIME_BUDGET


def _env_chaos_seed() -> int | None:
    """Default fault seed from ``REPRO_CHAOS_SEED`` (chaos CI hook).

    When set, every RecStep evaluation in the process runs under
    deterministic fault injection with this seed — the CI chaos smoke
    job exercises the whole tier-1 suite this way. Unset (the normal
    case) means no injection. Raw :class:`~repro.engine.database.
    Database` use is unaffected either way.
    """
    raw = os.environ.get("REPRO_CHAOS_SEED", "").strip()
    return int(raw) if raw else None


class OofMode(enum.Enum):
    """Optimization-on-the-fly statistics policy (Section 5.1)."""

    ON = "on"        # targeted stats (sizes for joins) at each iteration
    NA = "na"        # never re-analyze: plans frozen at iteration 1
    FA = "fa"        # full ANALYZE of every updated table, every iteration


class PbmeMode(enum.Enum):
    """Parallel bit-matrix evaluation policy (Section 5.3)."""

    AUTO = "auto"    # use when the program matches TC/SG and the matrix fits
    ON = "on"        # force (raises if the program doesn't match)
    OFF = "off"


@dataclass(frozen=True)
class RecStepConfig:
    """All knobs of a RecStep evaluation."""

    threads: int = 20
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    time_budget: float = DEFAULT_TIME_BUDGET
    enforce_budgets: bool = True

    profile: bool = False            # span tracer + counters (repro.obs)

    uie: bool = True                 # unified IDB evaluation
    oof: OofMode = OofMode.ON        # optimization on the fly
    dsd: bool = True                 # dynamic set difference
    eost: bool = True                # evaluation as one single transaction
    fast_dedup: bool = True          # CCK-GSCHT deduplication
    pbme: PbmeMode = PbmeMode.AUTO   # bit-matrix evaluation
    sg_coordination: bool = False    # Figure 7's SG-PBME-COORD variant
    join_cache: bool = True          # iteration-persistent join indexes
    partitioned_exec: bool = True    # radix-partitioned join/dedup/setops

    # -- resilience (repro.resilience) ------------------------------------
    fault_seed: int | None = field(default_factory=_env_chaos_seed)
    # ^ arm deterministic fault injection (default: REPRO_CHAOS_SEED env)
    fault_rate: float = 0.02         # per-visit fault probability
    degradation: bool = False        # memory-pressure degradation ladder
    spill_dir: str | None = None     # spill-to-disk tier (arms the ladder)
    checkpoint_dir: str | None = None  # write checkpoints here
    checkpoint_every: int = 1        # iteration checkpoint interval
    resume_from: str | None = None   # checkpoint file/dir to resume from
    deadline: float | None = None    # cooperative deadline (simulated s)
    # Runtime divergence guard (repro.resilience.guards): budgets on the
    # live semi-naive loop for programs that may not converge.
    max_iterations: int | None = None  # productive-iteration budget
    max_total_rows: int | None = None  # cumulative delta-row budget

    def without(self, optimization: str) -> "RecStepConfig":
        """A copy with one optimization disabled (ablation helper).

        ``optimization`` is one of: "uie", "oof" (alias "oof-na"),
        "oof-fa", "dsd", "eost", "fast_dedup", "pbme", "join_cache",
        "partitioned_exec".
        """
        key = optimization.lower().replace("-", "_")
        if key == "uie":
            return replace(self, uie=False)
        if key in ("oof", "oof_na"):
            return replace(self, oof=OofMode.NA)
        if key == "oof_fa":
            return replace(self, oof=OofMode.FA)
        if key == "dsd":
            return replace(self, dsd=False)
        if key == "eost":
            return replace(self, eost=False)
        if key == "fast_dedup":
            return replace(self, fast_dedup=False)
        if key == "pbme":
            return replace(self, pbme=PbmeMode.OFF)
        if key == "join_cache":
            return replace(self, join_cache=False)
        if key == "partitioned_exec":
            return replace(self, partitioned_exec=False)
        raise ValueError(f"unknown optimization {optimization!r}")

    @classmethod
    def no_op(cls, **overrides) -> "RecStepConfig":
        """RecStep-NO-OP: every optimization disabled."""
        return cls(
            uie=False,
            oof=OofMode.NA,
            dsd=False,
            eost=False,
            fast_dedup=False,
            pbme=PbmeMode.OFF,
            join_cache=False,
            partitioned_exec=False,
            **overrides,
        )
