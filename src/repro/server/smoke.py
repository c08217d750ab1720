"""Serve-chaos smoke: N concurrent mixed queries under fault injection.

The CI gate for the serving layer. It submits a mixed workload
(TC / SG / AA — transitive closure, same-generation, Andersen) to a
small :class:`~repro.server.service.QueryService`, typically with
``REPRO_CHAOS_SEED`` arming deterministic fault injection, and asserts
the serving invariants:

* every accepted session reaches a terminal state, and every non-DONE
  terminal carries a structured failure document (no raw tracebacks);
* every rejection is a structured Overloaded response with a positive
  retry-after hint;
* every DONE session's fixpoint is byte-identical to a solo run of the
  same query under the same engine config.

Run it locally with::

    PYTHONPATH=src REPRO_CHAOS_SEED=20260806 python -m repro.server.smoke

Exits non-zero (with a JSON report on stdout either way) if any
invariant fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import RecStep, RecStepConfig
from repro.engine.kernels import unique_rows
from repro.programs import get_program
from repro.server import QueryRequest, QueryService, ServerConfig


def _edb(kind: str, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    if kind in ("TC", "SG"):
        return {"arc": rng.integers(0, 80, size=(240, 2)).astype(np.int64)}
    # Andersen points-to: four small relations.
    def rel(count: int) -> np.ndarray:
        return unique_rows(rng.integers(0, 25, size=(count, 2)))

    return {
        "addressOf": rel(18),
        "assign": rel(16),
        "load": rel(7),
        "store": rel(7),
    }


#: Quota for the spill-heavy TC entries: tight enough that the cycle
#: fixpoint (90000 rows) only completes by evicting cold prefixes.
SPILL_QUOTA = 550_000
SPILL_CYCLE_NODES = 300


def _cycle(n: int) -> np.ndarray:
    src = np.arange(n, dtype=np.int64)
    return np.stack([src, (src + 1) % n], axis=1)


def build_workload(
    queries: int, memory_quota: int = int(128e6), spill_heavy: bool = False
) -> list[QueryRequest]:
    programs = ("TC", "SG", "AA")
    workload = []
    for index in range(queries):
        name = programs[index % len(programs)]
        edb = _edb(name, seed=1000 + index)
        quota = memory_quota
        if spill_heavy and name == "TC":
            # Base-dominated workload under a quota it cannot fit in
            # resident: OOM without a spill tier, done with one.
            edb = {"arc": _cycle(SPILL_CYCLE_NODES)}
            quota = SPILL_QUOTA
        workload.append(
            QueryRequest(
                program=get_program(name),
                edb_data=edb,
                dataset=f"smoke-{index}",
                # Modest explicit quotas: enough for these graphs, small
                # enough that the bounded queue (not just the memory
                # watermark) shapes the burst.
                memory_quota=quota,
            )
        )
    return workload


def run_smoke(
    queries: int = 9,
    queue_limit: int = 4,
    verbose: bool = True,
    spill_root: str | None = None,
    memory_quota: int | None = None,
) -> dict:
    """Run the smoke workload; returns the report with a ``violations`` list.

    With ``spill_root`` the service hands every session a per-session
    spill directory (pair it with a tight ``memory_quota`` so the spill
    rung actually engages); solo reruns get their own spill directory so
    the fixpoint-identity check compares like with like.
    """
    engine_config = RecStepConfig()  # fault_seed defaults from REPRO_CHAOS_SEED
    service = QueryService(
        ServerConfig(
            max_concurrent=2, queue_limit=queue_limit, spill_root=spill_root
        ),
        engine_config=engine_config,
    )
    workload = build_workload(
        queries,
        memory_quota=memory_quota if memory_quota is not None else int(128e6),
        spill_heavy=spill_root is not None,
    )
    violations: list[str] = []
    accepted: list[tuple[str, QueryRequest]] = []
    rejected = 0

    for index, request in enumerate(workload):
        response = service.submit(request)
        if response["accepted"]:
            accepted.append((response["session_id"], request))
        else:
            rejected += 1
            if not response.get("overloaded"):
                violations.append(f"rejection without overloaded flag: {response}")
            if response.get("retry_after_seconds", 0) <= 0:
                violations.append(f"rejection without retry hint: {response}")
        # Bursty arrivals: several submissions land at the same service
        # instant (so the bounded queue actually fills and sheds load),
        # then the loop catches up — the way a real front door sees
        # traffic spikes between scheduler ticks.
        if (index + 1) % 5 == 0:
            service.pump()
    report = service.drain()
    if rejected == 0:
        violations.append("burst never tripped admission control")

    for session_id, request in accepted:
        doc = service.status(session_id)
        state = doc["state"]
        if state not in ("done", "failed", "cancelled", "shed"):
            violations.append(f"{session_id}: non-terminal state {state!r}")
            continue
        if state != "done":
            failure = doc.get("failure")
            if not isinstance(failure, dict) or "error" not in failure:
                violations.append(
                    f"{session_id}: terminal state {state!r} without a "
                    f"structured failure document: {failure!r}"
                )
            continue
        overrides: dict = {"memory_budget": doc["reserved_bytes"]}
        if spill_root is not None:
            overrides["spill_dir"] = str(Path(spill_root) / f"solo-{session_id}")
            overrides["degradation"] = True
        solo = RecStep(replace(engine_config, **overrides)).evaluate(
            request.program, request.edb_data, dataset=request.dataset
        )
        session = service.sessions.get(session_id)
        if solo.status != "ok":
            violations.append(
                f"{session_id}: solo rerun unexpectedly {solo.status}"
            )
        elif session.result.tuples != solo.tuples:
            violations.append(
                f"{session_id}: fixpoint diverges from the solo run"
            )

    spilled_sessions = sum(
        1 for s in service.sessions.all() if s.spilled_bytes > 0
    )
    report["smoke"] = {
        "queries": queries,
        "accepted": len(accepted),
        "rejected": rejected,
        "violations": violations,
        "fault_seed": engine_config.fault_seed,
        "spill_root": spill_root,
        "spilled_sessions": spilled_sessions,
    }
    if verbose:
        print(json.dumps(report["smoke"], indent=2))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.server.smoke",
        description="serve-chaos smoke: concurrent mixed queries, structured "
        "terminal states, solo-run-identical fixpoints",
    )
    parser.add_argument("--queries", type=int, default=9)
    parser.add_argument("--queue-limit", type=int, default=4)
    parser.add_argument(
        "--spill-root",
        default=None,
        metavar="DIR",
        help="give every session a per-session spill directory under DIR",
    )
    parser.add_argument(
        "--memory-quota",
        type=int,
        default=None,
        metavar="BYTES",
        help="explicit per-query quota (tighten it so the spill rung engages)",
    )
    args = parser.parse_args(argv)
    report = run_smoke(
        queries=args.queries,
        queue_limit=args.queue_limit,
        spill_root=args.spill_root,
        memory_quota=args.memory_quota,
    )
    return 1 if report["smoke"]["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
