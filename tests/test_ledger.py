"""The model ledger: every entry measures exactly as ``tests/ledger.json`` says.

Beyond the equality, the behaviour the ledger's numbers stand for:
partitioning is modeled only, the constrained rung needs its spill tier,
maintenance and demand answering are exact and faster than the cold run.
"""

import statistics

import pytest

from tests.ledger import CONSTRAINED_NO_SPILL, ENTRIES, field_diff, load_ledger, measure

LEDGER = load_ledger()

#: Minimum cold/warm sim-time ratio: recompute over the median
#: maintenance batch, and full materialization over the point answer.
SPEEDUP_FLOORS = {"TC/G2K/update": 5.0, "TC/G2K/point": 3.0}


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry.name for entry in ENTRIES])
def test_ledger(entry):
    recorded = LEDGER[entry.name]
    measured = measure(entry)
    assert measured == recorded, "\n".join(field_diff(recorded, measured))
    if entry.kind == "evaluate":
        assert measured["status"] == ("oom" if entry.name == CONSTRAINED_NO_SPILL else "ok")
        if entry.name.endswith("/unpartitioned"):
            partitioned = LEDGER[entry.name.removesuffix("/unpartitioned")]
            assert measured["fixpoint_hash"] == partitioned["fixpoint_hash"]
    elif entry.kind == "maintain":
        batches, recompute = measured["batches"], measured["recompute"]
        assert {batch["status"] for batch in batches} == {"ok"}
        assert batches[-1]["fixpoint_hash"] == recompute["fixpoint_hash"]
        if entry.name in SPEEDUP_FLOORS:
            warm = statistics.median(batch["sim_seconds"] for batch in batches)
            assert recompute["sim_seconds"] >= SPEEDUP_FLOORS[entry.name] * warm
    elif entry.kind == "answer":
        answer, full = measured["answer"], measured["full"]
        assert answer["fixpoint_hash"] == measured["filtered_full_hash"]
        assert full["sim_seconds"] >= SPEEDUP_FLOORS[entry.name] * answer["sim_seconds"]
    else:
        assert set(measured["states"]) == {"done"}
