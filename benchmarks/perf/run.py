"""Command line of the wall-clock benchmark.

One workload, as the driver runs it (last line of stdout is the result)::

    python3 benchmarks/perf/run.py --workload pa-relational --seed 7 --seconds 20 --trace 0

All four workloads, each in its own child process, one after another
(``--trace 1`` adds a traced run of each)::

    python3 benchmarks/perf/run.py --seed 7

Two result directories side by side::

    python3 benchmarks/perf/run.py compare benchmarks/perf/out /elsewhere/out
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

STARTED = perf_counter()  # setup_s counts the imports below

#: Run hygiene, fixed before the interpreter that measures starts: one
#: thread per numeric library, and glibc malloc told to serve every size
#: from a heap it never trims. With the default policy each NumPy
#: temporary above 128 KiB is a fresh mmap, and a third of a relational
#: evaluation's wall is the kernel zeroing those pages - the noisiest part
#: of a virtual machine, and not this repository's code.
PINNED_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
    "MALLOC_TOP_PAD_": str(1 << 28),
}


def pin_environment() -> None:
    """Re-exec once with the pinned environment (and no fault injection)."""
    if "REPRO_CHAOS_SEED" not in os.environ and all(
        os.environ.get(key) == value for key, value in PINNED_ENVIRONMENT.items()
    ):
        return
    os.environ.update(PINNED_ENVIRONMENT)
    os.environ.pop("REPRO_CHAOS_SEED", None)
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, *sys.argv])


if __name__ == "__main__":
    pin_environment()

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __package__ in (None, ""):
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _print_metrics(document: dict) -> None:
    summary = document["summary"]
    print(
        f"== {document['workload']} seed={document['seed']} scope={document['scope']} "
        f"trace={document['trace']}: {summary['attempted']} operations, "
        f"{summary['failed']} failed, samples {summary['samples']}"
    )
    for name, entry in summary["metrics"].items():
        print(f"  {name:<42} {entry['value']:>16.6f} {entry['unit']}")


def run_one(args) -> int:
    from benchmarks.perf import harness

    document = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, STARTED
    )
    _print_metrics(document)
    summary = document["summary"]
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0 if summary["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own child process, sequentially."""
    status = 0
    for trace in (0, 1) if args.trace else (0,):
        for workload in BENCHMARK["workloads"]:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"],
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]  # fmt: skip
            if args.smoke:
                command.append("--smoke")
            status |= subprocess.run(command, cwd=ROOT).returncode
    print("all outputs match the oracle" if status == 0 else "FAILED: see above")
    return status


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.perf import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"time limit of the measured loop (default {BENCHMARK['run_seconds']}; 0 with --smoke)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small datasets and the fewest passes: checks the harness, measures nothing",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(BENCHMARK["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
