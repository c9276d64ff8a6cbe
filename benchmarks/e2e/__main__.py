"""``python -m benchmarks.e2e`` — the one command.

Without ``--workload`` it runs the suite: every workload untraced (the
end-to-end metrics) and again traced (the per-layer metrics), verifies
every answer, prints every metric by name with its unit, and appends
one stamped record to ``results/BENCH_e2e.json``.  ``--repeat K`` runs
K such sets and prints each metric's spread against its bound.

With ``--workload NAME`` it makes the one run the benchmark driver asks
for and ends with one JSON line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Exit status is non-zero when any operation failed or answered wrong.
"""

import argparse
import json
import os
import sys

from . import ROOT


def _pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0``.

    The workload generators and the methods iterate sets of strings, so
    both the generated graphs and the retrieval counts follow the hash
    seed; pinned, the same ``--seed`` gives the same inputs and the same
    counts in every process.  ``exec`` replaces this process: nothing is
    left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(
            sys.executable,
            [sys.executable, "-m", "benchmarks.e2e", *sys.argv[1:]],
        )


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"benchmarks.e2e: no src/repro under {ROOT}; the benchmark "
            "measures the checkout it runs in",
            file=sys.stderr,
        )
        return 2
    from .report import (
        append_record, check_snapshot, describe, driver_line, run_one,
        run_set, spreads, stamp,
    )
    from .workloads import NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES,
                        help="make one run of this workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the order and choice of operations")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured duration of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="driver mode: the traced run")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="suite mode: K full sets of the same code (A/A)")
    args = parser.parse_args(argv)

    if args.workload:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(result)))
        print(driver_line(result))
        return 0 if result["correct"] else 1

    sets = []
    for number in range(args.repeat):
        print(f"# set {number + 1} of {args.repeat}")
        sets.append(run_set(args.seed, args.seconds, NAMES))
    record = stamp(args.seed, args.seconds)
    record["sets"] = sets
    append_record(record)
    failed = sum(one["failed"] for each in sets for one in each.values())
    problems = [p for each in sets for one in each.values() for p in one["problems"]]
    problems += [m for each in sets for m in check_snapshot(each)]
    if args.repeat > 1:
        print("\n".join(spreads(sets)))
    print(f"# record appended: commit {record['commit']}, "
          f"loadavg {record['loadavg'][0]:.2f}, failed operations {failed}")
    for problem in problems:
        print(f"WRONG: {problem}")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
