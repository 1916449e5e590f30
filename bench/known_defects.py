"""Record the points workload's failing inputs at the current program.

Runs every entry of the points pool once with each method, checks the
outputs, and writes bench/known_defects.json: each failing argv list with
its reason, a nonzero exit or a value that misses its check.  run.py counts every
failure; a failure listed here with the same argv and reason is a known
defect and does not make the run incorrect, while any other failure does.

    python3 bench/known_defects.py
"""

import json
import os
import sys

import run
from check import Checker
from reference import ReferenceCache
from workloads import POINTS_METHODS, POINTS_POOL_SIZE, WORKLOADS

PATH = os.path.join(run.BENCH, "known_defects.json")


def main():
    workload = WORKLOADS["points"]
    ops = sorted(workload.ops(0, POINTS_POOL_SIZE * len(POINTS_METHODS)), key=lambda op: op["argv"])
    refs = ReferenceCache("points")
    refs.fill(workload.needed_points(ops))
    failed = {}
    for start in range(0, len(ops), 1024):
        chunk = ops[start:start + 1024]
        result = run.run_worker(chunk, False)["untraced"]
        for i, why in run.check_ops(workload, chunk, result, Checker(refs)).items():
            failed[start + i] = why
    entries = [json.dumps({"argv": ops[i]["argv"], "why": why}) for i, why in sorted(failed.items())]
    with open(PATH, "w") as fh:
        fh.write('{"points": {"ops": %d, "failed": [\n%s\n]}}\n' % (len(ops), ",\n".join(entries)))
    print("points: %d of %d ops fail (%.4f)" % (len(entries), len(ops), len(entries) / len(ops)))


if __name__ == "__main__":
    sys.exit(main())
