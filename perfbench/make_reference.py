"""Regenerate ``reference.json``: the op digests at the default seed.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload, each in a fresh interpreter,
and records each op's digest.  Only regenerate after a change that is
meant to alter simulated results; the benchmark fails every op whose
digest moved.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, RUN_LIMIT_S, run_worker
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS:
        doc = run_worker(workload, DEFAULT_SEED, False, RUN_LIMIT_S)
        bad = [op for op in doc["ops"] if op["errors"] or not op["digest"]]
        if bad:
            print(f"{workload}: ops failed: {bad}", file=sys.stderr)
            return 1
        reference[workload] = {op["id"]: op["digest"] for op in doc["ops"]}
    with open(REFERENCE, "w") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
