"""Regenerate reference.json: each workload's per-input outputs at the default seed.

    python3 perfbench/record_reference.py

Runs every op of every workload once with seed 0 and stores what the output
checks compare on later runs with that seed: per-input ``fragments`` and
``excluded_triangles`` (geo-*), the sampled tokens per CLI seed (sample) and
the final DPO loss (dpo).  Re-record only when a change is meant to alter
these outputs, and say so in CHANGES.md.
"""

import json
import os
import sys
import time

import run


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        deadline = time.monotonic() + run.DEADLINE_S
        result = run.spawn(workload, run.DEFAULT_SEED, 0.0, "record", deadline)
        reference[workload] = result["observations"]
    with open(os.path.join(run.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
