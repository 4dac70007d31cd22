#!/usr/bin/env python3
"""Record the per-operation outcomes of every workload at the reference seed.

The benchmark compares each operation's outcome (makespan, Unsolved reason,
model sizes and checksums) with this record whenever it runs at the
reference seed; any difference fails the operation and the run.  Re-record
only for a change that is meant to alter outcomes, and say so.

    python3 benchmark/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEED = 0


def main() -> int:
    run.load_library()
    import calibration
    import workloads

    outcomes = {}
    workdir = os.path.join(run.OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name, wl in workloads.WORKLOADS.items():
            ops = wl.ops(workloads.write_instances(workloads.build(wl.plan(SEED)), workdir))
            probe = calibration.Probe()
            log = run.Log(ops, None, probe)
            run.run_passes(ops, log, 0.0, probe)
            outcomes[name] = {k: v.outcome for k, v in sorted(log.first.items())}
            print(f"{name}: {len(ops)} operations, {log.failed} failed, "
                  f"digest {log.digest()}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "outcomes": outcomes}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
