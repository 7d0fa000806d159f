"""Regenerate the committed reference outputs under bench/reference/.

    python3 bench/make_reference.py [workload ...]

Writes batch 0 of the default and the held-out seed for each workload.
Only regenerate when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import sys

import gate
from run import import_engine
from workloads import REFERENCE_SEEDS, WORKLOADS


def main(names) -> int:
    engine = import_engine()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        entries = {}
        for seed in REFERENCE_SEEDS:
            result = engine.run_scenario(workload.scenario(seed),
                                         workload.workers)
            entries[str(seed)] = gate.reference_entry(
                result, engine.results_to_csv(result))
        gate.reference_path(name).write_text(
            json.dumps(entries, separators=(",", ":")) + "\n")
        print(f"wrote {gate.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
