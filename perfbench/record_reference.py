"""Re-records ``reference.json``: the exact output of every operation of every
workload, from one untimed pass of the current library at the default seed.

    python3 perfbench/record_reference.py

The benchmark counts any later difference from these outputs as a failed
operation, so re-record only in a change whose purpose is to change outputs,
and say so in that change.
"""

import json

from run import DEFAULT_SEED, HERE, WORKLOADS, worker


def main():
    reference = {}
    for workload in WORKLOADS:
        seed = None if workload == "paper-panels" else DEFAULT_SEED
        outcomes = worker(workload, DEFAULT_SEED, 0.0, "e2e")["outcomes"]
        reference[workload] = {"seed": seed, "outcomes": outcomes}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {sum(len(r['outcomes']) for r in reference.values())} outcomes")


if __name__ == "__main__":
    main()
