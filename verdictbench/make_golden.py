"""Write the golden report digests the benchmark checks against.

    python3 verdictbench/make_golden.py [SEED ...]

Run from the root of a checkout. For each workload seed (default: all of
them) runs every scenario of every workload once, requires exit code 0 and
verdict ``pass``, and writes ``golden/seed-NN.json``: ``"ID@n"`` -> sha256 of
the canonical ``--format machine`` report. Regenerate only for a deliberate
change to the canonical reports.
"""

import json
import os
import sys

import run


def main(argv) -> int:
    root = os.getcwd()
    seeds = [int(s) for s in argv] or range(run.GOLDEN_SEEDS)
    for seed in seeds:
        digests = {}
        for workload, calls in run.WORKLOADS.items():
            payload = run.run_pass(root, calls, seed)
            if payload["crash"] is not None:
                print(f"error: {workload} seed {seed}: {payload['crash']}", file=sys.stderr)
                return 1
            for call, res in zip(calls, payload["calls"]):
                if res["rc"] != 0 or res["verdict"] != "pass":
                    print(f"error: {call} seed {seed}: exit {res['rc']}, verdict "
                          f"{res['verdict']}, {res['error']}", file=sys.stderr)
                    return 1
                digests[call] = res["sha256"]
        path = run.golden_path(seed)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
