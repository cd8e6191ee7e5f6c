"""Pin the answer digests of the default seeds into perfbench/digests.json.

    python3 perfbench/pin_digests.py [--seeds 0-31] [--workload NAME ...]

Runs one repetition of each workload per seed, in a fresh interpreter, and
refuses to pin when any answer fails the reference checks. Re-run it only
when a change is meant to alter an answer, and say so in that change: a
benchmark run whose seed is pinned counts every differing answer as a
failed op.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run
import workloads

PATH = os.path.join(run.HERE, "digests.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="first-last, inclusive")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    with open(PATH) as f:
        pinned = json.load(f)
    for name in args.workload or workloads.WORKLOADS:
        for seed in range(lo, hi + 1):
            ops = workloads.build(name, seed)
            payload = json.dumps([{k: v for k, v in op.items() if k != "expect"}
                                  for op in ops])
            rep, err = run.run_rep(payload, None, time.monotonic() + 600)
            if rep is None:
                sys.exit("%s seed %d: %s" % (name, seed, err))
            scorer = run.Scorer(ops)
            scorer.score(rep["results"])
            if scorer.failed:
                sys.exit("%s seed %d fails the gate: %s" % (name, seed, scorer.failures))
            pinned.setdefault(name, {})[str(seed)] = scorer.digests()
            print(name, seed, "pinned", flush=True)
    with open(PATH, "w") as f:
        json.dump(pinned, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
