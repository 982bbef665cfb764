"""Pin the CSV rows the benchmark checks its runs against.

    python3 perfbench/pin.py --seeds 1,2 [--workload desk ...]

Runs each (workload, seed) once, untraced, and writes its CSV row and row
digest into ``pinned.json``, keeping the pins it does not replace.  Re-pin
only in a change that declares a behaviour change: a pin is what makes a
changed ``metrics.csv`` row count as a failed run.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import PINNED_PATH, check_run, spawn, workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, e.g. 1,2")
    parser.add_argument("--workload", action="append", choices=workloads(),
                        help="workload to pin (repeatable; default all)")
    args = parser.parse_args(argv)

    pins = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.exists() else {}
    for workload in args.workload or workloads():
        for seed in (int(s) for s in args.seeds.split(",")):
            result = spawn("run", workload, seed, timeout=600)
            problems = check_run(result, reference=None)
            if problems:
                print(f"{workload} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            pins.setdefault(workload, {})[str(seed)] = {
                "digest": result["digest"], "row": result["row"]}
            print(f"{workload} seed {seed}: {result['digest']}", flush=True)
            PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
