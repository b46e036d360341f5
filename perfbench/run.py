"""Run one benchmark workload; the last line of stdout is its result.

    python3 perfbench/run.py --workload acc_drive --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (from spans recorded around the program's public calls). The line
before the result carries the calibration figure, the figures before
scaling (``harness.at_reference_speed``), the chunk counts and the
reasons for failed checks; ``--out FILE`` also appends both lines to
FILE for ``compare.py``.
Exits non-zero, printing no result, when the checkout has no program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run's record to this JSONL file")
    args = parser.parse_args(argv)

    harness.require_program()
    workload = importlib.import_module(f"workloads.{args.workload}")
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        outcome.raw["unscaled"] = outcome.per_layer
    outcome.per_layer = harness.at_reference_speed(outcome.per_layer, harness.PER_LAYER,
                                                   outcome.calibration_ms)
    info = harness.info_line(args.workload, args.seed, args.seconds, bool(args.trace), outcome)
    result = harness.result_line(outcome, bool(args.trace))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
