#!/usr/bin/env python3
"""Run the demo scenario through the full stack and dump every artifact.

Writes into the output directory:

    metrics.json         the deterministic metrics report
    trajectory.jsonl     one JSON object per control step
    dispatch_trace.jsonl one JSON object per processed mode event
    env_store.jsonl      the environment records the run ingested
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dfp.cli import parse_duration, parse_seed  # noqa: E402
from dfp.config import load_config  # noqa: E402
from dfp.runtime import Stack  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config",
                        default=os.path.join(os.path.dirname(__file__), "..",
                                             "configs", "demo.json"))
    parser.add_argument("--seed", type=parse_seed, default=None)
    parser.add_argument("--duration", type=parse_duration, default=None)
    parser.add_argument("--out", default="demo_out")
    args = parser.parse_args()

    config = load_config(args.config)
    stack = Stack(config, seed=args.seed)
    result = stack.run_scenario(duration=args.duration)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        fh.write(result.metrics_json())
    with open(os.path.join(args.out, "trajectory.jsonl"), "w") as fh:
        for point in result.trajectory:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    with open(os.path.join(args.out, "dispatch_trace.jsonl"), "w") as fh:
        fh.write(stack.coordinator.trace_jsonl() + "\n")
    stack.env.dump_jsonl(os.path.join(args.out, "env_store.jsonl"))

    acc = result.metrics.get("acc") or {}
    print(f"steps: {acc.get('steps')}  min gap: {acc.get('min_gap_m')} m  "
          f"final gap error: {acc.get('final_gap_error_m')} m  "
          f"mode: {result.metrics['fsm']['mode']}")
    if result.fault:
        print(f"fault: {result.fault}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
