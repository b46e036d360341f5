"""dfpctl: run configured systems, benchmark the transport, query records.

Exit codes: 0 clean, 1 runtime fault (partial report still written),
2 configuration failure (diagnostic on stderr). DFP_LOG selects log
verbosity (error, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from dfp import ConfigurationError
from dfp.bench import DEFAULT_SIZES, format_table, run_bench
from dfp.config import load_config
from dfp.envmodel import EmptyQuery, EnvModelError, EnvStore, OddQuery
from dfp.middleware import PayloadTooLarge
from dfp.runtime import Stack

log = logging.getLogger("dfp.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("DFP_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes or any(s < 0 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _parse_samples(text: str) -> int:
    try:
        samples = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sample count {text!r}")
    if samples < 1:
        raise argparse.ArgumentTypeError(f"bad sample count {text!r} (want at least 1)")
    return samples


def parse_seed(text: str) -> int:
    """A run seed: an int in [0, 2**64), as a config's ``seed`` is."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}")
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError(f"bad seed {text!r} (want an int in [0, 2**64))")
    return seed


def parse_duration(text: str) -> float:
    """A run duration in seconds: a finite number > 0, as a config's ``duration`` is."""
    try:
        duration = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}")
    if not 0 < duration < math.inf:
        raise argparse.ArgumentTypeError(f"bad duration {text!r} (want a finite number > 0)")
    return duration


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfpctl",
        description="Assemble the layered stack from a config, run scenarios, "
                    "benchmark the transport, query the environment store.")
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="run the configured system")
    run_p.add_argument("--config", required=True, help="path to the system config JSON")
    run_p.add_argument("--duration", type=parse_duration, default=None,
                       help="override the scenario duration, seconds")
    run_p.add_argument("--seed", type=parse_seed, default=None, help="override the run seed")
    run_p.add_argument("--out", default=None, help="write the metrics report here")

    bench_p = commands.add_parser("bench", help="transport latency benchmark")
    bench_p.add_argument("--sizes", type=_parse_sizes,
                         default=list(DEFAULT_SIZES),
                         help="comma-separated payload sizes in bytes")
    bench_p.add_argument("--samples", type=_parse_samples, default=10_000,
                         help="samples per size and path")

    query_p = commands.add_parser("query-env", help="fuzzy-query a record log")
    query_p.add_argument("--store", required=True, help="path to a JSONL record log")
    query_p.add_argument("--tokens", nargs="+", required=True, help="query words")
    return parser


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        stack = Stack(config, seed=args.seed)
    except ConfigurationError as exc:
        print(f"dfpctl: config error: {exc}", file=sys.stderr)
        return 2
    result = stack.run_scenario(duration=args.duration)
    report = result.metrics_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    acc = result.metrics.get("acc")
    if acc:
        print(f"run: {acc['steps']} steps, min gap {acc['min_gap_m']:.3f} m, "
              f"final gap error {acc['final_gap_error_m']:.3f} m", file=sys.stderr)
    if result.fault is not None:
        print(f"dfpctl: runtime fault: {result.fault}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    try:
        rows = run_bench(sizes=args.sizes, samples=args.samples)
    except PayloadTooLarge as exc:
        print(f"dfpctl: {exc}", file=sys.stderr)
        return 1
    print(format_table(rows))
    return 0


def cmd_query_env(args) -> int:
    try:
        store = EnvStore.open(args.store)
    except (OSError, ValueError, EnvModelError) as exc:
        print(f"dfpctl: cannot read store: {exc}", file=sys.stderr)
        return 2
    try:
        records = store.query(OddQuery(tuple(args.tokens)))
    except EmptyQuery as exc:
        print(f"dfpctl: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print(json.dumps(rec.to_json_obj(), sort_keys=True))
    return 0


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "query-env":
        return cmd_query_env(args)
    return 2  # unreachable with required subparsers


if __name__ == "__main__":
    sys.exit(main())
