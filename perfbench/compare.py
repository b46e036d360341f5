"""Compare two sets of benchmark runs, metric by metric, against the bounds.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds the records ``run.py --out FILE`` appends, any number of
runs per workload. Per workload and metric it prints each side's median
and quartile spread (q3 - q1 over the median, as ``statistics.quantiles``
gives them). With two files it also prints how much worse the second
median is than the first, against the metric's bound in BENCHMARK.json:
``REGRESSED`` past the bound, ``ok`` within it. Per-layer metrics (traced
runs) have no bound and are printed for reading only.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """(workload, trace) -> {"metrics": {name: [values]}, "failed": [...], "attempted": [...]}"""
    runs: dict = defaultdict(lambda: {"metrics": defaultdict(list), "failed": [], "attempted": []})
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            info, result = record["info"], record["result"]
            side = runs[(info["workload"], info["trace"])]
            side["failed"].append(result["failed"])
            side["attempted"].append(result["attempted"])
            for name, metric in result["metrics"].items():
                side["metrics"][name].append(metric["value"])
    return runs


def spread(values: list) -> float:
    """Quartile distance over the median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``base`` (negative: better)."""
    if not base:
        return 0.0
    return (base - new) / base if better == "higher" else (new - base) / base


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = [load(p) for p in argv]
    regressed = False
    for key in sorted(set().union(*sides)):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'})")
        for i, side in enumerate(sides):
            if key in side:
                runs = side[key]
                share = [f / a for f, a in zip(runs["failed"], runs["attempted"])]
                print(f"  side {i + 1}: {len(runs['failed'])} runs, failed share "
                      f"{min(share):.6f}..{max(share):.6f}")
        names = sorted(set().union(*(s[key]["metrics"] for s in sides if key in s)))
        print(f"  {'metric':<40} {'median 1':>12} {'spread 1':>9}"
              + (f" {'median 2':>12} {'spread 2':>9} {'worse by':>9} {'bound':>6}"
                 if len(sides) == 2 else ""))
        for name in names:
            cols = []
            medians = []
            for side in sides:
                values = side[key]["metrics"].get(name, []) if key in side else []
                med = statistics.median(values) if values else float("nan")
                medians.append(med)
                cols.append(f"{med:>12.4g} {spread(values):>8.1%}")
            line = f"  {name:<40} " + " ".join(cols)
            if len(sides) == 2 and name in bounds and not trace:
                bound = bounds[name]["bound"]
                if any(math.isnan(m) for m in medians):
                    print(line + "  (one side has no runs)")
                    continue
                worse = worse_by(medians[0], medians[1], bounds[name]["better"])
                verdict = "REGRESSED" if worse > bound else "ok"
                regressed |= worse > bound
                line += f" {worse:>8.1%} {bound:>6.0%} {verdict}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
