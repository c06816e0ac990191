"""``compare``: two commits' result files, row by row.

One row per (end-to-end metric, workload): both medians, the ratio with
its base, the bound ``BENCHMARK.json`` fixes, and a verdict —

- ``worse``       the change's median is worse than the base's by more
                  than the bound;
- ``unresolved``  the run-to-run spread on either side is wider than the
                  bound, so "no regression" cannot be shown (unless every
                  run of the change beats every run of the base);
- ``better``      the change wins at least nine tenths of the pairs (ties
                  count for neither) and the medians differ by more than
                  the distance between the base's own quartiles;
- ``within``      anything else.

With one file a side there are no quartiles: a row is ``better`` or
``worse`` only past the bound.  Files pair up in the order given, so run
the two commits alternately and list them in that order.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from . import stats

ROOT = Path(__file__).resolve().parents[2]


def load(paths) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result file, untraced runs only."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return values


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, share by which the change's median is worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(base), statistics.median(change)
    worse_by = sign * (b - a) / abs(a)
    if min(len(base), len(change)) < 2:
        if worse_by > bound:
            return "worse", worse_by
        return ("better" if worse_by < -bound else "within"), worse_by
    if max(stats.quartile_spread(base), stats.quartile_spread(change)) > bound:
        clean_sweep = all(sign * (y - x) < 0 for x in base for y in change)
        return ("better" if clean_sweep else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, _, q3 = statistics.quantiles(base, n=4)
    if wins >= 0.9 * len(pairs) and abs(b - a) > q3 - q1:
        return "better", worse_by
    return "within", worse_by


def rows(base_files, change_files, spec: dict) -> list[dict]:
    base, change = load(base_files), load(change_files)
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            word, worse_by = verdict(base[key], change[key],
                                     metric["better"], metric["bound"])
            out.append({"workload": workload, "metric": metric["name"],
                        "unit": metric["unit"],
                        "base": statistics.median(base[key]),
                        "change": statistics.median(change[key]),
                        "n": (len(base[key]), len(change[key])),
                        "worse_by": worse_by, "bound": metric["bound"],
                        "verdict": word})
    return out


def cmd_compare(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py compare",
        description="Compare result files written by 'run'.")
    parser.add_argument("files", nargs="*", type=Path,
                        help="BASE.json CHANGE.json (exactly two)")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--change", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if args.files:
        if len(args.files) != 2 or args.base or args.change:
            parser.error("give BASE.json CHANGE.json, or --base ... --change ...")
        args.base, args.change = [args.files[0]], [args.files[1]]
    if not args.base or not args.change:
        parser.error("nothing to compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(args.base, args.change, spec)
    print(f"{'workload':<16} {'metric':<12} {'base':>12} {'change':>12} "
          f"{'change/base':>11} {'bound':>6}  verdict")
    for row in table:
        ratio = row["change"] / row["base"]
        print(f"{row['workload']:<16} {row['metric']:<12} "
              f"{row['base']:>12.5g} {row['change']:>12.5g} "
              f"{ratio:>6.3f}x of {row['base']:<.3g} {row['unit']:<3}"
              f"{row['bound']:>6.2f}  {row['verdict']}"
              f" (n={row['n'][0]}+{row['n'][1]})")
    worse = [row for row in table if row["verdict"] == "worse"]
    unresolved = [row for row in table if row["verdict"] == "unresolved"]
    print(f"{len(table)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0
