"""Compare two result sets from collect.py, or check the spread of one.

    python3 perfbench/compare.py before.jsonl after.jsonl
    python3 perfbench/compare.py runs.jsonl

For every workload and end-to-end metric, each line shows the median and
quartiles of each set and whether the second median is worse than the first
by more than the bound in BENCHMARK.json.  The spread of a set is the
quartile distance over the median, as the acceptance of a benchmark measures
it; a spread above the bound means the metric cannot resolve a change of
that size.  Runs of one seed must report the same work-counter digest; a
digest that changes between the sets means the program does different work.
Exits 1 on a regression, a spread above a bound, or a digest that differs
within one set.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (IQR over median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def series(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    for run in runs:
        if run.get("trace") or "result" not in run:
            continue
        for name, metric in run["result"]["metrics"].items():
            out[(run["workload"], name)].append(metric["value"])
    return out


def digests(runs: list[dict]) -> dict[tuple[str, int, int], set[str]]:
    out: dict[tuple[str, int, int], set[str]] = defaultdict(set)
    for run in runs:
        if "detail" in run:
            out[(run["workload"], run["seed"], run["trace"])].add(run["detail"]["counter_digest"])
    return out


def worse_by(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    if before == 0:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def fmt(m: float, q1: float, q3: float) -> str:
    return f"{m:>11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = [load(Path(p)) for p in argv]
    status = 0
    for i, runs in enumerate(sets):
        for key, found in digests(runs).items():
            if len(found) > 1:
                print(f"set {i + 1}: {key[0]} seed {key[1]} trace {key[2]}: work counters differ between runs {sorted(found)}")
                status = 1
        bad = [r for r in runs if "result" not in r or not r["result"]["correct"]]
        if bad:
            print(f"set {i + 1}: {len(bad)} run(s) failed or reported wrong outputs")
            status = 1
    if len(sets) == 2:
        a, b = digests(sets[0]), digests(sets[1])
        changed = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
        for key in changed:
            print(f"{key[0]} seed {key[1]} trace {key[2]}: work counters changed between the sets")

    data = [series(runs) for runs in sets]
    workloads = sorted({w for d in data for w, _ in d})
    header = f"{'workload':<12} {'metric':<14} {'unit':<6}" + "".join(
        f" {'set ' + str(i + 1) + ': median [q1, q3]':>36} {'spread':>7}" for i in range(len(sets))
    )
    print(header + ("  change  bound  verdict" if len(sets) == 2 else "  bound  verdict"))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols, verdicts = [], []
            stats = []
            for d in data:
                values = d.get((workload, name))
                if not values:
                    cols.append(f" {'-':>36} {'-':>7}")
                    stats.append(None)
                    continue
                m, q1, q3, spread = summary(values)
                stats.append(m)
                cols.append(f" {fmt(m, q1, q3):>36} {spread:>7.3f}")
                if spread > bound:
                    verdicts.append("spread>bound")
            line = f"{workload:<12} {name:<14} {metric['unit']:<6}" + "".join(cols)
            if len(sets) == 2 and None not in stats:
                change = worse_by(stats[0], stats[1], metric["better"])
                relative = (stats[1] - stats[0]) / stats[0] if stats[0] else 0.0
                if change > bound:
                    verdicts.insert(0, "WORSE")
                elif change < -bound:
                    verdicts.insert(0, "better")
                else:
                    verdicts.insert(0, "within bound")
                line += f"  {relative:+7.1%}"
            line += f"  {bound:5.2f}  {', '.join(verdicts) or 'ok'}"
            if any(v in ("WORSE", "spread>bound") for v in verdicts):
                status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
