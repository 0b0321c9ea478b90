"""Run the benchmark repeatedly and save the runs as one result set (JSON lines).

    python3 perfbench/collect.py --out before.jsonl --seeds 101-110
    python3 perfbench/collect.py --out traced.jsonl --seeds 8088 --trace 1 --workloads pick_table

Each run is a fresh ``run.py`` process with the settings from BENCHMARK.json
unless overridden.  A run that exits non-zero or reports ``correct: false``
is recorded and makes this command exit 1.  Compare result sets with compare.py.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    entry = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "exit": proc.returncode}
    if proc.returncode == 0 and len(lines) >= 2:
        entry["detail"] = json.loads(lines[-2])
        entry["result"] = json.loads(lines[-1])
    else:
        entry["stderr"] = proc.stderr[-2000:]
    return entry


def problems(entry: dict) -> list[str]:
    if "result" not in entry:
        return [f"exit {entry['exit']}: {entry.get('stderr', '').strip().splitlines()[-1:]}"]
    if not entry["result"]["correct"]:
        return [f"incorrect: {entry['detail'].get('first_wrong')} {entry['detail'].get('problems')}"]
    return []


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON-lines file to append the runs to")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 101-110 or 8088,9001")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    failed = False
    with args.out.open("a", encoding="utf-8") as out:
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                entry = run_once(workload, seed, args.seconds, args.trace)
                out.write(json.dumps(entry) + "\n")
                out.flush()
                issues = problems(entry)
                failed |= bool(issues)
                shown = {k: round(v["value"], 4) for k, v in entry.get("result", {}).get("metrics", {}).items()}
                print(f"{workload} seed={seed} trace={args.trace} {'; '.join(issues) or 'ok'} {shown if not args.trace else ''}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
