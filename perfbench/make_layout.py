"""Choose pick_table's layout: write data/pick_layout.json.

Draws candidate pairs (PickTable.candidates) and keeps, in order, those
whose pick cycle stays on the IK seed path: every solve_ik of the cycle
returns restart_index 0.  Run from the repository root:

    python3 perfbench/make_layout.py
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer, op_counters  # noqa: E402
from workloads import Env, PickTable  # noqa: E402

CANDIDATES = 112

if __name__ == "__main__":
    workload = PickTable(Env(), PickTable.default_seed, PickTable.candidates(CANDIDATES))
    tracer = Tracer()
    with tracer.installed():
        for k in range(CANDIDATES):
            inp = workload.prepare(k)
            with tracer.op(k):
                result = workload.execute(inp)
            assert workload.verify(inp, result).success, k
    counters = op_counters(tracer.spans)
    kept = [
        k for k in range(CANDIDATES)
        if all(c[2] == 0 for c in counters[k] if c[0] == "ik_solver.solve_ik")
    ]
    PickTable.LAYOUT.write_text(json.dumps({"candidates": CANDIDATES, "kept": kept}) + "\n", encoding="utf-8")
    print(f"kept {len(kept)} of {CANDIDATES} candidates")
