"""Write data/roundtrip_2025.json from the acceptance suite itself.

The file holds, for each of the 1000 criterion-2 targets (seed 2025), the
restart index of its full-pose solve, or -1 where the solve fails.  The
ik_cold workload on seed 2025 must reproduce it.  Run from the repository
root after a change that legitimately alters the solver's restart indexes:

    python3 perfbench/acceptance_ref.py
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import _roundtrip_batch  # noqa: E402

if __name__ == "__main__":
    indexes = [o[5] if o[0] == "ok" else -1 for o in _roundtrip_batch()]
    out = Path(__file__).resolve().parent / "data" / "roundtrip_2025.json"
    out.write_text(json.dumps(indexes) + "\n")
    print(f"{out}: {len(indexes)} targets, {sum(1 for i in indexes if i != 0)} off the seed path")
