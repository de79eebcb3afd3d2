"""Check that the traced pass's exact counts repeat between two runs.

    python3 perfbench/repeat_counts.py [--seed N] [--workload W ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and compares
every metric whose unit is ``count`` or ``ratio``.  Exits 1 on any
difference.  The counted pass has a fixed number of operations, so a short
``--seconds`` leaves the counts unchanged.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         check=True, capture_output=True, text=True, timeout=300)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", nargs="*", default=["mc", "calibrate", "design"])
    args = p.parse_args()
    same = True
    for workload in args.workload:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        diff = {k: (v, second[k]) for k, v in first.items() if second[k] != v}
        same &= not diff
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not diff else f"DIFFER {diff}"))
        for k, v in first.items():
            print(f"  {k:<32}{v:>14.6g}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
