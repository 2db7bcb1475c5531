"""Run workloads once per seed and report the spread of each metric.

    python3 perfbench/spread.py --workloads grid,strip --seeds 1-10

For every workload and metric it prints the median over the runs, the
quartiles from statistics.quantiles(values, n=4) and the spread, their
distance as a share of the median, beside the metric's bound in
BENCHMARK.json.  Raw results go to perfbench/out/spread-<workload>.json.
Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  seed {seed}: {proc.stderr.strip().splitlines()[-1]}", flush=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(runs))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            print(f"  {m['name']:16s} {mid:12.6g} {m['unit']:6s} "
                  f"q1 {q1:10.6g}  q3 {q3:10.6g}  spread {spread:6.3f}  bound {m['bound']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
