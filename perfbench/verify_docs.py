"""Write the verify workload's documents again and search each one.

    PYTHONPATH=src python3 perfbench/verify_docs.py --relabel-seed 1

Prints, per document, the expected verdict, the outcome and the multicover
nodes, then the total, which is the verify workload's search_nodes for
that relabeling seed (the benchmark uses workloads.RELABEL_SEED).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from onefac import docio, verify

import workloads

OUT = Path(__file__).resolve().parent / "out" / "docs"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--relabel-seed", type=int, default=workloads.RELABEL_SEED)
    args = ap.parse_args()
    cases = workloads.write_verify_documents(OUT, workloads.Round(),
                                             args.relabel_seed)
    total = 0
    for name, path, expected in cases:
        result = verify.find_subfactorization(docio.read_mf(path), budget=workloads.BUDGET)
        total += result.nodes
        print(f"{name:16s} expected {expected:12s} got {result.outcome:12s} "
              f"{result.nodes:9d} nodes")
    print(f"total {total} nodes over {len(cases)} documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
