"""Benchmark entry point.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each round of the workload runs in a
fresh worker process, one after another, so every round meets cold caches
and pays the import, as a user does.  Rounds start while the next one is
expected to end within --seconds.  With --trace 0 the last stdout line
holds the end-to-end metrics of BENCHMARK.json, medians over the rounds;
with --trace 1 untraced and traced rounds alternate and it holds the
per-layer metrics, medians over the traced rounds.  Times are scaled to
reference seconds by the speed kernel (see speed.py), set-up times each by
the kernels timed around it; the unscaled median wall time goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 16
DEADLINE_S = 170  # a run must end within 180 s


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (root / "src" / "onefac" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/onefac", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    bench = Bench(args, root, out_dir)
    try:
        result = bench.run(spec)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


class WorkerError(RuntimeError):
    pass


class Bench:
    def __init__(self, args, root: Path, out_dir: Path):
        self.args = args
        self.root = root
        self.out_dir = out_dir
        self.start = time.perf_counter()
        # Byte code is cached under out/, apart from the checkout's sources;
        # a warm-up worker fills it, as an installed package would have it.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(out_dir / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def worker(self, *extra: str) -> dict:
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--workdir", str(self.out_dir / "docs"), *extra]
        left = DEADLINE_S - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{a.workload} round did not end within {DEADLINE_S} s")
        if proc.returncode != 0:
            raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self, spec: dict) -> dict:
        a = self.args
        self.worker("--setup-only")  # fills the byte-code cache
        setup_only = [] if a.trace else [self.worker("--setup-only")
                                         for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        longest = 0.0
        while True:
            t = time.perf_counter()
            plain.append(self.worker())
            if a.trace:
                trace_path = self.out_dir / f"trace-{a.workload}-{a.seed}-{len(traced)}.json"
                traced.append(self.worker("--trace-out", str(trace_path)))
            longest = max(longest, time.perf_counter() - t)
            if time.perf_counter() - self.start + longest > a.seconds:
                break

        rounds = plain + traced
        kernel_s = [k for r in rounds + setup_only for k in r["kernel_s"]]
        factor = speed.scale(kernel_s)
        for r in rounds:
            for msg in r["failures"] + r["errors"]:
                print(f"{a.workload}: {msg}", file=sys.stderr)
        print(f"{a.workload}: {len(plain)} rounds, wall_s as measured "
              f"{med(r['wall_s'] for r in plain):.4f}, kernel "
              f"{statistics.median(kernel_s) * 1e3:.4f} ms, scale {factor:.4f}",
              file=sys.stderr)
        if a.trace:
            layers = [layer_values(r) for r in traced]
            wanted = spec["per_layer"]
            values = {m["name"]: scaled(med(v.get(m["name"], 0) for v in layers),
                                        m["unit"], factor)
                      for m in wanted if m["name"] != "trace.overhead_s"}
            # Each round on its own scale: the two walls compared were timed
            # at different moments.
            values["trace.overhead_s"] = (
                med(r["wall_s"] * speed.scale(r["kernel_s"]) for r in traced)
                - med(r["wall_s"] * speed.scale(r["kernel_s"]) for r in plain))
        else:
            wanted = spec["end_to_end"]
            values = {"wall_s": med(r["wall_s"] for r in plain) * factor,
                      "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
                      "search_nodes": med(r["search_nodes"] for r in plain)}
            # Each set-up on the kernels timed around it (see worker.py).
            values["setup_s"] = med(r["setup_s"] * speed.setup_scale(r["setup_kernel_s"])
                                    for r in plain + setup_only)
            values.update({k: v * factor for k, v in case_quantiles(plain).items()})
        return {
            "correct": all(r["correct"] for r in rounds),
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        }


def med(values) -> float:
    return statistics.median(list(values))


def layer_values(r: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round: `<span>.s` is the span's self
    time and `<span>.calls` its call count; the rest come from the counts
    the round took from its outputs."""
    spans, counts = r["spans"], r["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{name}.s": row["self_s"] for name, row in spans.items()}
    out.update({f"{name}.calls": row["calls"] for name, row in spans.items()})
    out.update({
        "starters.find_starter.per_starter": ratio(
            span("starters.find_starter", "calls"), counts.get("starters_kept", 0)),
        "starters.assemble.factors": counts.get("assembled_factors", 0),
        "starters.certificate_indecomposable.selections": counts.get("selections", 0),
        "docio.bytes": counts.get("docio_bytes", 0),
        "gf.factors_per_s": ratio(counts.get("gf_factors", 0),
                                  span("gf.agl_orbit_factorization", "total_s")),
        "verify.nodes": counts.get("verify_nodes", 0),
        "verify.nodes_per_s": ratio(counts.get("verify_nodes", 0),
                                    span("verify.find_subfactorization", "total_s")),
    })
    return out


def case_quantiles(rounds: list[dict]) -> dict[str, float]:
    """Median and tail over cases of each case's mean time over the rounds.

    The mean, because a short case runs either in a fast or in a slow
    spell of the machine, and the median of a few such times jumps
    between the two.  The tail is the highest percentile with at least 10
    cases beyond it.  With fewer than 40 cases there is no such tail and
    the slowest case stands in for it.
    """
    keys = sorted({k for r in rounds for k in r["case_s"]})
    times = sorted(statistics.fmean([r["case_s"][k] for r in rounds if k in r["case_s"]])
                   for k in keys)
    if not times:
        return {"case_s.p50": 0.0, "case_s.tail": 0.0}
    tail = times[-11] if len(times) >= 40 else times[-1]
    return {"case_s.p50": statistics.median(times), "case_s.tail": tail}


def scaled(value: float, unit: str, factor: float) -> float:
    """Seconds to reference seconds; rates per second the other way."""
    if unit == "s":
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


if __name__ == "__main__":
    sys.exit(main())
