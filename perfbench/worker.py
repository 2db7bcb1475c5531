"""One fresh process: import the package, prepare a workload, run one round.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Prints one
JSON object on its last stdout line, with times as measured and the speed
kernel's samples (see speed.py), from which run.py takes its scale; the
set-up has samples of its own, SETUP_KERNELS timed just before the import
and as many just after the set-up, because it is too short for the timer.  With
--setup-only it stops after the set-up, which gives run.py more set-up
samples cheaply.  With --trace-out it wraps the layer entry points before
the set-up, and at the end reports the span summary and writes the spans
there; without it no wrapper is loaded.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import speed

SETUP_KERNELS = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    sampler = speed.Sampler()
    sampler.start()
    setup_kernel_s = [speed.kernel() for _ in range(SETUP_KERNELS)]
    start = sampler.clock()
    import workloads  # imports onefac: the import is part of the set-up
    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer(sampler.clock)
        tracer.install()
    rnd = workloads.Round()
    cases = workloads.prepare(args.workload, args.seed, Path(args.workdir), rnd)
    setup_s = sampler.clock() - start
    setup_kernel_s += [speed.kernel() for _ in range(SETUP_KERNELS)]
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s,
                          "kernel_s": sampler.samples}))
        return 0

    cold = [name for name, fn in cached_functions(workloads) if fn.cache_info().currsize]
    if cold and args.workload != "verify":
        raise SystemExit(f"caches filled before timing: {cold}")
    workloads.run_round(args.workload, cases, rnd, sampler.clock)
    sampler.stop()
    out = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel_s,
        "wall_s": sum(rnd.case_s.values()),
        "case_s": rnd.case_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "search_nodes": rnd.search_nodes,
        "attempted": rnd.attempted,
        "failed": len(rnd.failures),
        "failures": rnd.failures[:5],
        "errors": rnd.errors[:5],
        "correct": not rnd.errors,
        "kernel_s": sampler.samples,
    }
    if tracer is not None:
        out["spans"] = tracer.summary()
        out["counts"] = rnd.counts
        tracer.dump(args.trace_out)
    print(json.dumps(out))
    return 0


def cached_functions(workloads):
    """The package's memo caches that timing must find empty."""
    for mod in (workloads.families, workloads.starters):
        for name, fn in vars(mod).items():
            if hasattr(fn, "cache_info"):
                yield f"{mod.__name__}.{name}", fn


if __name__ == "__main__":
    sys.exit(main())
