"""One benchmark pass, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE

run.py starts it with PYTHONHASHSEED pinned and src/ on PYTHONPATH. It
prints `ready` once gammatri is imported and the inputs are built, then one
JSON line with the pass's figures.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import layers
from spans import Tracer
from workloads import WORKLOADS


def timed_pass(workload: str, seed: int, size: str = "full", ready=None,
               in_process: bool = False) -> dict:
    """Build the inputs, then time one pass and check its results.
    in_process selects the pass as the traced run makes it, untraced."""
    wl = WORKLOADS[workload]
    inputs = wl.setup(seed, size)
    if ready:
        ready()
    t0 = perf_counter()
    results = wl.run_in_process(inputs) if in_process else wl.run(inputs)
    run_s = perf_counter() - t0
    outcome = wl.check(inputs, results)
    return {"run_s": run_s, "peak_rss_mb": wl.peak_rss_mb(results),
            "attempted": outcome.attempted, "failed": outcome.failed,
            "errors": outcome.errors}


def traced_pass(workload: str, seed: int, size: str = "full", ready=None) -> dict:
    """Set up and run one pass under the tracer (set-up is traced too, so
    that model construction shows); return the per-layer metrics."""
    wl = WORKLOADS[workload]
    if ready:
        ready()
    tracer = Tracer()
    with layers.instrument(tracer):
        inputs = wl.setup(seed, size)
        t0 = perf_counter()
        results = wl.run_in_process(inputs)
        traced_s = perf_counter() - t0
    outcome = wl.check(inputs, results)
    metrics = layers.layer_metrics(tracer)
    metrics["trace.run_s"] = traced_s
    return {"attempted": outcome.attempted, "failed": outcome.failed,
            "errors": outcome.errors, "metrics": metrics}


MODES = {
    "timed": timed_pass,
    "in-process": lambda *args, **kw: timed_pass(*args, **kw, in_process=True),
    "traced": traced_pass,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=sorted(MODES), required=True)
    args = parser.parse_args(argv)
    result = MODES[args.mode](args.workload, args.seed,
                              ready=lambda: print("ready", flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
