"""The gammatri benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/. The
workloads and metrics are declared in BENCHMARK.json at the root.

--trace 0 runs timed passes, each in a fresh interpreter whose
PYTHONHASHSEED is derived from the seed and the pass number, on the CPUs in
turn, until S seconds are used (at least MIN_PASSES passes). It reports the
medians of run_s (the pass), setup_s (interpreter start, import and input
building) and peak_rss_mb (the process that ran the pass).

--trace 1 runs one traced pass and reports the per-layer metrics.

Every result is checked exactly. The last line of stdout is one JSON
object; the exit code is 0 only when no result failed. Without src/gammatri
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
WORKER_TIMEOUT_S = 170
IMPORT_SAMPLES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def hash_seed(seed: int, pass_no: int) -> int:
    """PYTHONHASHSEED of one pass, a function of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{pass_no}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _env(hseed: int) -> dict:
    return dict(os.environ, PYTHONHASHSEED=str(hseed), PYTHONPATH=str(SRC))


def spawn_pass(workload: str, seed: int, hseed: int, mode: str, cpu: int) -> dict:
    """Run worker.py once on the given CPU; setup_s runs from the spawn to
    its `ready` line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    os.sched_setaffinity(0, {cpu})  # the worker inherits it
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(hseed),
                            cwd=ROOT, start_new_session=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        with proc.stdout:
            first = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    failure = {"attempted": 1, "failed": 1,
               "errors": [f"worker exited with code {proc.returncode}"]}
    if proc.returncode != 0 or first.strip() != b"ready":
        return failure
    try:
        result = json.loads(rest)
    except ValueError:
        return failure
    result["setup_s"] = setup_s
    return result


def fresh_import(hseed: int) -> float:
    """Wall time of `import gammatri.cli` in a fresh interpreter."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import gammatri.cli"],
                   env=_env(hseed), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_run(workload, seed, seconds, run_pass, cpus):
    """Timed passes until the next one would likely end after `seconds`,
    and at least MIN_PASSES; the medians of their figures.

    Passes take the CPUs in turn. On a shared host each CPU's speed drifts
    by a fifth or more over minutes, independently of the other's, so a run
    confined to one CPU reports that CPU's state as much as the program's."""
    passes, walls, hseeds = [], [], []
    t_start = perf_counter()
    while (len(passes) < MIN_PASSES
           or perf_counter() - t_start + statistics.median(walls) <= seconds):
        hseeds.append(hash_seed(seed, len(passes)))
        t0 = perf_counter()
        cpu = cpus[len(passes) % len(cpus)]
        passes.append(run_pass(workload, seed, hseeds[-1], "timed", cpu))
        walls.append(perf_counter() - t0)
        if "run_s" not in passes[-1]:
            break  # the worker died; more passes would only repeat that
    timed = [p for p in passes if "run_s" in p]
    metrics = {}
    if timed:
        for name in ("run_s", "setup_s", "peak_rss_mb"):
            metrics[name] = statistics.median(p[name] for p in timed)
    return passes, metrics, hseeds


def traced_run(workload, seed, run_pass, cpus):
    """One untraced and one traced in-process pass, each in a fresh
    interpreter with the same hash seed and CPU; the difference of their
    times is the tracing overhead."""
    hseed = hash_seed(seed, 0)
    plain = run_pass(workload, seed, hseed, "in-process", cpus[0])
    traced = run_pass(workload, seed, hseed, "traced", cpus[0])
    metrics = dict(traced.get("metrics", {}))
    if metrics and "run_s" in plain:
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - plain["run_s"]
        metrics["cli.import_s"] = statistics.median(
            fresh_import(hash_seed(seed, k)) for k in range(IMPORT_SAMPLES))
    return [plain, traced], metrics, [hseed]


def main(argv=None, run_pass=spawn_pass) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gammatri" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'gammatri'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(whys)}")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        fresh_import(hash_seed(args.seed, 0))  # compiles it before any pass
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))
    if args.trace:
        passes, measured, hseeds = traced_run(args.workload, args.seed, run_pass, cpus)
    else:
        passes, measured, hseeds = timed_run(args.workload, args.seed,
                                             args.seconds, run_pass, cpus)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p.get("errors", []):
            print(f"perfbench: FAILED {err}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: no measurement of {', '.join(missing)}", file=sys.stderr)
        return 1

    meta = {"workload": args.workload, "why": whys[args.workload],
            "seed": args.seed, "hash_seeds": hseeds, "passes": len(passes),
            "pass_run_s": [p.get("run_s") for p in passes], "cpus": cpus,
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "commit": git_commit()}
    print("meta " + json.dumps(meta))
    how = "" if args.trace else f"  (median of {len(passes)} passes)"
    for m in declared:
        print(f"{m['name']:<44} {measured[m['name']]:>14.6g} {m['unit']}{how}")
    ratio = failed / attempted if attempted else 1.0
    print(f"{'fail_ratio':<44} {ratio:>14.6g} ({failed} of {attempted} results)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
