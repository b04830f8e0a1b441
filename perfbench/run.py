"""Benchmark entry point: runs one workload through `reporting.run_preset`,
one fresh process at a time, and prints its metrics.

    python3 perfbench/run.py --workload haff-law --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

With --trace 0 it runs set-up probes, then whole runs until --seconds
is used up (at least one), and reports the end-to-end metrics as medians.
With --trace 1 it makes one untraced and one traced run and reports the
per-layer metrics of the traced one plus the tracing overhead. The last
line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. Run it from the root of a checkout: the
program is imported from src/.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from rep import failed_operations
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TIME_LIMIT_S = 170.0  # one invocation must end within 180 s
SETUP_PROBES = 5
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "collisions_per_s": "1/s", "peak_rss_mb": "MB"}


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    """The program from this checkout's src/, with BLAS and OpenMP
    thread pools capped at the processors this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def _command(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def environment():
    top = _command(["git", "rev-parse", "--show-toplevel"])
    commit = _command(["git", "rev-parse", "HEAD"]) if top and top.strip() == ROOT else None
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    caches = {}
    for line in (_command(["getconf", "-a"]) or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            caches[parts[0]] = int(parts[1])
    return {
        "commit": commit.strip() if commit else "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": nproc(),
        "thread_cap": nproc(),
        "caches": caches,
        "platform": platform.platform(),
    }


def run_child(name, seed, deadline, tag, trace=False, setup_only=False, spans=None):
    """One workload process; waits for it and returns its result dict,
    with "error" set when it failed, timed out or ran other code."""
    work = os.path.join(RESULTS, f"{name}-{seed}-{os.getpid()}-{tag}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", name,
           "--seed", str(seed), "--out", os.path.join(work, "out"), "--result", result_path]
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        if proc.returncode == 0 and os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        else:
            result = {"error": f"exit code {proc.returncode}: {proc.stderr[-2000:]}"}
    except subprocess.TimeoutExpired:
        result = {"error": "timed out"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["process_s"] = time.perf_counter() - t0
    expected = os.path.join(SRC, "granular")
    if "granular_path" in result and result["granular_path"] != expected:
        result["error"] = f"imported granular from {result['granular_path']}, not {expected}"
    if "error" in result:
        print(f"  run failed: {result['error'].strip().splitlines()[-1]}", file=sys.stderr)
        result["operations"] = failed_operations(WORKLOADS[name])
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(name, seed, seconds, trace):
    """Run the workload and return (summary, raw results)."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    if trace:
        reps = [run_child(name, seed, deadline, "untraced"),
                run_child(name, seed, deadline, "traced", trace=True,
                          spans=os.path.join(RESULTS, f"{name}-spans.csv"))]
        setups = []
    else:
        run_child(name, seed, deadline, "warmup", setup_only=True)  # fills the bytecode cache
        setups = [run_child(name, seed, deadline, f"setup{k}", setup_only=True)
                  for k in range(SETUP_PROBES)]
        reps = []
        while True:
            reps.append(run_child(name, seed, deadline, f"run{len(reps)}"))
            now = time.perf_counter()
            last = reps[-1]["process_s"]
            if now - start + last > seconds or now + last > deadline:
                break

    return summarize(reps, setups, trace), reps


def summarize(reps, setups, trace):
    """Metrics and operation counts from the results of one invocation:
    medians and quartiles without tracing; with tracing, the traced run's
    per-layer metrics and its overhead over the untraced run."""
    ok = [r for r in reps if "error" not in r]
    ops = [op for r in reps for op in r["operations"]]
    gates_ok = all(passed for op, passed in ops if op.startswith("gate:"))
    metrics = {}
    if trace:
        traced = reps[-1]
        if "error" not in traced:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
            if "error" not in reps[0]:
                metrics["trace.overhead_s"] = {
                    "value": traced["wall_s"] - reps[0]["wall_s"], "unit": "s"}
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in setups + ok if "setup_s" in r],
            "collisions_per_s": [r["engine_work"] / r["engine_s"] for r in ok
                                 if r.get("engine_s")],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
        for key, values in samples.items():
            if values:
                q1, med, q3 = quartiles(values)
                metrics[key] = {"value": med, "unit": E2E_UNITS[key],
                                "q1": q1, "q3": q3, "n": len(values)}
    summary = {
        "correct": bool(ok) and len(ok) == len(reps) and gates_ok,
        "attempted": len(ops),
        "failed": sum(1 for _, passed in ops if not passed),
        "metrics": metrics,
        "failed_operations": sorted({op for op, passed in ops if not passed}),
        "runs": len(reps),
        "setups": len(setups),
    }
    return summary


def print_summary(name, seed, summary):
    print(f"workload {name} seed {seed}: {summary['runs']} runs, {summary['setups']} set-up probes")
    for key, m in summary["metrics"].items():
        spread = f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})" if "n" in m else ""
        print(f"  {key:<44} {m['value']:.6g} {m['unit']}{spread}")
    print(f"  operations: {summary['failed']} failed of {summary['attempted']} attempted"
          + (f" ({', '.join(summary['failed_operations'])})" if summary["failed"] else ""))


def final_line(summary):
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in summary["metrics"].items()}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "granular", "reporting.py")):
        print(f"no program to measure: {SRC}/granular is missing", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    os.makedirs(RESULTS, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    finals = {}
    for name in names:
        summary, reps = measure(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, args.seed, summary)
        with open(os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump({"environment": env, "summary": summary, "runs": reps}, fh, indent=1)
        finals[name] = final_line(summary)
    if len(finals) == 1:
        out = finals[names[0]]
    else:
        out = {
            "correct": all(f["correct"] for f in finals.values()),
            "attempted": sum(f["attempted"] for f in finals.values()),
            "failed": sum(f["failed"] for f in finals.values()),
            "metrics": {f"{n}.{k}": m for n, f in finals.items() for k, m in f["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
