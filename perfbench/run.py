"""Benchmark of the syndemic toolkit, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each run starts fresh
single-threaded worker processes (perfbench/worker.py) that import the
package from ``src/``. With ``--trace 0`` the last line of standard output
is a JSON object holding the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of the traced mode. The same object is written to
perfbench/out/results/. See perfbench/README.md for the workloads, the
metrics and the reference figures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("equilibrium-sweep", "treatment-trajectories", "threshold-analysis")
# Set-up is timed in fresh processes before and after the measuring worker,
# so that the samples span the run. Each is scaled to the reference host
# speed by the slices its process times just after set-up (hostspeed.py).
SETUP_SAMPLES_EACH_SIDE = 4
RUN_LIMIT_S = 170.0        # the whole run, worker processes included
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("SYNDEMIC_OUT_DIR", None)
    env.pop("PYTHONPATH", None)
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def start_worker(args, deadline, setup_only):
    """Start a worker; return (process, seconds from start to ``ready``)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker until the run's deadline; return its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run's time limit") from None
    return out


def measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, raw_setups = [], []

    def sample_setup(count):
        for _ in range(count):
            proc, ready = start_worker(args, deadline, setup_only=True)
            out = finish(proc, deadline)
            if proc.returncode != 0:
                raise BenchError(f"set-up process exited {proc.returncode}")
            raw_setups.append(ready)
            setups.append(ready * json.loads(out.strip().splitlines()[-1])["speed_factor"])

    if not args.trace:
        # The first start fills the bytecode and file caches, as any user's
        # second start would find them; it is not timed.
        sample_setup(1)
        setups.clear()
        raw_setups.clear()
        sample_setup(SETUP_SAMPLES_EACH_SIDE)
    proc, _ = start_worker(args, deadline, setup_only=False)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    if not args.trace:
        sample_setup(SETUP_SAMPLES_EACH_SIDE)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if args.trace:
        import tracer
        units = dict(tracer.PER_LAYER)
    else:
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
        result["info"]["raw_setup_samples_s"] = raw_setups
        units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"worker reported no {sorted(missing)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}, result["info"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    if not (ROOT / "src" / "syndemic" / "__init__.py").is_file():
        print(f"error: no syndemic package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info), file=sys.stderr)
    results = ROOT / "perfbench" / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
