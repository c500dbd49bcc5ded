"""One workload process: set up, warm up, run timed rounds, check every item.

Started by run.py, once per workload run and once per extra set-up sample.
It prints ``ready`` when set-up (imports and inputs) is done, then one JSON
line: with ``--setup-only`` the host speed just after set-up, otherwise its
measurements.
"""
import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WARMUP_S = 2.0
SETUP_SLICES = 5


def _percentile(sorted_values, q):
    """Nearest-rank percentile; the rank leaves len - rank values beyond it."""
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[rank - 1], len(sorted_values) - rank


def _report_failure(kind, item, exc, shown):
    if shown[kind] < 5:
        print(f"{kind}: {item.label}: {exc}", file=sys.stderr)
    shown[kind] += 1


def run_round(workload, tracer, times, tally, slices, until=None):
    """Run one round of items, appending (wall time in ns, midpoint) of each
    to ``times`` and the host-speed slices taken between them to ``slices``."""
    slices.append(hostspeed.timed_slice())
    last_slice = time.perf_counter()
    for item in workload.items:
        now = time.perf_counter()
        if until is not None and now >= until:
            return
        if now - last_slice >= hostspeed.INTERVAL_S:
            slices.append(hostspeed.timed_slice())
            last_slice = time.perf_counter()
        if tracer is not None:
            tracer.item = tally["item_id"]
            tracer.install()
        tally["item_id"] += 1
        try:
            start = time.perf_counter_ns()
            output = item.run()
            elapsed = time.perf_counter_ns() - start
        except Exception as exc:  # an operation that fails counts, the run goes on
            tally["failed"] += 1
            _report_failure("failed", item, repr(exc), tally["shown"])
            continue
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append((elapsed, start / 1e9 + elapsed / 2e9))
        for check in item.checks:
            try:
                check(output)
            except Exception as exc:  # a check that cannot read the output rejects it
                tally["wrong"] += 1
                _report_failure("wrong", item, exc, tally["shown"])


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Set-up: everything up to the first timed item.
    sys.path.insert(0, str(ROOT / "src"))
    import syndemic
    import syndemic.cli
    import syndemic.scenarios
    if Path(syndemic.__file__).resolve().parent != ROOT / "src" / "syndemic":
        print(f"error: imported syndemic from {syndemic.__file__}", file=sys.stderr)
        return 2
    scratch = OUT / "scratch" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, syndemic, args.seed, scratch)
        print("ready", flush=True)
        if args.setup_only:
            # The host speed just after set-up, by which run.py scales it.
            hostspeed.slice_seconds()  # the first slice also loads its code paths
            slice_s = statistics.median(hostspeed.slice_seconds() for _ in range(SETUP_SLICES))
            print(json.dumps({"speed_factor": hostspeed.REFERENCE_SLICE_S / slice_s}))
            return 0
        return measure(args, syndemic, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, syndemic, workload):
    tally = {"failed": 0, "wrong": 0, "item_id": 0,
             "shown": {"failed": 0, "wrong": 0}}
    # Warm-up, checked and untimed: at most one round, cut off after
    # WARMUP_S.
    run_round(workload, None, [], tally, [], until=time.perf_counter() + WARMUP_S)
    tally["failed"] = 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(syndemic)
    # (wall time in ns, midpoint) of every timed item, by round, and the
    # host-speed slices of the whole run (hostspeed.py).
    round_items, slices = [], []
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        is_traced = tracer is not None and rounds % 2 == 1
        times = []
        run_round(workload, tracer if is_traced else None, times, tally, slices)
        round_items.append(times)
        rounds += 1
        done = time.perf_counter() >= deadline
        if tracer is None:
            done = done and sum(len(t) for t in round_items) >= workload.min_items
        else:
            done = done and rounds % 2 == 0
        if done:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.finish()
    except workloads.CheckFailed as exc:
        tally["wrong"] += 1
        print(f"wrong: {exc}", file=sys.stderr)

    attempted = rounds * len(workload.items)
    scaled = hostspeed.scale([t for times in round_items for t in times], slices)
    by_round, plain, traced = [], [], []
    for r, times in enumerate(round_items):
        these, scaled = scaled[:len(times)], scaled[len(times):]
        by_round.append(these)
        (traced if tracer is not None and r % 2 == 1 else plain).extend(these)
    raw_ns = sorted(t for r, times in enumerate(round_items) for t, _ in times
                    if tracer is None or r % 2 == 0)
    info = {"rounds": rounds, "items_per_round": len(workload.items),
            "host_slices": len(slices),
            "host_slice_ms_median": statistics.median(s for _, s in slices) * 1e3,
            "round_speed_factors": [sum(sc) / sum(t for t, _ in times)
                                    for sc, times in zip(by_round, round_items) if times],
            "raw_items_per_s": len(raw_ns) / (sum(raw_ns) / 1e9),
            "raw_item_p50_ms": statistics.median(raw_ns) / 1e6}
    if tracer is None:
        # The median scaled item time of each round (every round holds every
        # item kind), averaged over the run.
        round_p50 = [statistics.median(these) / 1e6 for these in by_round if these]
        plain.sort()
        tail, beyond = _percentile(plain, workload.tail_percentile)
        metrics = {
            "items_per_s": len(plain) / (sum(plain) / 1e9),
            "item_p50_ms": statistics.fmean(round_p50),
            "item_tail_ms": tail / 1e6,
            "peak_rss_mb": peak_rss_mb,
        }
        info.update(round_p50_ms=round_p50, timed_items=len(plain),
                    tail_percentile=workload.tail_percentile, items_beyond_tail=beyond)
    else:
        traced_rounds = rounds // 2
        metrics = tracer.summary(len(traced), traced_rounds)
        metrics["trace.overhead_ratio"] = (len(plain) / sum(plain)) / (len(traced) / sum(traced))
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        info.update(traced_items=len(traced), untraced_items=len(plain))
    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": attempted,
                      "failed": tally["failed"], "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
