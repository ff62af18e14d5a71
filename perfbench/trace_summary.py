#!/usr/bin/env python3
"""Turn a perfbench_jiffy trace into the per-layer metrics.

    python3 perfbench/trace_summary.py <trace.jsonl> [--untraced-mops X]

A trace is JSON lines written by `perfbench_jiffy --trace-file`:
  * one {"report": ...} line, the traced run's own report; its "layers"
    object holds the counter-derived metrics (obs counters, EBR epoch,
    debug_stats, per-worker CPU time);
  * {"span": name, "tid", "id", "parent", "start_ns", "end_ns"} lines: every
    phase span (bench.preload, bench.warmup, bench.measure, bench.verify) and
    a sample of the map-call spans under them;
  * {"agg": name, "tid", "parent", "count", "total_ns", "stall_count",
    "stall_ns", "max_ns"} lines: every map call under one phase span, folded
    per call name. Map calls have no child spans, so their self time is
    their total time.
A span's self time is its duration minus the time its children cover; the
per-layer self times are those of the map calls under bench.measure.
"""
import argparse
import json
import sys

CALLS = ("put", "erase", "get", "scan_n", "apply")
UPDATE_CALLS = ("put", "erase", "apply")
COUNTER_UNITS = {
    "core.install_lost_per_kupdate": "1/kupdate",
    "core.avg_revision_entries": "count",
    "core.target_revision_entries": "count",
    "core.splits_per_s": "1/s",
    "core.merges_per_s": "1/s",
    "core.replay_dup_ratio": "ratio",
    "core.replay_claimed_per_s": "1/s",
    "core.help_stamps_per_s": "1/s",
    "core.purge_sweeps_per_s": "1/s",
    "core.purged_per_s": "1/s",
    "core.tombstones_end": "count",
    "ebr.epoch_advances_per_s": "1/s",
    "ebr.valve_donations_per_s": "1/s",
    "ebr.limbo_peak": "count",
    "block_cache.hit_frac": "ratio",
    "host.worker_cpu_share_min": "ratio",
    "host.worker_cpu_share_mean": "ratio",
    "host.worker_wait_frac": "ratio",
}


def load(path):
    trace = {"report": None, "spans": [], "aggs": []}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "report" in rec:
                trace["report"] = rec["report"]
            elif "span" in rec:
                trace["spans"].append(rec)
            else:
                trace["aggs"].append(rec)
    if trace["report"] is None:
        raise ValueError(f"{path}: no report line")
    return trace


def per_layer(trace, untraced_total_mops):
    report = trace["report"]
    metrics = {name: {"value": report["layers"][name], "unit": unit}
               for name, unit in COUNTER_UNITS.items()}
    measure = {s["id"] for s in trace["spans"] if s["span"] == "bench.measure"}
    calls = {name: {"count": 0, "total_ns": 0, "stall_ns": 0}
             for name in CALLS}
    for a in trace["aggs"]:
        if a["parent"] in measure and a["agg"] in calls:
            c = calls[a["agg"]]
            for k in c:
                c[k] += a[k]
    for name in CALLS:
        metrics[f"core.{name}.self_s"] = {
            "value": calls[name]["total_ns"] / 1e9, "unit": "s"}
        metrics[f"core.{name}.count"] = {
            "value": calls[name]["count"], "unit": "count"}
    busy = sum(calls[n]["total_ns"] for n in UPDATE_CALLS)
    stalled = sum(calls[n]["stall_ns"] for n in UPDATE_CALLS)
    metrics["core.update_stall_share"] = {
        "value": stalled / busy if busy else 0.0, "unit": "ratio"}
    traced_mops = report["e2e"]["total_mops"]["value"]
    metrics["obs.trace_overhead_frac"] = {
        "value": 1.0 - traced_mops / untraced_total_mops, "unit": "ratio"}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace")
    ap.add_argument("--untraced-mops", type=float,
                    help="total_mops of an untraced run of the same workload "
                         "and seed, for obs.trace_overhead_frac")
    args = ap.parse_args()
    trace = load(args.trace)
    base = args.untraced_mops or trace["report"]["e2e"]["total_mops"]["value"]
    json.dump(per_layer(trace, base), sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
