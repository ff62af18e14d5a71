#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The first run builds perfbench_jiffy with
CMake under .bench_build/ (CARGO_TARGET_DIR names that directory when set);
later runs reuse the build. With --trace 0 the result holds the end-to-end
metrics of one untraced run. With --trace 1 the workload runs twice with the
same seed, untraced and then traced; the result holds the per-layer metrics
of the traced run (see trace_summary.py), and its obs.trace_overhead_frac
compares the two runs' throughput. The full report of every run, with the
host record, goes to stderr.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import trace_summary  # noqa: E402

WORKLOADS = ("updates_small", "reads_scans_large", "batches_small")
END_TO_END = {
    "update_mops": "Mop/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "total_mops": "Mop/s",
    "setup_s": "s",
    "space_amp": "ratio",
}
RUN_TIMEOUT_S = 170  # all of a run.py call's perfbench_jiffy processes


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    out = build_dir()
    # Configuring every time costs well under a second and recovers from a
    # configure that failed before (a tree without the engine sources).
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "4"]):
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_jiffy")


def source_id():
    """The git commit of a checkout, else a hash of the engine sources."""
    try:
        if not os.path.isdir(".git"):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE)):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256-of-sources:" + h.hexdigest()[:16]


def run_once(binary, args, source, timeout, trace_file=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--source-id", source]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {timeout:.0f} s")
    sys.stderr.write(p.stderr)
    if p.returncode != 0 or not p.stdout.strip():
        fail(f"perfbench_jiffy exited with {p.returncode}")
    report = json.loads(p.stdout.strip().splitlines()[-1])
    print(json.dumps(report), file=sys.stderr)
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    binary = build()
    source = source_id()
    timeout = RUN_TIMEOUT_S / (1 + args.trace)
    untraced = run_once(binary, args, source, timeout)
    runs = [untraced]
    if args.trace:
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-{args.seed}.jsonl")
        runs.append(run_once(binary, args, source, timeout, path))
        metrics = trace_summary.per_layer(
            trace_summary.load(path), untraced["e2e"]["total_mops"]["value"])
    else:
        metrics = {name: {"value": untraced["e2e"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
