#!/usr/bin/env python3
"""Show that the benchmark's result checks catch a lost update.

    python3 perfbench/selftest.py

Run from the root of a source tree; builds like run.py. For each writing
workload it makes two short runs with the same seed: a clean one, which must
report failed == 0, and one with --inject-lost-update, in which writer 0
records one put in its model but never sends it to the map, which must
report failed > 0. Exits non-zero when either expectation fails.
"""
import json
import subprocess
import sys

import run


def report(binary, workload, inject):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1"]
    if inject:
        cmd.append("--inject-lost-update")
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    if p.returncode != 0:
        sys.exit(f"selftest: {' '.join(cmd)} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    binary = run.build()
    ok = True
    for workload in ("updates_small", "batches_small"):
        clean = report(binary, workload, inject=False)
        lost = report(binary, workload, inject=True)
        passed = clean["failed"] == 0 and lost["failed"] > 0
        ok &= passed
        print(f"{workload}: clean failed={clean['failed']:.0f}, "
              f"injected failed={lost['failed']:.0f} "
              f"({lost['e2e']['failed_op_frac']['value']:.3g} of "
              f"{lost['attempted']:.0f}) -> {'ok' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
