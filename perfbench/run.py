#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/perfbench.exe with dune
(inside the checkout's _build) and runs it in a fresh process.  For the
untraced metrics it adds that process's peak resident set (peak_rss_mb,
from wait4) and setup_s: the median over SETUP_PROCS fresh --setup-only
processes, since memory contention from other load on the host moves a
single process's set-up figure by up to a half.  It checks that the
metric names are exactly the ones BENCHMARK.json declares, and prints the
result JSON as the last stdout line.  Exit 0 when every output check
passed, 1 when one failed, 2 or more when the benchmark could not build
or run (no result line is printed then).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SETUP_PROCS = 7
SETUP_TIMEOUT_S = 30


def run_timeout_s(seconds):
    # the measured loop, plus warm-up, replays and output checks
    return 3 * seconds + 120


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return spec["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as e:
        die(2, "cannot read BENCHMARK.json: %s" % e)


def build():
    # the shared dune cache lives outside the checkout; keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(2, "build failed: %s" % e)
    sys.stderr.write(r.stdout.decode(errors="replace"))
    if r.returncode != 0 or not os.path.exists(EXE):
        die(2, "build failed (dune exit %d)" % r.returncode)


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(run_timeout_s(args.seconds), p.kill)
    timer.start()
    try:
        out = p.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss / 1024.0


def setup_s(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    runs = []
    for _ in range(SETUP_PROCS):
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               timeout=SETUP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(3, "set-up run failed: %s" % e)
        if r.returncode != 0:
            die(3, "set-up run exited %d" % r.returncode)
        try:
            runs.append(float(r.stdout.decode().split()[-1]))
        except (ValueError, IndexError):
            die(3, "set-up run printed no figure")
    return statistics.median(runs), runs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20261017)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    declared = declared_metrics(args.trace)
    build()
    code, out, peak_mb = run(args)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        die(3, "no result line (exit %d)" % code)
    if code not in (0, 1):
        sys.stdout.write(out)
        die(3, "benchmark exited %d" % code)
    if not args.trace:
        setup, setups = setup_s(args)
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write(out)
        die(4, "metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        print("%-36s %.6g s (median of %s)"
              % ("setup_s", setup, ", ".join("%.6g" % x for x in setups)))
        print("%-36s %.6g MB" % ("peak_rss_mb", peak_mb))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
