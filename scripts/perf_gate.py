#!/usr/bin/env python3
"""Throughput gate: perfbench at commit BASE against this checkout, same host.

    scripts/perf_gate.py BASE

Builds perfbench in a git worktree of BASE and in this checkout, each
into its own CARGO_TARGET_DIR, then runs WORKLOADS untraced on both in
PAIRS pairs, alternating which side runs first: runs made back to back
share a host that is still warming up. Prints every run's METRIC and
each side's median and interquartile range. Exits 1 when any run is not
correct or failed a point, or when a workload's median for the checkout
is more than BOUND below BASE's; 2 on bad usage. No number is stored
between gate runs, so the gate holds on any host.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The workloads whose time is the simulator's own: the cold Fig 7/
# Table 1 grid, and one trace's monolithic and windowed runs.
# service-resubmit is left out: most of its points are cache hits, and
# its tail rows depend on run order.
WORKLOADS = ("paper-sweep", "trace-windows")

# The end-to-end metric compared; higher is better.
METRIC = "delivered_minstr_per_s"

# Fail when the checkout's median is more than this fraction below
# BASE's. Ten runs of one build, split into five pairs, put the ratio
# of medians at 0.989 and 1.059 on a 4-vCPU VM.
BOUND = 0.15

# Pairs of runs per workload; pair i runs seed i + 1.
PAIRS = 5

# Length of one run (--seconds); a run takes about 9 s of wall time.
SECONDS = 5

# BASE's worktree and build (removed on every exit path) and the
# checkout's build (kept, so the next gate run only re-checks it).
WORK_DIR = os.path.join(ROOT, ".bench_build", "perf-gate")


def base_first(pair):
    """Whether pair `pair` runs BASE before the checkout."""
    return pair % 2 == 0


def metric_values(results):
    return [r["metrics"][METRIC]["value"] for r in results
            if METRIC in r.get("metrics", {})]


def verdict(runs):
    """Why the gate fails, from parsed perfbench result lines.

    `runs` maps each workload to {"base": [...], "change": [...]}, each
    a list of the JSON objects perfbench prints last. An empty list
    passes.
    """
    problems = []
    for workload, sides in runs.items():
        for side, results in sides.items():
            for i, r in enumerate(results):
                if not r.get("correct") or r.get("failed", 1):
                    problems.append("%s %s run %d: correct=%s failed=%s" % (
                        workload, side, i, r.get("correct"), r.get("failed")))
        base, change = (metric_values(sides[s]) for s in ("base", "change"))
        if not base or not change:
            problems.append("%s: no %s to compare" % (workload, METRIC))
        elif statistics.median(change) < (1 - BOUND) * statistics.median(base):
            problems.append("%s: the median %s is more than %.0f%% below "
                            "BASE's" % (workload, METRIC, 100 * BOUND))
    return problems


def call(cmd, **kwargs):
    """Run `cmd`; on an interrupt, SIGINT it first, which lets
    perfbench/run.py stop the process group its run started."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, err = proc.communicate()
    except BaseException:
        proc.send_signal(signal.SIGINT)
        proc.wait()
        raise
    return proc.returncode, out, err


def git(*args):
    code, out, err = call(["git", "-C", ROOT] + list(args), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if code != 0:
        sys.exit("perf-gate: git %s: %s" % (" ".join(args), err.strip()))
    return out.strip()


def build(src, target):
    """perfbench/run.py's build steps, into its build layout."""
    out = os.path.join(target, "perfbench")
    for cmd in (["cmake", "-S", os.path.join(src, "perfbench"), "-B", out],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]):
        if call(cmd, stdout=sys.stderr)[0] != 0:
            sys.exit("perf-gate: build failed: " + " ".join(cmd))


def run(src, target, workload, seed):
    """One untraced perfbench run: its result line, or a failed one."""
    code, out, err = call(
        [sys.executable, os.path.join(src, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=src, env=dict(os.environ, CARGO_TARGET_DIR=target), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if code == 0:
            return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        pass
    sys.stderr.write(err[-2000:])
    return {"correct": False, "failed": "exit %d" % code, "metrics": {}}


def measure(sides):
    runs = {w: {"base": [], "change": []} for w in WORKLOADS}
    for workload in WORKLOADS:
        for pair in range(PAIRS):
            for side in (("base", "change") if base_first(pair)
                         else ("change", "base")):
                r = run(*sides[side], workload, pair + 1)
                runs[workload][side].append(r)
                value = metric_values([r])
                print("%-13s pair %d seed %d %-6s %s correct=%s failed=%s" % (
                    workload, pair, pair + 1, side,
                    "%.2f" % value[0] if value else "-",
                    r.get("correct"), r.get("failed")), flush=True)
    return runs


def report(runs):
    for workload, sides in runs.items():
        medians = []
        for side, results in sides.items():
            values = metric_values(results)
            if len(values) > 1:
                q1, q2, q3 = statistics.quantiles(values, method="inclusive")
                medians.append(q2)
                print("%-13s %-6s median %.2f IQR %.2f (%.2f-%.2f)" % (
                    workload, side, q2, q3 - q1, q1, q3))
        if len(medians) == 2:
            print("%s change/base %.3f" % (workload, medians[1] / medians[0]))


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: scripts/perf_gate.py BASE", file=sys.stderr)
        return 2
    base = git("rev-parse", "--verify", argv[1] + "^{commit}")
    # SIGTERM and SIGHUP unwind like an interrupt, through the cleanup.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda *_: sys.exit(1))
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="base-", dir=WORK_DIR)
    worktree = os.path.join(scratch, "src")
    try:
        git("worktree", "add", "--detach", worktree, base)
        sides = {"base": (worktree, os.path.join(scratch, "build")),
                 "change": (ROOT, os.path.join(WORK_DIR, "change"))}
        print("perf-gate: BASE %s, %s in Minstr/s" % (base[:12], METRIC))
        for src, target in sides.values():
            build(src, target)
        runs = measure(sides)
    finally:
        call(["git", "-C", ROOT, "worktree", "remove", "--force", worktree],
             stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
        call(["git", "-C", ROOT, "worktree", "prune"])
    report(runs)
    problems = verdict(runs)
    for problem in problems:
        print("perf-gate: FAIL " + problem)
    print("perf-gate: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
