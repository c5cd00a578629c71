#!/usr/bin/env python3
"""Benchmark entry point: build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests

Run from the repository root. The first run configures and compiles
perfbench/ (the simulator library, the benchmark binary and the two
fleet daemons) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only re-check the build. Each run
works in a fresh scratch directory under the build directory, which it
removes on exit. The last line of stdout is the JSON result.

--self-test runs all three workloads at tiny lengths, untraced and
traced, and asserts that every metric named in BENCHMARK.json is
printed with its unit, that nothing failed and that the exact count
checks hold. --record-digests re-records the stored result digests.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-sweep", "trace-windows", "service-resubmit")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, target, "perfbench"))


def build():
    """Configure and compile; output goes to stderr. Returns the bin dir."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("build failed: " + " ".join(cmd))
    return out


def run_perfbench(bin_dir, args, capture):
    """Run perfbench in a scratch directory; returns (code, stdout)."""
    scratch = os.path.join(bin_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(bin_dir, "perfbench"), "--bin-dir", bin_dir,
           "--data-dir", HERE] + args
    # Own process group, so a run that overstays its time is stopped
    # together with every grid child and daemon it started.
    proc = subprocess.Popen(cmd, cwd=scratch, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=175)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, (out.decode() if capture else "")


def self_test(bin_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--quick",
                    "--trace-out", os.path.join(bin_dir, "selftest.json")]
            code, out = run_perfbench(bin_dir, args, capture=True)
            sys.stdout.write(out)
            tag = "%s --trace %d" % (name, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (tag, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            metrics = result["metrics"]
            for m in spec[kind]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (tag, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s != %s" % (
                        tag, m["name"], got["unit"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (
                    tag, sorted(extra)))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s: failed %d of %d, correct %s" % (
                    tag, result["failed"], result["attempted"],
                    result["correct"]))
            if any("FAILED" in line for line in out.splitlines()
                   if line.startswith("check ")):
                problems.append("%s: a count check failed" % tag)
            if trace:
                with open(os.path.join(bin_dir, "selftest.json")) as f:
                    if not json.load(f)["traceEvents"]:
                        problems.append("%s: empty Chrome trace" % tag)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    opts = parser.parse_args()
    if not (opts.self_test or opts.record_digests or opts.workload):
        parser.error("--workload is required")

    bin_dir = build()
    if opts.self_test:
        return self_test(bin_dir)
    if opts.record_digests:
        for extra in ([], ["--quick"]):
            code, _ = run_perfbench(bin_dir, ["--record-digests"] + extra,
                                 capture=False)
            if code != 0:
                return code
        return 0
    trace_out = os.path.join(
        bin_dir, "trace-%s-seed%d.json" % (opts.workload, opts.seed))
    code, _ = run_perfbench(bin_dir, [
        "--workload", opts.workload, "--seed", str(opts.seed),
        "--seconds", str(opts.seconds), "--trace", str(opts.trace),
        "--trace-out", trace_out], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
