#!/usr/bin/env python3
"""Guard simulator throughput against regressions.

Compares a fresh ``bench_sim_throughput`` run against the committed
baseline (``BENCH_sim_throughput.json``) and exits non-zero when any
(workload, scheme) row regressed. This covers the per-scheme rows
and the ``batched-grid`` row alike: the latter budgets the one-pass
grid pipeline (shared trace decode + warmed checkpoints + predecessor
gate), whose effective instr/sec must stay ahead of what the
per-scheme rows imply for six separate runs. For every row:

  * ``measured_instructions`` / ``measured_cycles`` must match the
    baseline exactly -- the simulation itself is deterministic, so any
    drift here is a correctness bug, not noise;
  * ``instructions_per_second`` must be within ``--budget`` percent
    (default 15) of the baseline row.

A baseline row missing from the measured output fails the check when
the row is budget-enforced (dropping a bench case must not silently
drop its budget) and warns when the row is tracked-only
(``budget_enforced: false``); measured rows absent from the baseline
warn that the baseline wants regenerating.

The throughput check is wall-clock and therefore machine-sensitive:
the committed baseline is meaningful on hardware comparable to the
machine that produced it. Regenerate it alongside intentional perf
changes with

    build/bench_sim_throughput --out BENCH_sim_throughput.json

Usage:
    scripts/check_bench_budget.py --baseline BENCH_sim_throughput.json \
        --measured build/bench_fresh.json [--budget 15]
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("experiment") != "sim_throughput":
        sys.exit(f"{path}: not a sim_throughput result file")
    rows = {}
    for row in doc["rows"]:
        rows[(row["workload"], row["scheme"])] = row
    return rows


def main():
    parser = argparse.ArgumentParser(
        description="fail on simulator throughput regression")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_sim_throughput.json")
    parser.add_argument("--measured",
                        help="fresh bench_sim_throughput output "
                             "(required unless --list-rows)")
    parser.add_argument("--budget", type=float, default=15.0,
                        help="allowed instr/sec regression, percent "
                             "(default 15)")
    parser.add_argument("--list-rows", action="store_true",
                        help="validate the baseline schema and print "
                             "its rows (workload/scheme, enforced?) "
                             "without measuring anything; --measured "
                             "is not required")
    args = parser.parse_args()

    if args.list_rows:
        baseline = load_rows(args.baseline)
        bad = 0
        for (workload, scheme), row in sorted(baseline.items()):
            missing = [f for f in ("measured_instructions",
                                   "measured_cycles",
                                   "instructions_per_second")
                       if f not in row]
            enforced = row.get("budget_enforced", True)
            tag = "enforced" if enforced else "tracked"
            if missing:
                bad += 1
                tag += ", MISSING: " + ", ".join(missing)
            print(f"{workload}/{scheme}: {tag}")
        if bad:
            print(f"\n{args.baseline}: {bad} malformed row(s)",
                  file=sys.stderr)
            return 1
        print(f"{len(baseline)} row(s) OK")
        return 0

    if args.measured is None:
        parser.error("--measured is required unless --list-rows")

    baseline = load_rows(args.baseline)
    measured = load_rows(args.measured)

    failures = []
    warnings = []
    for key, base in sorted(baseline.items()):
        workload, scheme = key
        fresh = measured.get(key)
        if fresh is None:
            # A baseline row the fresh run did not produce: a silent
            # pass here would let an enforced budget evaporate by
            # dropping its bench case. Tracked (budget_enforced:
            # false) rows only warn -- their absence loses trajectory
            # data, not a guarantee.
            if base.get("budget_enforced", True):
                failures.append(f"{workload}/{scheme}: enforced "
                                f"baseline row missing from "
                                f"{args.measured}")
            else:
                warnings.append(f"{workload}/{scheme}: tracked row "
                                f"missing from {args.measured}")
            continue

        for field in ("measured_instructions", "measured_cycles"):
            if fresh[field] != base[field]:
                failures.append(
                    f"{workload}/{scheme}: {field} drifted "
                    f"({base[field]} -> {fresh[field]}); the "
                    f"simulation is deterministic, so this is a "
                    f"correctness change, not noise")

        base_ips = base["instructions_per_second"]
        fresh_ips = fresh["instructions_per_second"]
        floor = base_ips * (1.0 - args.budget / 100.0)
        delta = (fresh_ips - base_ips) / base_ips * 100.0
        # Rows the bench marks budget_enforced=false (the
        # tracing-enabled row) are tracked for the trajectory but
        # never fail the check: their cost is the thing being
        # observed, not a budget.
        enforced = base.get("budget_enforced", True)
        if not enforced:
            status = "tracked (not budget-enforced)"
        elif fresh_ips >= floor:
            status = "ok"
        else:
            status = "REGRESSED"
        print(f"{workload}/{scheme}: {fresh_ips / 1e6:.2f} Minstr/s "
              f"vs baseline {base_ips / 1e6:.2f} ({delta:+.1f}%, "
              f"budget -{args.budget:.0f}%): {status}")
        if enforced and fresh_ips < floor:
            failures.append(
                f"{workload}/{scheme}: instructions/sec regressed: "
                f"baseline {base_ips:.0f} instr/s "
                f"({base_ips / 1e6:.2f} Minstr/s), current "
                f"{fresh_ips:.0f} instr/s "
                f"({fresh_ips / 1e6:.2f} Minstr/s), "
                f"delta {delta:+.1f}% exceeds the "
                f"-{args.budget:.0f}% budget")

    # Rows the fresh run measured that the baseline does not know:
    # fine (a new bench case lands before its baseline), but worth a
    # note so the baseline gets regenerated.
    for key in sorted(set(measured) - set(baseline)):
        warnings.append(f"{key[0]}/{key[1]}: measured but not in "
                        f"{args.baseline}; regenerate the baseline "
                        f"to start tracking it")

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if failures:
        print("\nbench budget check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("bench budget check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
