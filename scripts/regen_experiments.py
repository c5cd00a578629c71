#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from the experiment runner's JSON output.

EXPERIMENTS.md (referenced by src/trace/presets.hh) is the calibration
report: the measured values behind the workload presets, regenerated
from the same JSON files every bench emits with --out -- never
hand-edited. The generator runs the two calibration figures in one
`bench_figures` call, so their shared baselines simulate once,

  table1_btb_mpki   (Table 1: BTB/L1-I MPKI, no prefetch)
  fig7_speedup      (Fig 7: scheme speedups over baseline)

plus a probed six-scheme grid through `shotgun-submit
--uarch-report` for the stall-attribution table, and formats their
JSON into markdown tables. Determinism makes this reproducible: the
same build regenerates the same file byte for byte.

Usage:
  scripts/regen_experiments.py [--build-dir build] [--quick]
      [--jobs N] [--out EXPERIMENTS.md]
"""

import argparse
import json
import math
import pathlib
import subprocess
import sys

WORKLOAD_ORDER = ["nutch", "streaming", "apache", "zeus", "oracle", "db2"]
PAPER_TABLE1 = {
    "nutch": 2.5,
    "streaming": 14.5,
    "apache": 23.7,
    "zeus": 14.6,
    "oracle": 45.1,
    "db2": 40.2,
}


# Every field a runner/shotgun-submit result row may carry.
KNOWN_ROW_FIELDS = {
    "workload", "label", "instructions", "cycles", "ipc",
    "btb_mpki", "l1i_mpki", "mispredicts_per_ki", "fe_stall_cycles",
    "stall_icache", "stall_btb_resolve", "stall_misfetch",
    "stall_mispredict", "prefetch_accuracy", "avg_l1d_fill_cycles",
    "prefetches_issued", "storage_bits", "speedup", "stall_coverage",
}

# The subset the table generators below actually read.
REQUIRED_ROW_FIELDS = {"workload", "label", "btb_mpki", "l1i_mpki"}


def validate_rows(doc, source):
    """Fail with a clear message on schema drift, not a KeyError."""
    if not isinstance(doc, dict) or "rows" not in doc:
        sys.exit(f"{source}: not a runner result file (no \"rows\")")
    for i, row in enumerate(doc["rows"]):
        unknown = sorted(set(row) - KNOWN_ROW_FIELDS)
        if unknown:
            sys.exit(
                f"{source}: row {i} has unknown field(s) "
                f"{', '.join(unknown)} -- the runner JSON schema "
                f"moved; teach KNOWN_ROW_FIELDS in {__file__} about "
                f"them (and the tables, if they matter)")
        missing = sorted(REQUIRED_ROW_FIELDS - set(row))
        if missing:
            sys.exit(
                f"{source}: row {i} is missing required field(s) "
                f"{', '.join(missing)}")


def run_figures(build_dir, figures, out_dir, args, jobs):
    """One bench_figures run; returns each figure's JSON document."""
    binary = build_dir / "bench_figures"
    if not binary.exists():
        sys.exit(f"{binary} not built (cmake --build {build_dir} first)")
    cmd = [str(binary), *figures, "--no-progress", "--out", str(out_dir)]
    if jobs:  # 0 = bench default (all cores); the flag rejects 0.
        cmd += ["--jobs", str(jobs)]
    cmd += args
    print("+", " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    docs = []
    for figure in figures:
        path = out_dir / f"{figure}.json"
        with open(path) as f:
            doc = json.load(f)
        validate_rows(doc, str(path))
        docs.append(doc)
    return docs


UARCH_SCHEMES = ["baseline", "fdip", "boomerang", "confluence",
                 "shotgun", "rdip"]
UARCH_STALLS = [
    # (report field, column header)
    ("active_cycles", "active"),
    ("stall_icache_miss", "icache"),
    ("stall_btb_miss", "btb"),
    ("stall_redirect", "redirect"),
    ("stall_ftq_empty", "ftq-empty"),
    ("stall_backend_pressure", "backend"),
    ("stall_prefetch_in_flight", "pf-wait"),
]


def run_uarch_report(build_dir, work, warmup, measure, jobs):
    """Probed six-scheme grid; returns the --uarch-report document."""
    binary = build_dir / "shotgun-submit"
    if not binary.exists():
        sys.exit(f"{binary} not built (cmake --build {build_dir} first)")
    report = work / "uarch_report.json"
    cmd = [str(binary), "--local", "--workload", "nutch",
           "--schemes", ",".join(UARCH_SCHEMES),
           "--warmup", str(warmup), "--instructions", str(measure),
           "--no-progress", "--out", str(work / "uarch_grid"),
           "--uarch-report", str(report)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    print("+", " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        doc = json.load(f)
    if not doc.get("conserves", False):
        sys.exit(f"{report}: conservation invariant violated -- "
                 f"some measured cycle is unattributed or "
                 f"double-charged (simulator bug)")
    return doc


def rows_by_workload(doc):
    by = {}
    for row in doc["rows"]:
        by.setdefault(row["workload"], {})[row["label"]] = row
    return by


def lookup(by, workload, label, source):
    try:
        return by[workload][label]
    except KeyError:
        sys.exit(f"{source}: no row for ({workload}, {label}); "
                 f"was the bench run with a workload filter?")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--quick", action="store_true",
                        help="1M measured / 0.5M warm-up instructions")
    parser.add_argument("--jobs", type=int, default=0,
                        help="parallel data points (0 = all cores)")
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    build_dir = (root / args.build_dir).resolve()
    work = build_dir / "experiments"
    work.mkdir(parents=True, exist_ok=True)

    lengths = ["--quick"] if args.quick else []
    warmup, measure = (500000, 1000000) if args.quick \
        else (2000000, 5000000)
    table1, fig7 = map(rows_by_workload, run_figures(
        build_dir, ["table1_btb_mpki", "fig7_speedup"], work, lengths,
        args.jobs))
    uarch = run_uarch_report(build_dir, work, warmup, measure,
                             args.jobs)

    out = []
    out.append("# EXPERIMENTS — measured calibration values")
    out.append("")
    out.append("Generated by `scripts/regen_experiments.py` from the")
    out.append("experiment runner's JSON output — do not hand-edit;")
    out.append("rerun the script after any change that moves the")
    out.append("numbers. Runs are deterministic, so a given build")
    out.append("regenerates this file byte for byte.")
    out.append("")
    out.append(f"Run lengths: {warmup} warm-up + {measure} measured")
    out.append("instructions per data point.")
    out.append("")
    out.append("## Table 1 — BTB MPKI, 2K-entry BTB, no prefetching")
    out.append("")
    out.append("Calibration targets from the paper alongside the")
    out.append("measured values of the synthetic presets"
               " (`src/trace/presets.cc`).")
    out.append("")
    out.append("| Workload | BTB MPKI (measured) | BTB MPKI (paper) |"
               " L1-I MPKI (measured) |")
    out.append("|---|---|---|---|")
    for name in WORKLOAD_ORDER:
        row = lookup(table1, name, "baseline", "table1_btb_mpki")
        out.append(
            f"| {name} | {row['btb_mpki']:.1f} |"
            f" {PAPER_TABLE1[name]:.1f} | {row['l1i_mpki']:.1f} |")
    out.append("")
    out.append("## Figure 7 — speedup over the no-prefetch baseline")
    out.append("")
    out.append("Paper shape: Shotgun ~1.32 average, ~5% over both")
    out.append("Boomerang and Confluence, the Boomerang gap largest")
    out.append("on the OLTP workloads.")
    out.append("")
    schemes = ["confluence", "boomerang", "shotgun"]
    out.append("| Workload | " + " | ".join(s.capitalize()
                                            for s in schemes) + " |")
    out.append("|---|" + "---|" * len(schemes))
    per_scheme = {s: [] for s in schemes}
    for name in WORKLOAD_ORDER:
        cells = []
        for scheme in schemes:
            row = lookup(fig7, name, scheme, "fig7_speedup")
            if "speedup" not in row:
                sys.exit(f"fig7_speedup: ({name}, {scheme}) row has "
                         f"no speedup (baseline missing from grid?)")
            speedup = row["speedup"]
            per_scheme[scheme].append(speedup)
            cells.append(f"{speedup:.3f}")
        out.append(f"| {name} | " + " | ".join(cells) + " |")
    out.append("| **geomean** | " +
               " | ".join(f"**{geomean(per_scheme[s]):.3f}**"
                          for s in schemes) + " |")
    out.append("")
    out.append("## Stall attribution — % of measured cycles, nutch")
    out.append("")
    out.append("Cycle-exact attribution from the uarch probes")
    out.append("(`src/obs/README.md`, \"uarch probes\"): every")
    out.append("measured cycle is active or charged to exactly one")
    out.append("stall cause, so each row sums to 100% -- the")
    out.append("conservation invariant, asserted by the generator.")
    out.append("")
    out.append("| Scheme | " +
               " | ".join(header for _, header in UARCH_STALLS) +
               " |")
    out.append("|---|" + "---|" * len(UARCH_STALLS))
    uarch_rows = {row["label"]: row for row in uarch["rows"]}
    for scheme in UARCH_SCHEMES:
        if scheme not in uarch_rows:
            sys.exit(f"uarch report: no row for scheme {scheme}")
        row = uarch_rows[scheme]
        cycles = row["cycles"]
        cells = [f"{100.0 * row['uarch'][field] / cycles:.1f}"
                 for field, _ in UARCH_STALLS]
        out.append(f"| {scheme} | " + " | ".join(cells) + " |")
    out.append("")
    out.append("## Reproducing")
    out.append("")
    out.append("```sh")
    out.append("cmake -B build -S . && cmake --build build -j")
    out.append("scripts/regen_experiments.py" +
               (" --quick" if args.quick else ""))
    out.append("```")
    out.append("")
    out.append("The same grids can be run through the simulation")
    out.append("service (`shotgun-serve`/`shotgun-submit`, see")
    out.append("`src/service/README.md`); service results are")
    out.append("byte-identical to the in-process runs this file is")
    out.append("generated from.")

    out_path = root / args.out
    out_path.write_text("\n".join(out) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)


if __name__ == "__main__":
    main()
