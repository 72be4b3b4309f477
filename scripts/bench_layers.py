#!/usr/bin/env python3
"""Record micro-benchmark rows in the per-layer ledger BENCH_layers.json.

Runs one micro_* Google Benchmark binary, takes the median and standard
deviation of each benchmark over REPETITIONS runs of MIN_TIME seconds each,
and writes them as rows labelled --label (e.g. "parent" and "change" for a
before/after pair). Rows already in the ledger with the same (benchmark,
label) are replaced; the rest are kept.

The ledger carries one `host` block, the one exp_scale writes (the micro
binaries report it in their benchmark context). A run on a different host,
compiler or build type is refused: per-operation nanoseconds from two
machines say nothing about the code.

Usage:
  scripts/bench_layers.py --binary build/bench/micro_core \\
      --filter BM_OnQueryMerge --label change --out BENCH_layers.json
"""

import argparse
import json
import os
import subprocess
import sys

REPETITIONS = 10
MIN_TIME = "0.2"  # seconds per repetition


def run_benchmarks(binary, flt):
    cmd = [
        binary,
        "--benchmark_format=json",
        f"--benchmark_filter={flt}",
        f"--benchmark_repetitions={REPETITIONS}",
        "--benchmark_report_aggregates_only=true",
        f"--benchmark_min_time={MIN_TIME}",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def rows_from(report, layer, label):
    stats = {}
    for b in report["benchmarks"]:
        if b.get("run_type") != "aggregate":
            continue
        if b["time_unit"] != "ns":
            sys.exit(f"{b['name']}: expected ns, got {b['time_unit']}")
        stats.setdefault(b["run_name"], {})[b["aggregate_name"]] = b["real_time"]
    return [
        {
            "layer": layer,
            "benchmark": name,
            "label": label,
            "ns_per_op": round(s["median"], 2),
            "ns_stddev": round(s["stddev"], 2),
        }
        for name, s in stats.items()
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True, help="a micro_* benchmark binary")
    ap.add_argument("--filter", default=".", help="--benchmark_filter regex")
    ap.add_argument("--label", required=True, help="row label, e.g. parent/change")
    ap.add_argument("--out", default="BENCH_layers.json")
    args = ap.parse_args()

    report = run_benchmarks(args.binary, args.filter)
    if "host" not in report["context"]:
        sys.exit(f"{args.binary} reports no host block in its context")
    host = json.loads(report["context"]["host"])
    layer = os.path.basename(args.binary).removeprefix("micro_")
    rows = rows_from(report, layer, args.label)
    if not rows:
        sys.exit(f"no benchmark matched --filter {args.filter!r}")

    ledger = {
        "experiment": "micro layers",
        "unit": {"ns_per_op": "median wall-clock ns per benchmark iteration "
                              f"over {REPETITIONS} repetitions of {MIN_TIME} s",
                 "ns_stddev": "standard deviation over the repetitions"},
        "host": host,
        "results": [],
    }
    if os.path.exists(args.out):
        with open(args.out) as f:
            ledger = json.load(f)
        if ledger["host"] != host:
            sys.exit(f"host {host} differs from {args.out}'s {ledger['host']}")
    fresh = {(r["benchmark"], r["label"]) for r in rows}
    ledger["results"] = [r for r in ledger["results"]
                         if (r["benchmark"], r["label"]) not in fresh] + rows

    with open(args.out, "w") as f:
        f.write("{\n")
        for key in ("experiment", "unit", "host"):
            f.write(f'  "{key}": {json.dumps(ledger[key])},\n')
        f.write('  "results": [\n')
        f.write(",\n".join("    " + json.dumps(r) for r in ledger["results"]))
        f.write("\n  ]\n}\n")
    for r in rows:
        print(f"{r['benchmark']:32s} {args.label:8s} {r['ns_per_op']:10.2f} ns")


if __name__ == "__main__":
    main()
