#!/usr/bin/env python3
"""Tolerance-band comparison of a fresh BENCH_*.json against a committed one.

Matches result rows between two exp_scale/exp_live JSON artifacts by their
configuration key and flags metric movements outside a tolerance band:

  * events_per_sec      — lower is a regression
  * bytes_per_query     — higher is a regression
  * wire_bytes_per_query — higher is a regression (true wire cost: bytes
                           handed to sendto(), resend-wave copies included)
  * detection_mean_s    — higher is a regression
  * detection_p50_s     — higher is a regression
  * detection_p99_s     — higher is a regression
  * round_rtt_p50_ms    — higher is a regression
  * round_rtt_p99_ms    — higher is a regression
  * pacing_mean_ms      — higher is a regression (detection-latency share
  * resend_wait_mean_ms   spent waiting for the round to open, on resend
  * wire_mean_ms          waves, and on the wire — from the assembled
                          cross-node trace; the three sum to the latency)

The key includes the engine/shards columns exp_scale emits, so a serial and
a sharded run of the same (n, f, seed) never get compared to each other.

Rows are compared only when both ran on the same host: equal nproc,
compiler, build_type and kernel in the `host` block (a row's own `host`
overrides its file's). A row whose host differs from, or is missing on
either side, is skipped with a warning — wall-clock figures from different
machines say nothing about the code.

Warn-only by default (always exits 0): bench hardware — CI runners above
all — is far too noisy to gate merges on, so the output is a trend signal
for humans. Pass --strict to exit 1 on any regression once a quieter rig
exists.

Usage:
  scripts/check_bench.py BENCH_scale.json fresh.json [--tolerance 0.5]
"""

import argparse
import json
import sys

# metric -> direction ("up" = larger is better, "down" = smaller is better)
METRICS = {
    "events_per_sec": "up",
    "bytes_per_query": "down",
    "wire_bytes_per_query": "down",
    "detection_mean_s": "down",
    "detection_p50_s": "down",
    "detection_p99_s": "down",
    "round_rtt_p50_ms": "down",
    "round_rtt_p99_ms": "down",
    "pacing_mean_ms": "down",
    "resend_wait_mean_ms": "down",
    "wire_mean_ms": "down",
}
KEY_FIELDS = ("n", "f", "seed", "delta", "engine", "shards")
HOST_FIELDS = ("nproc", "compiler", "build_type", "kernel")


def load_rows(path):
    """Returns the file's result rows, each paired with its host identity
    (a tuple of HOST_FIELDS values, or None when any of them is missing)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    rows = doc.get("results", [])
    if not isinstance(rows, list):
        sys.exit(f"check_bench: {path}: 'results' is not a list")
    return [(row, host_id(row.get("host", doc.get("host")))) for row in rows]


def host_id(host):
    if not isinstance(host, dict) or any(k not in host for k in HOST_FIELDS):
        return None
    return tuple(host[k] for k in HOST_FIELDS)


def fmt_host(host):
    if host is None:
        return "unknown host"
    return ", ".join(f"{k}={v}" for k, v in zip(HOST_FIELDS, host))


def row_key(row):
    return tuple((k, row[k]) for k in KEY_FIELDS if k in row)


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed artifact (the reference)")
    parser.add_argument("fresh", help="artifact from the current run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative slack, e.g. 0.5 = flag a metric worse than "
        "the baseline by more than 50%% (default: %(default)s)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any regression instead of warn-only",
    )
    args = parser.parse_args()

    baseline = {row_key(r): (r, h) for r, h in load_rows(args.baseline)}
    fresh_rows = load_rows(args.fresh)

    regressions = 0
    compared = 0
    unmatched = 0
    host_skipped = 0
    for row, host in fresh_rows:
        key = row_key(row)
        if key not in baseline:
            unmatched += 1
            print(f"[skip] {fmt_key(key)}: no baseline row")
            continue
        base, base_host = baseline[key]
        if host is None or host != base_host:
            host_skipped += 1
            why = "hosts differ" if host and base_host else "host unknown"
            print(
                f"[warn] {fmt_key(key)}: {why}, not compared "
                f"(baseline: {fmt_host(base_host)}; fresh: {fmt_host(host)})"
            )
            continue
        for metric, direction in METRICS.items():
            if metric not in row or metric not in base:
                continue
            old, new = float(base[metric]), float(row[metric])
            if old <= 0:
                continue
            compared += 1
            ratio = new / old
            worse = (
                ratio < 1 - args.tolerance
                if direction == "up"
                else ratio > 1 + args.tolerance
            )
            tag = "REGRESSION" if worse else "ok"
            if worse:
                regressions += 1
            print(
                f"[{tag}] {fmt_key(key)} {metric}: "
                f"{old:.4g} -> {new:.4g} ({ratio:.0%} of baseline)"
            )

    print(
        f"\ncheck_bench: {compared} metric(s) compared, "
        f"{regressions} regression(s), {unmatched} fresh row(s) without a "
        f"baseline, {host_skipped} skipped for a host mismatch "
        f"(tolerance {args.tolerance:.0%})"
    )
    if regressions and not args.strict:
        print("check_bench: warn-only mode — not failing the build")
    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    sys.exit(main())
